// Reproduces Figures 10-12: fault-coverage-vs-test-length curves for the
// four generators on the lowpass (Fig 10), bandpass (Fig 11), and
// highpass (Fig 12) designs. One fault simulation per (design,
// generator) pair yields the whole curve (first-detection cycles are
// recorded per fault).
#include <array>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t vectors = bench::budget(4096);
  std::vector<std::size_t> checkpoints;
  for (std::size_t v = 16; v <= vectors; v *= 2) checkpoints.push_back(v);
  if (checkpoints.back() != vectors) checkpoints.push_back(vectors);

  constexpr std::array kKinds = {
      tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
      tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};

  const struct {
    const char* design;
    const char* figure;
  } kRuns[] = {
      {"LP", "Figure 10 (lowpass)"},
      {"BP", "Figure 11 (bandpass)"},
      {"HP", "Figure 12 (highpass)"},
  };

  for (const auto& run : kRuns) {
    const auto d = designs::make_design(run.design);
    bist::BistKit kit(d);
    bench::heading(std::string(run.figure) +
                   ": fault coverage vs vectors (%)");

    std::vector<std::vector<double>> curves;
    fault::FaultSimStats stats;
    for (const auto k : kKinds) {
      auto gen = tpg::make_generator(k, 12);
      const auto report =
          bench::evaluate(kit, *gen, vectors, d.name + "/" + gen->name());
      curves.push_back(report.fault_result.coverage_at(checkpoints));
      stats.merge(report.fault_result.stats);
    }

    std::printf("  %8s %9s %9s %9s %9s\n", "vectors", "LFSR-1", "LFSR-D",
                "LFSR-M", "Ramp");
    for (std::size_t ci = 0; ci < checkpoints.size(); ++ci) {
      std::printf("  %8zu", checkpoints[ci]);
      for (const auto& c : curves) std::printf(" %9.3f", 100.0 * c[ci]);
      std::printf("\n");
    }
    bench::engine_stats(d.name, stats);
  }
  bench::note("");
  bench::note("expected shapes: on the lowpass, LFSR-1 trails LFSR-D at "
              "the top of the curve; LFSR-M saturates lowest everywhere "
              "(lower-bit misses); the Ramp collapses on bandpass and "
              "highpass.");
  return 0;
}
