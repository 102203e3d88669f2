// Reproduces Tables 4 and 5: faults left undetected after 4k vectors for
// the LFSR-1, LFSR-D, LFSR-M and Ramp generators on all three designs,
// raw (Table 4) and normalized by adder count (Table 5).
#include <array>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "bist/kit.hpp"
#include "designs/registry.hpp"
#include "tpg/generators.hpp"

int main() {
  using namespace fdbist;
  const std::size_t vectors = bench::budget(4096);

  constexpr std::array kKinds = {
      tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
      tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};

  bench::heading("Table 4: missed faults after 4k vectors (paper vs measured)");
  std::printf("  paper:  Des.  LFSR-1  LFSR-D  LFSR-M   Ramp\n");
  std::printf("          LP       519     331    1097    485\n");
  std::printf("          BP       201     193    1005   1230\n");
  std::printf("          HP       308     315    1030   1679\n\n");

  struct Row {
    std::string name;
    std::size_t adders = 0;
    std::array<std::size_t, 4> missed{};
    std::array<double, 4> coverage{};
    fault::FaultSimStats stats;
  };
  std::vector<Row> rows;

  for (const char* name : {"LP", "BP", "HP"}) {
    const auto d = designs::make_design(name);
    bist::BistKit kit(d);
    Row row;
    row.name = d.name;
    row.adders = d.stats().adders;
    for (std::size_t gi = 0; gi < kKinds.size(); ++gi) {
      auto gen = tpg::make_generator(kKinds[gi], 12);
      const auto report =
          bench::evaluate(kit, *gen, vectors, d.name + "/" + gen->name());
      row.missed[gi] = report.missed();
      row.coverage[gi] = report.coverage();
      row.stats.merge(report.fault_result.stats);
    }
    rows.push_back(std::move(row));
  }

  std::printf("  measured (%zu vectors):\n", vectors);
  std::printf("  %-5s %8s %8s %8s %8s\n", "Des.", "LFSR-1", "LFSR-D",
              "LFSR-M", "Ramp");
  for (const auto& r : rows)
    std::printf("  %-5s %8zu %8zu %8zu %8zu\n", r.name.c_str(), r.missed[0],
                r.missed[1], r.missed[2], r.missed[3]);

  std::printf("\n  coverage (%%):\n");
  for (const auto& r : rows)
    std::printf("  %-5s %8.2f %8.2f %8.2f %8.2f\n", r.name.c_str(),
                100 * r.coverage[0], 100 * r.coverage[1],
                100 * r.coverage[2], 100 * r.coverage[3]);

  std::printf("\n");
  for (const auto& r : rows) bench::engine_stats(r.name, r.stats);

  bench::heading("Table 5: missed faults normalized by adder count");
  std::printf("  paper:  LP 2.84/1.81/5.99/2.65   BP 1.25/1.20/6.24/7.64   "
              "HP 1.76/1.80/5.89/9.59\n\n");
  std::printf("  %-5s %8s %8s %8s %8s\n", "Des.", "LFSR-1", "LFSR-D",
              "LFSR-M", "Ramp");
  for (const auto& r : rows)
    std::printf("  %-5s %8.2f %8.2f %8.2f %8.2f\n", r.name.c_str(),
                double(r.missed[0]) / double(r.adders),
                double(r.missed[1]) / double(r.adders),
                double(r.missed[2]) / double(r.adders),
                double(r.missed[3]) / double(r.adders));

  bench::note("");
  bench::note("shape checks: LFSR-1 >> LFSR-D on LP only; LFSR-M worst "
              "single mode everywhere and flat across designs; Ramp "
              "competitive on LP, worst on BP/HP.");
  return 0;
}
