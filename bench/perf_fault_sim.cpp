// Fault-simulation engine report: one LP x LFSR-D cell at 512 vectors,
// simulated by the scalar FullSweep reference and by the compiled
// engine on every SIMD backend this build and CPU can run, each at 1, 2
// and hardware-concurrency threads.
//
//   perf_fault_sim [PATH]
//
// Prints one row per run (seconds, lane width, cone fraction, gate-eval
// savings) and writes the same runs, with the engine stats, as JSON to
// PATH (BENCH_fault_sim.json by default). Exits 1 if any run — any
// engine, backend or thread count — disagrees with the reference on a
// verdict, which makes the report a correctness tripwire. Speed is
// gated elsewhere, by scripts/perf_ab.py on the paper workloads.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "designs/registry.hpp"
#include "fault/kernel.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "tpg/generators.hpp"

namespace {

using namespace fdbist;

constexpr const char* kDesign = "LP";
constexpr std::size_t kVectors = 512;

struct JsonRun {
  std::string label;
  fault::FaultSimEngine engine = fault::FaultSimEngine::Compiled;
  std::size_t threads = 1;
  double seconds = 0;
  fault::FaultSimResult result;
};

void append_json_run(std::string& out, const JsonRun& r, std::size_t faults) {
  char buf[2560];
  const auto& s = r.result.stats;
  std::snprintf(
      buf, sizeof(buf),
      "    {\"label\": \"%s\", \"engine\": \"%s\", \"simd\": \"%s\", "
      "\"lane_width\": %zu, \"threads\": %zu,\n"
      "     \"seconds\": %.6f, \"vectors_per_s\": %.1f, \"faults_per_s\": "
      "%.1f, \"fault_vectors_per_s\": %.3e,\n"
      "     \"detected\": %zu,\n"
      "     \"stats\": {\"batches\": %llu, \"cycles_simulated\": %llu, "
      "\"cycles_budgeted\": %llu,\n"
      "       \"gates_evaluated\": %llu, \"gates_full_sweep\": %llu, "
      "\"good_trace_cycles\": %llu,\n"
      "       \"mean_cone_fraction\": %.4f, \"mean_early_exit_cycles\": "
      "%.1f, \"gate_eval_savings\": %.4f,\n"
      "       \"prep_compile_ns\": %llu, \"prep_trace_ns\": %llu,\n"
      "       \"schedule_compilations\": %llu}}",
      r.label.c_str(), fault_sim_engine_name(s.engine),
      common::simd_backend_name(s.simd), s.lane_width, r.threads, r.seconds,
      double(kVectors) / r.seconds, double(faults) / r.seconds,
      double(kVectors) * double(faults) / r.seconds, r.result.detected,
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.cycles_simulated),
      static_cast<unsigned long long>(s.cycles_budgeted),
      static_cast<unsigned long long>(s.gates_evaluated),
      static_cast<unsigned long long>(s.gates_full_sweep),
      static_cast<unsigned long long>(s.good_trace_cycles),
      s.mean_cone_fraction(), s.mean_early_exit_cycles(),
      s.gate_eval_savings(),
      static_cast<unsigned long long>(s.prep_compile_ns),
      static_cast<unsigned long long>(s.prep_trace_ns),
      static_cast<unsigned long long>(s.schedule_compilations));
  out += buf;
}

int run_json_report(const char* path) {
  const auto design = designs::make_design(kDesign);
  const auto low = gate::lower(design.graph);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, design.graph);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(kVectors);

  auto timed = [&](std::string label, fault::FaultSimEngine engine,
                   common::SimdBackend simd, std::size_t threads) {
    JsonRun r;
    r.label = std::move(label);
    r.engine = engine;
    r.threads = threads;
    fault::FaultSimOptions opt;
    opt.engine = engine;
    opt.simd = simd;
    opt.num_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    r.result = fault::simulate_faults(low.netlist, stim, faults, opt);
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
  };

  std::vector<JsonRun> runs;
  // The reference is pinned to the scalar backend, which every build and
  // CPU can run, so the verdict check below always has the same anchor.
  runs.push_back(timed("reference-1t", fault::FaultSimEngine::FullSweep,
                       common::SimdBackend::Scalar, 1));
  // Lane-width sweep over every backend this build + CPU can run, at
  // 1/2/hw threads. Doubles as the cross-backend verdict check. The
  // headline speedup is the widest backend's 1-thread row, the one a
  // default (Auto) run picks.
  std::size_t headline = 0;
  for (const common::SimdBackend b :
       {common::SimdBackend::Scalar, common::SimdBackend::Avx2,
        common::SimdBackend::Avx512}) {
    if (fault::detail::resolve_simd_backend(b) != b) continue;
    const std::string base =
        std::string("compiled-") + common::simd_backend_name(b);
    headline = runs.size();
    runs.push_back(timed(base + "-1t", fault::FaultSimEngine::Compiled, b, 1));
    runs.push_back(timed(base + "-2t", fault::FaultSimEngine::Compiled, b, 2));
    runs.push_back(timed(base + "-hw", fault::FaultSimEngine::Compiled, b, 0));
  }

  // The correctness tripwire: every run — any engine, backend or thread
  // count — must produce bit-identical verdicts.
  for (const JsonRun& r : runs) {
    if (r.result.detect_cycle != runs.front().result.detect_cycle) {
      std::fprintf(stderr,
                   "perf_fault_sim: %s disagrees with %s on detect_cycle — "
                   "engine regression\n",
                   r.label.c_str(), runs.front().label.c_str());
      return 1;
    }
  }

  const double speedup = runs[0].seconds / runs[headline].seconds;
  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"workload\": {\"design\": \"%s\", \"generator\": "
                  "\"lfsr-d\", \"vectors\": %zu, \"faults\": %zu,\n"
                  "    \"nets\": %zu, \"logic_gates\": %zu},\n"
                  "  \"speedup_compiled_vs_reference_1t\": %.3f,\n"
                  "  \"runs\": [\n",
                  kDesign, kVectors, faults.size(), low.netlist.size(),
                  low.netlist.logic_gate_count(), speedup);
    json += buf;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_json_run(json, runs[i], faults.size());
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_fault_sim: cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);

  std::printf("wrote %s (%s, %zu faults, %zu vectors)\n", path, kDesign,
              faults.size(), kVectors);
  for (const JsonRun& r : runs)
    std::printf("  %-21s %8.3fs  %4zu lanes  cone %.3f  savings %.3f\n",
                r.label.c_str(), r.seconds, r.result.stats.lane_width,
                r.result.stats.mean_cone_fraction(),
                r.result.stats.gate_eval_savings());
  std::printf("  compiled vs reference @1 thread: %.2fx\n", speedup);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // A flag-like argument is refused rather than taken as a file name.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: perf_fault_sim [PATH]\n");
    return 2;
  }
  return run_json_report(argc == 2 ? argv[1] : "BENCH_fault_sim.json");
}
