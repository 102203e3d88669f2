// Microbenchmarks and ablations of the fault-simulation engine:
//   - gate-level sweep cost per simulated cycle (64 machines/word),
//   - full-design fault simulation throughput,
//   - compiled cone-restricted engine vs the full-sweep reference,
//   - thread-count sweep: wall-clock speedup of the sharded engine,
//   - ablation: equivalence collapsing (universe size reduction),
//   - ablation: difficulty-ordered vs enumeration-ordered batching.
//
// Two modes:
//   perf_fault_sim [gbench flags]   google-benchmark microbenchmarks
//   perf_fault_sim --json[=PATH] [--json-vectors=N] [--json-design=lp|bench12]
//       machine-readable kernel report (BENCH_fault_sim.json by default):
//       vectors/s and faults/s per (SIMD backend x thread count) plus
//       engine stats and lane width, so the perf trajectory is tracked
//       across PRs (scripts/check_bench_regression.py gates on it). The
//       reference run is pinned to the scalar backend so it stays a
//       stable machine-speed denominator. Exits non-zero if any run —
//       any engine, backend, thread count, or cache state — disagrees
//       on a verdict, which makes the CI perf smoke a correctness
//       tripwire too.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/parse.hpp"
#include "common/simd.hpp"
#include "designs/reference.hpp"
#include "fault/kernel.hpp"
#include "fault/schedule_cache.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "rtl/sim.hpp"
#include "tpg/generators.hpp"

namespace {

using namespace fdbist;

// A mid-size design keeps iteration times benchmark-friendly.
const rtl::FilterDesign& bench_design() {
  static const auto d = rtl::build_fir(
      {0.21, -0.15, 0.11, 0.083, -0.062, 0.047, -0.035, 0.026, -0.02,
       0.015, -0.011, 0.008},
      {}, "bench12");
  return d;
}

const gate::LoweredDesign& bench_lowered() {
  static const auto low = gate::lower(bench_design().graph);
  return low;
}

void BM_GateSweepPerCycle(benchmark::State& state) {
  gate::WordSim sim(bench_lowered().netlist);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  for (auto _ : state) sim.step_broadcast(gen->next_raw());
  state.SetItemsProcessed(state.iterations() * 64); // machines per word
  state.counters["gates/cycle"] = static_cast<double>(
      bench_lowered().netlist.logic_gate_count());
}
BENCHMARK(BM_GateSweepPerCycle);

void BM_RtlSweepPerCycle(benchmark::State& state) {
  rtl::Simulator sim(bench_design().graph);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  for (auto _ : state) sim.step(gen->next_raw());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlSweepPerCycle);

void BM_FaultSimFullDesign(benchmark::State& state) {
  const auto vectors = static_cast<std::size_t>(state.range(0));
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(vectors);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(bench_lowered()),
      bench_lowered().netlist, bench_design().graph);
  for (auto _ : state) {
    auto res = fault::simulate_faults(bench_lowered().netlist, stim, faults);
    benchmark::DoNotOptimize(res.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSimFullDesign)->Arg(256)->Arg(1024);

// Compiled cone-restricted engine vs the retained full-sweep reference
// at one thread: the batch kernel is the only variable. Arg 0 = full
// sweep, 1 = compiled. Verdicts are bit-identical; only the work moves.
void BM_FaultSimEngines(benchmark::State& state) {
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(1024);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(bench_lowered()),
      bench_lowered().netlist, bench_design().graph);
  fault::FaultSimOptions opt;
  opt.num_threads = 1;
  opt.engine = state.range(0) == 0 ? fault::FaultSimEngine::FullSweep
                                   : fault::FaultSimEngine::Compiled;
  double cone_fraction = 1.0;
  for (auto _ : state) {
    auto res =
        fault::simulate_faults(bench_lowered().netlist, stim, faults, opt);
    benchmark::DoNotOptimize(res.detected);
    cone_fraction = res.stats.mean_cone_fraction();
  }
  state.SetLabel(fault_sim_engine_name(opt.engine));
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["cone_frac"] = cone_fraction;
}
BENCHMARK(BM_FaultSimEngines)->Arg(0)->Arg(1);

// Thread-count sweep over the same campaign: wall-clock speedup of the
// sharded engine vs the single-threaded legacy path. Arg is
// FaultSimOptions::num_threads (0 = one worker per hardware thread);
// results are bit-identical across the sweep, only the time moves.
// UseRealTime because the work happens on internal worker threads the
// default CPU-time clock of the calling thread would not see.
void BM_FaultSimThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(1024);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(bench_lowered()),
      bench_lowered().netlist, bench_design().graph);
  fault::FaultSimOptions opt;
  opt.num_threads = threads;
  for (auto _ : state) {
    auto res =
        fault::simulate_faults(bench_lowered().netlist, stim, faults, opt);
    benchmark::DoNotOptimize(res.detected);
  }
  state.counters["threads"] = static_cast<double>(
      threads == 0 ? std::thread::hardware_concurrency() : threads);
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_FaultSimThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0) // hardware concurrency
    ->UseRealTime();

void BM_Ablation_NoCollapse(benchmark::State& state) {
  // Without equivalence collapsing the universe inflates; measure the
  // end-to-end cost difference.
  fault::EnumerateOptions eopt;
  eopt.collapse = false;
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(256);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(bench_lowered(), eopt),
      bench_lowered().netlist, bench_design().graph);
  for (auto _ : state) {
    auto res = fault::simulate_faults(bench_lowered().netlist, stim, faults);
    benchmark::DoNotOptimize(res.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_Ablation_NoCollapse);

void BM_Ablation_UnorderedBatches(benchmark::State& state) {
  // Difficulty ordering clusters hard faults into few batches; without
  // it, stragglers keep many batches alive to the full budget.
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(256);
  const auto faults = fault::enumerate_adder_faults(bench_lowered());
  for (auto _ : state) {
    auto res = fault::simulate_faults(bench_lowered().netlist, stim, faults);
    benchmark::DoNotOptimize(res.detected);
  }
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK(BM_Ablation_UnorderedBatches);

// ---------------------------------------------------------------------------
// Machine-readable kernel report (--json mode).

struct JsonRun {
  std::string label;
  fault::FaultSimEngine engine = fault::FaultSimEngine::Compiled;
  std::size_t threads = 1;
  double seconds = 0;
  fault::FaultSimResult result;
};

void append_json_run(std::string& out, const JsonRun& r, std::size_t vectors,
                     std::size_t faults) {
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
      "       \"prep_artifact_load_ns\": %llu, \"prep_artifact_build_ns\": "
      "%llu, \"prep_artifact_save_ns\": %llu,\n"
      "       \"schedule_compilations\": %llu, \"artifact_mem_hits\": %llu, "
      "\"artifact_disk_hits\": %llu, \"artifact_misses\": %llu}}",
      r.label.c_str(), fault_sim_engine_name(s.engine),
      common::simd_backend_name(s.simd), s.lane_width, r.threads, r.seconds,
      double(vectors) / r.seconds, double(faults) / r.seconds,
      double(vectors) * double(faults) / r.seconds, r.result.detected,
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
      static_cast<unsigned long long>(s.prep_artifact_load_ns),
      static_cast<unsigned long long>(s.prep_artifact_build_ns),
      static_cast<unsigned long long>(s.prep_artifact_save_ns),
      static_cast<unsigned long long>(s.schedule_compilations),
      static_cast<unsigned long long>(s.artifact_mem_hits),
      static_cast<unsigned long long>(s.artifact_disk_hits),
      static_cast<unsigned long long>(s.artifact_misses));
  out += buf;
}

std::size_t parse_json_size(const char* arg, const char* name) {
  const auto v = common::parse_size(arg, name, 1, 1u << 20);
  if (!v) {
    std::fprintf(stderr, "perf_fault_sim: %s\n", v.error().to_string().c_str());
    std::exit(2);
  }
  return *v;
}

int run_json_report(const std::string& path, const std::string& design_name,
                    std::size_t vectors) {
  // Default workload is the table4 shape: a paper reference design and
  // the LFSR-D generator. bench12 is the small option for quick loops.
  rtl::FilterDesign design =
      design_name == "bench12"
          ? bench_design()
          : designs::make_reference(designs::ReferenceFilter::Lowpass);
  const auto low = gate::lower(design.graph);
  const auto faults = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, design.graph);
  auto gen = tpg::make_generator(tpg::GeneratorKind::LfsrD, 12);
  const auto stim = gen->generate_raw(vectors);

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
  // Reference pinned to scalar: a machine-speed denominator that never
  // shifts when a wider backend appears or disappears.
  runs.push_back(timed("reference-1t", fault::FaultSimEngine::FullSweep,
                       common::SimdBackend::Scalar, 1));
  // Headline trio keeps the historical labels (Auto = widest runnable).
  runs.push_back(timed("compiled-1t", fault::FaultSimEngine::Compiled,
                       common::SimdBackend::Auto, 1));
  runs.push_back(timed("compiled-2t", fault::FaultSimEngine::Compiled,
                       common::SimdBackend::Auto, 2));
  runs.push_back(timed("compiled-hw", fault::FaultSimEngine::Compiled,
                       common::SimdBackend::Auto, 0));
  // Explicit lane-width sweep over every backend this build + CPU can
  // run, at 1/2/hw threads. Doubles as the cross-backend verdict check.
  for (const common::SimdBackend b :
       {common::SimdBackend::Scalar, common::SimdBackend::Avx2,
        common::SimdBackend::Avx512}) {
    if (!fault::detail::kernel_available(b)) continue;
    const std::string base =
        std::string("compiled-") + common::simd_backend_name(b);
    runs.push_back(timed(base + "-1t", fault::FaultSimEngine::Compiled, b, 1));
    runs.push_back(timed(base + "-2t", fault::FaultSimEngine::Compiled, b, 2));
    runs.push_back(timed(base + "-hw", fault::FaultSimEngine::Compiled, b, 0));
  }

  // Schedule-cache ablation (ISSUE 9): cache-cold builds the artifact
  // and saves it into a fresh on-disk store; cache-warm constructs a
  // NEW ScheduleCache over the same store — the respawned-worker shape
  // — so the artifact must come back through an FDBA disk load, not the
  // in-memory LRU. The acquire is timed inside the run: a warm cache is
  // only a win if load + simulate beats compile + simulate, and the
  // JSON rows carry prep_artifact_load_ns vs prep_artifact_build_ns so
  // the baseline gate can watch that stay true.
  char cache_dir[] = "/tmp/fdbist-bench-cache-XXXXXX";
  const bool have_cache_dir = ::mkdtemp(cache_dir) != nullptr;
  if (have_cache_dir) {
    auto timed_cached = [&](std::string label) {
      JsonRun r;
      r.label = std::move(label);
      r.threads = 1;
      fault::FaultSimOptions opt;
      opt.engine = fault::FaultSimEngine::Compiled;
      opt.simd = common::SimdBackend::Auto;
      opt.num_threads = 1;
      fault::ScheduleCache::Config cfg;
      cfg.dir = cache_dir;
      fault::ScheduleCache cache(std::move(cfg));
      fault::ArtifactCacheStats cstats;
      const auto t0 = std::chrono::steady_clock::now();
      opt.artifact = cache.acquire(low.netlist, stim, faults, cstats);
      r.result = fault::simulate_faults(low.netlist, stim, faults, opt);
      r.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      fault::fold_cache_stats(cstats, r.result.stats);
      return r;
    };
    runs.push_back(timed_cached("cache-cold-1t"));
    runs.push_back(timed_cached("cache-warm-1t"));
  }

  // The perf report doubles as a correctness tripwire: every run — any
  // engine, backend, thread count, or cache state — must produce
  // bit-identical verdicts.
  for (const JsonRun& r : runs) {
    if (r.result.detect_cycle != runs.front().result.detect_cycle) {
      std::fprintf(stderr,
                   "perf_fault_sim: %s disagrees with %s on detect_cycle — "
                   "engine regression\n",
                   r.label.c_str(), runs.front().label.c_str());
      return 1;
    }
  }

  const double speedup = runs[0].seconds / runs[1].seconds;
  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"workload\": {\"design\": \"%s\", \"generator\": "
                  "\"lfsr-d\", \"vectors\": %zu, \"faults\": %zu,\n"
                  "    \"nets\": %zu, \"logic_gates\": %zu},\n"
                  "  \"speedup_compiled_vs_reference_1t\": %.3f,\n"
                  "  \"runs\": [\n",
                  design_name.c_str(), vectors, faults.size(),
                  low.netlist.size(), low.netlist.logic_gate_count(),
                  speedup);
    json += buf;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    append_json_run(json, runs[i], vectors, faults.size());
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_fault_sim: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);

  std::printf("wrote %s (%s, %zu faults, %zu vectors)\n", path.c_str(),
              design_name.c_str(), faults.size(), vectors);
  for (const JsonRun& r : runs)
    std::printf("  %-21s %8.3fs  %4zu lanes  cone %.3f  savings %.3f\n",
                r.label.c_str(), r.seconds, r.result.stats.lane_width,
                r.result.stats.mean_cone_fraction(),
                r.result.stats.gate_eval_savings());
  std::printf("  compiled vs reference @1 thread: %.2fx\n", speedup);
  if (have_cache_dir) {
    const auto& cold = runs[runs.size() - 2].result.stats;
    const auto& warm = runs.back().result.stats;
    std::printf("  artifact: cold build %.2f ms (+save %.2f ms), warm disk "
                "load %.2f ms\n",
                cold.prep_artifact_build_ns / 1e6,
                cold.prep_artifact_save_ns / 1e6,
                warm.prep_artifact_load_ns / 1e6);
    // Best-effort scratch-store cleanup (one content-addressed file).
    const auto key = fault::make_artifact_key(low.netlist, stim, faults);
    fault::ScheduleCache::Config cfg;
    cfg.dir = cache_dir;
    std::remove(fault::ScheduleCache(std::move(cfg))
                    .entry_path(key)
                    .c_str());
    ::rmdir(cache_dir);
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string json_design = "lp";
  std::size_t json_vectors = 1024;
  bool json_mode = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_mode = true;
      json_path = "BENCH_fault_sim.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_mode = true;
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--json-vectors=", 15) == 0) {
      json_vectors = parse_json_size(argv[i] + 15, "--json-vectors");
    } else if (std::strncmp(argv[i], "--json-design=", 14) == 0) {
      json_design = argv[i] + 14;
      if (json_design != "lp" && json_design != "bench12") {
        std::fprintf(stderr,
                     "perf_fault_sim: --json-design must be lp or bench12\n");
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json_mode) return run_json_report(json_path, json_design, json_vectors);

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
