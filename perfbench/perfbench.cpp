// Paper-cell benchmark.
//
// The paper's unit of work is one cell: a registered design, a TPG and a
// vector budget, fault-simulated to per-fault verdicts plus the golden
// MISR signature. This program runs one named workload of such cells in
// one process, closed loop (the next cell starts when the previous one
// returns), on min(nproc, 4) fault-simulation threads with the default
// engine and SIMD backend.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--commit SHA] [--smoke] [--print-expected]
//
// --trace 0 repeats untraced passes of the workload through the public
// BistKit API until --seconds have passed (and at least the workload's
// minimum pass count has run), and reports the end-to-end metrics.
// --trace 1 alternates untraced passes with traced ones. A traced pass
// makes the same public calls BistKit makes, one by one, and records a
// span around each in memory; the per-layer metrics are the spans' self
// times and the library's own counters. The spans are written to the
// work directory when the run ends.
//
// Every run checks its verdicts. At seed 1 each cell must reproduce the
// missed count, verdict digest and golden signature in
// expected_seed1.hpp. At any seed every pass must agree with the first,
// the traced path must agree with the untraced one, one cell is re-run on
// the FullSweep reference engine, and campaign verdicts must equal
// one-shot verdicts. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any failed check makes
// the exit status 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "bist/kit.hpp"
#include "bist/misr.hpp"
#include "common/simd.hpp"
#include "designs/registry.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault.hpp"
#include "fault/schedule_cache.hpp"
#include "fault/simulator.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "tpg/generator.hpp"
#include "tpg/lfsr.hpp"

#include "expected_seed1.hpp"

namespace fs = std::filesystem;
using namespace fdbist;

namespace {

constexpr int kMisrWidth = 24; // BistKit's default
constexpr std::size_t kCampaignSlice = 1024; // fdbist_cli campaign default

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process, all threads.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Percentile with linear interpolation between order statistics, so
/// percentile(v, 50) is the median.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over detect_cycle (little-endian i32), then signature_detect.
std::uint64_t verdict_digest(const fault::FaultSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::int32_t c : r.detect_cycle) {
    const auto u = static_cast<std::uint32_t>(c);
    const unsigned char b[4] = {static_cast<unsigned char>(u),
                                static_cast<unsigned char>(u >> 8),
                                static_cast<unsigned char>(u >> 16),
                                static_cast<unsigned char>(u >> 24)};
    h = fnv1a(h, b, 4);
  }
  return fnv1a(h, r.signature_detect.data(), r.signature_detect.size());
}

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int cell = -1;
};

/// Spans that group layer calls; their self time is the benchmark's own
/// glue, so it counts against coverage.
bool is_group(const std::string& name) {
  return name == "pass" || name == "setup" || name == "cell";
}

class Tracer {
public:
  int open(const char* name, int cell) {
    spans_.push_back({name, wall_now(), 0, current_, cell});
    current_ = int(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[std::size_t(id)].end = wall_now();
    current_ = spans_[std::size_t(id)].parent;
  }
  /// A closed child of `parent` covering time a library call reported
  /// about itself (FaultSimStats::prep_*_ns), laid end to end from
  /// `start`.
  void derived(int parent, const char* name, double start, double seconds) {
    const Span& p = spans_[std::size_t(parent)];
    spans_.push_back({name, start, start + seconds, parent, p.cell});
  }
  const std::vector<Span>& spans() const { return spans_; }

private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
public:
  Scope(Tracer& t, const char* name, int cell)
      : t_(t), id_(t.open(name, cell)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------
// Workloads.

enum class Shape {
  Grid,      ///< one kit per design, every TPG through BistKit::evaluate
  Cold,      ///< design build + kit per cell, like one `faultsim` command
  Campaign,  ///< run_campaign per design, cold then warm artifact cache
};

struct Workload {
  const char* name;
  Shape shape;
  std::vector<std::string> designs;
  std::vector<tpg::GeneratorKind> tpgs;
  std::size_t vectors;
  int signature_width; ///< 0 = word compare only
  /// Passes the timed phase runs at least, so that the tail percentile
  /// always has at least ten cells beyond it.
  std::size_t min_passes;
  double tail_percentile;
};

const std::vector<tpg::GeneratorKind> kTable4Tpgs = {
    tpg::GeneratorKind::Lfsr1, tpg::GeneratorKind::LfsrD,
    tpg::GeneratorKind::LfsrM, tpg::GeneratorKind::Ramp};

std::vector<Workload> workloads() {
  const std::vector<std::string> table1 = {"LP", "BP", "HP"};
  std::vector<std::string> all;
  for (const auto& e : designs::design_registry()) all.push_back(e.name);
  const std::vector<tpg::GeneratorKind> lfsrd = {tpg::GeneratorKind::LfsrD};
  return {
      {"grid4096", Shape::Grid, table1, kTable4Tpgs, 4096, 0, 4, 75},
      {"cells256_cold", Shape::Cold, all, kTable4Tpgs, 256, 0, 10, 95},
      {"signature4096", Shape::Grid, table1, lfsrd, 4096, 24, 7, 50},
      {"campaign4096", Shape::Campaign, table1, lfsrd, 4096, 0, 4, 50},
  };
}

struct Context {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::size_t vectors = 0; ///< w->vectors, or less under --smoke
};

/// TPG seed for a benchmark seed: any value maps onto a nonzero LFSR
/// state of the generator's width (seed 1 stays 1).
std::uint64_t tpg_seed(std::uint64_t seed, int width) {
  const std::uint64_t period = (std::uint64_t{1} << width) - 1;
  return (seed + period - 1) % period + 1;
}

std::unique_ptr<tpg::Generator> make_tpg(const Context& ctx,
                                         tpg::GeneratorKind k,
                                         const rtl::FilterDesign& d) {
  const int width = d.stats().width_in;
  return tpg::make_generator(k, width, tpg_seed(ctx.seed, width));
}

fault::FaultSimOptions sim_options(const Context& ctx) {
  fault::FaultSimOptions opt;
  opt.num_threads = ctx.threads;
  if (ctx.w->signature_width != 0) {
    opt.signature.width = ctx.w->signature_width;
    opt.signature.taps =
        tpg::default_polynomial(ctx.w->signature_width).low_terms;
  }
  return opt;
}

fault::CampaignOptions campaign_options(const Context& ctx,
                                        const rtl::FilterDesign& d,
                                        const fs::path& checkpoint) {
  fault::CampaignOptions copt;
  copt.num_threads = ctx.threads;
  copt.checkpoint_every = kCampaignSlice;
  copt.checkpoint_path = checkpoint.string();
  copt.family = static_cast<std::uint32_t>(d.family);
  return copt;
}

fault::ScheduleCache::Config cache_config(const fs::path& dir) {
  fault::ScheduleCache::Config cfg;
  cfg.dir = dir.string();
  return cfg;
}

struct CellVerdict {
  std::string label;
  std::size_t missed = 0;
  std::uint64_t digest = 0;
  std::uint32_t golden = 0;
};

CellVerdict verdict_of(std::string label, const fault::FaultSimResult& r,
                       std::uint32_t golden) {
  if (!r.complete) throw std::runtime_error(label + ": incomplete result");
  return {std::move(label), r.missed(), verdict_digest(r), golden};
}

/// Per-pass counters of the traced path (sums over the pass).
struct LayerCounts {
  double logic_gates = 0;
  double universe = 0;
  double sim_wall = 0; ///< simulate_faults / run_campaign calls
  double sim_cpu = 0;
  double slices = 0;
  double checkpoints = 0;
  double checkpoint_bytes = 0;
  double artifact_bytes = 0;
  double cache_misses = 0;
  double cache_disk_hits = 0;
};

struct PassResult {
  double wall = 0;
  double setup = 0;
  double cpu = 0;
  std::vector<double> cell_s;
  std::vector<CellVerdict> verdicts;
  std::size_t failed = 0; ///< cells that threw
  fault::FaultSimStats stats; ///< merged over the pass's cells
  LayerCounts counts;         ///< traced passes only
  std::vector<Span> spans;    ///< traced passes only
};

std::string cell_label(const std::string& design, tpg::GeneratorKind k,
                       const char* phase = nullptr) {
  std::string s = design + "/" + tpg::kind_name(k);
  if (phase != nullptr) s += std::string("/") + phase;
  return s;
}

constexpr const char* kPhases[] = {"cold", "warm"};

/// Every (design, tpg, phase) cell of one pass, in the order issued.
struct CellPlan {
  std::string design;
  tpg::GeneratorKind tpg;
  const char* phase; ///< campaign only
};

std::vector<CellPlan> plan(const Workload& w) {
  std::vector<CellPlan> out;
  for (const auto& d : w.designs)
    for (const auto k : w.tpgs) {
      if (w.shape == Shape::Campaign)
        for (const char* ph : kPhases) out.push_back({d, k, ph});
      else
        out.push_back({d, k, nullptr});
    }
  return out;
}

// ---- untraced path: the public BistKit API ---------------------------

struct Kit {
  std::unique_ptr<rtl::FilterDesign> design; // BistKit keeps a reference
  std::unique_ptr<bist::BistKit> kit;
};

Kit build_kit(const std::string& name) {
  Kit k;
  k.design = std::make_unique<rtl::FilterDesign>(designs::make_design(name));
  k.kit = std::make_unique<bist::BistKit>(*k.design);
  return k;
}

/// One cell through BistKit. Returns the report; `seconds` is the cell
/// latency (stimulus generation to verdicts plus golden signature).
bist::BistReport run_kit_cell(const Context& ctx, const Kit& k,
                              const CellPlan& c, const fs::path& dir,
                              double& seconds) {
  auto gen = make_tpg(ctx, c.tpg, *k.design);
  if (ctx.w->shape != Shape::Campaign) {
    const auto opt = sim_options(ctx);
    const double t0 = wall_now();
    auto rep = k.kit->evaluate(*gen, ctx.vectors, opt);
    seconds = wall_now() - t0;
    return rep;
  }
  fault::ScheduleCache cache(cache_config(dir / "cache"));
  auto copt = campaign_options(
      ctx, *k.design, dir / (c.design + "-" + c.phase + ".ckpt"));
  copt.schedule_cache = &cache;
  const double t0 = wall_now();
  auto rep = k.kit->evaluate_campaign(*gen, ctx.vectors, copt);
  seconds = wall_now() - t0;
  if (!rep) throw std::runtime_error(rep.error().to_string());
  return std::move(*rep);
}

PassResult run_untraced_pass(const Context& ctx, const fs::path& dir) {
  PassResult p;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::optional<Kit> kit;
  std::string kit_design;
  for (const auto& c : plan(*ctx.w)) {
    const std::string label = cell_label(c.design, c.tpg, c.phase);
    try {
      if (!kit || kit_design != c.design || ctx.w->shape == Shape::Cold) {
        kit.reset();
        const double s0 = wall_now();
        kit = build_kit(c.design);
        p.setup += wall_now() - s0;
        kit_design = c.design;
      }
      double secs = 0;
      const auto rep = run_kit_cell(ctx, *kit, c, dir, secs);
      p.cell_s.push_back(secs);
      p.verdicts.push_back(
          verdict_of(label, rep.fault_result, rep.golden_signature));
      p.stats.merge(rep.fault_result.stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cell %s failed: %s\n", label.c_str(),
                   e.what());
      ++p.failed;
      p.verdicts.push_back({label, 0, 0, 0});
    }
  }
  p.cpu = cpu_now() - c0;
  p.wall = wall_now() - w0;
  return p;
}

// ---- traced path: the calls BistKit makes, one span each -------------

struct Prepared {
  std::unique_ptr<rtl::FilterDesign> design;
  gate::LoweredDesign lowered;
  std::vector<fault::Fault> faults;
};

/// BistKit's constructor, call by call, plus the design build.
Prepared prepare_traced(const std::string& name, Tracer& tr, int cell,
                        LayerCounts& n) {
  Scope setup(tr, "setup", cell);
  Prepared p;
  {
    Scope s(tr, "designs.build", cell);
    p.design =
        std::make_unique<rtl::FilterDesign>(designs::make_design(name));
  }
  {
    Scope s(tr, "gate.lower", cell);
    p.lowered = gate::lower(p.design->graph);
  }
  {
    Scope s(tr, "fault.enumerate", cell);
    p.faults = fault::enumerate_adder_faults(p.lowered);
  }
  {
    Scope s(tr, "fault.order", cell);
    p.faults = fault::order_for_simulation(
        std::move(p.faults), p.lowered.netlist, p.design->graph);
  }
  n.logic_gates += double(p.lowered.netlist.logic_gate_count());
  n.universe += double(p.faults.size());
  return p;
}

/// BistKit::golden_signature's two steps: a fault-free WordSim sweep of
/// the lowered netlist, then Misr::absorb_all over the output words.
std::uint32_t golden_signature(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus) {
  gate::WordSim sim(nl);
  const auto& out_bits = nl.outputs().front();
  std::vector<std::int64_t> out;
  out.reserve(stimulus.size());
  for (const std::int64_t x : stimulus) {
    sim.step_broadcast(x);
    out.push_back(sim.lane_value(out_bits, 0));
  }
  bist::Misr misr(kMisrWidth);
  misr.absorb_all(out);
  return misr.signature();
}

/// simulate_faults under a span, split into prep / trace / batches by
/// the prep_*_ns fields the result already carries.
fault::FaultSimResult traced_simulate(
    Tracer& tr, int cell, LayerCounts& n, const Prepared& p,
    std::span<const std::int64_t> stimulus,
    const fault::FaultSimOptions& opt) {
  const double c0 = cpu_now();
  fault::FaultSimResult r;
  int id = -1;
  {
    Scope s(tr, "fault.simulate", cell);
    id = s.id();
    r = fault::simulate_faults(p.lowered.netlist, stimulus, p.faults, opt);
  }
  const Span& sp = tr.spans()[std::size_t(id)];
  const double start = sp.start;
  const double total = sp.end - sp.start;
  n.sim_wall += total;
  n.sim_cpu += cpu_now() - c0;
  const auto& st = r.stats;
  const double prep = 1e-9 * double(st.prep_passes_ns + st.prep_compile_ns);
  const double trace = 1e-9 * double(st.prep_trace_ns);
  tr.derived(id, "fault.prep", start, prep);
  tr.derived(id, "fault.trace", start + prep, trace);
  tr.derived(id, "fault.batches", start + prep + trace,
             std::max(0.0, total - prep - trace));
  return r;
}

CellVerdict run_traced_cell(const Context& ctx, const Prepared& p,
                            const CellPlan& c, const fs::path& dir,
                            Tracer& tr, int cell, LayerCounts& n,
                            fault::FaultSimStats& stats) {
  Scope cs(tr, "cell", cell);
  const std::string label = cell_label(c.design, c.tpg, c.phase);
  std::vector<std::int64_t> stimulus;
  {
    Scope s(tr, "tpg.generate", cell);
    auto gen = make_tpg(ctx, c.tpg, *p.design);
    gen->reset();
    stimulus = gen->generate_raw(ctx.vectors);
  }
  fault::FaultSimResult result;
  if (ctx.w->shape != Shape::Campaign) {
    result = traced_simulate(tr, cell, n, p, stimulus, sim_options(ctx));
  } else {
    const bool cold = std::strcmp(c.phase, "cold") == 0;
    fault::ScheduleCache cache(cache_config(dir / "cache"));
    fault::ArtifactCacheStats cst;
    std::shared_ptr<const fault::CompiledArtifact> art;
    {
      Scope s(tr, cold ? "cache.acquire_cold" : "cache.acquire_warm", cell);
      art = cache.acquire(p.lowered.netlist, stimulus, p.faults,
                          gate::PassOptions{}, cst);
    }
    if (art == nullptr) throw std::runtime_error(label + ": no artifact");
    n.cache_misses += double(cst.misses);
    n.cache_disk_hits += double(cst.disk_hits);
    if (cold) {
      std::error_code ec;
      const auto sz = fs::file_size(cache.entry_path(art->key), ec);
      if (!ec) n.artifact_bytes += double(sz);
    }
    const fs::path ckpt = dir / (c.design + "-" + c.phase + ".ckpt");
    auto copt = campaign_options(ctx, *p.design, ckpt);
    copt.artifact = art;
    const double c0 = cpu_now();
    std::optional<Expected<fault::CampaignResult>> res;
    {
      Scope s(tr, "campaign.run", cell);
      res.emplace(fault::run_campaign(p.lowered.netlist, stimulus, p.faults,
                                      copt));
      n.sim_wall += wall_now() - tr.spans()[std::size_t(s.id())].start;
    }
    n.sim_cpu += cpu_now() - c0;
    if (!*res) throw std::runtime_error((*res).error().to_string());
    auto& cr = **res;
    n.slices += double(cr.completed_slices);
    n.checkpoints += double(cr.checkpoints_written);
    std::error_code ec;
    const auto ck_bytes = fs::file_size(ckpt, ec);
    if (!ec) n.checkpoint_bytes += double(ck_bytes);
    std::optional<Expected<fault::Checkpoint>> ck;
    {
      Scope s(tr, "checkpoint.load", cell);
      ck.emplace(fault::load_checkpoint(ckpt.string()));
    }
    if (!*ck) throw std::runtime_error((*ck).error().to_string());
    if ((**ck).detect_cycle != cr.sim.detect_cycle)
      throw std::runtime_error(label + ": checkpoint verdicts differ");
    result = std::move(cr.sim);
  }
  stats.merge(result.stats);
  std::uint32_t golden = 0;
  {
    Scope s(tr, "bist.golden", cell);
    golden = golden_signature(p.lowered.netlist, stimulus);
  }
  return verdict_of(label, result, golden);
}

/// A traced pass over the first `max_cells` cells of the workload.
PassResult run_traced_pass(const Context& ctx, const fs::path& dir,
                           std::size_t max_cells) {
  PassResult p;
  Tracer tr;
  const double c0 = cpu_now();
  {
    Scope pass(tr, "pass", -1);
    std::optional<Prepared> prep;
    std::string prep_design;
    int cell = 0;
    auto cells = plan(*ctx.w);
    cells.resize(std::min(cells.size(), max_cells));
    for (const auto& c : cells) {
      const std::string label = cell_label(c.design, c.tpg, c.phase);
      try {
        if (!prep || prep_design != c.design ||
            ctx.w->shape == Shape::Cold) {
          prep.reset();
          prep = prepare_traced(c.design, tr, cell, p.counts);
          prep_design = c.design;
        }
        p.verdicts.push_back(run_traced_cell(ctx, *prep, c, dir, tr, cell,
                                             p.counts, p.stats));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: traced cell %s failed: %s\n",
                     label.c_str(), e.what());
        ++p.failed;
        p.verdicts.push_back({label, 0, 0, 0});
      }
      ++cell;
    }
  }
  p.cpu = cpu_now() - c0;
  p.spans = tr.spans();
  const Span& root = p.spans.front();
  p.wall = root.end - root.start;
  for (const auto& s : p.spans) {
    if (s.name == "setup") p.setup += s.end - s.start;
    if (s.name == "cell") p.cell_s.push_back(s.end - s.start);
  }
  return p;
}

// ---- per-layer metrics from one traced pass --------------------------

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0) child[std::size_t(s.parent)] += s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += spans[i].end - spans[i].start - child[i];
  return out;
}

/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"designs.build_s", "s"},       {"gate.lower_s", "s"},
    {"gate.logic_gates", "count"},  {"fault.enumerate_s", "s"},
    {"fault.order_s", "s"},         {"fault.universe", "count"},
    {"tpg.generate_s", "s"},        {"fault.prep_s", "s"},
    {"fault.trace_s", "s"},         {"fault.good_trace_cycles", "count"},
    {"fault.batches_s", "s"},       {"fault.batches", "count"},
    {"fault.cycles_simulated", "count"},
    {"fault.early_exit_ratio", "ratio"},
    {"fault.gates_evaluated", "count"},
    {"fault.cone_fraction", "ratio"},
    {"fault.lane_width", "lanes"},  {"parallel.util", "ratio"},
    {"bist.golden_s", "s"},         {"campaign.run_s", "s"},
    {"campaign.slices", "count"},   {"campaign.slice_s", "s"},
    {"campaign.checkpoints", "count"},
    {"checkpoint.bytes", "bytes"},  {"checkpoint.load_s", "s"},
    {"cache.acquire_cold_s", "s"},  {"cache.acquire_warm_s", "s"},
    {"cache.artifact_bytes", "bytes"},
    {"cache.misses", "count"},      {"cache.disk_hits", "count"},
    {"trace.coverage", "ratio"},    {"trace.overhead_s", "s"},
};

std::map<std::string, double> layer_metrics(const PassResult& p,
                                            std::size_t threads) {
  const auto self = self_times(p.spans);
  auto t = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double named = 0;
  for (const auto& [name, s] : self)
    if (!is_group(name)) named += s;
  const auto& n = p.counts;
  const auto& st = p.stats;
  std::map<std::string, double> m;
  m["designs.build_s"] = t("designs.build");
  m["gate.lower_s"] = t("gate.lower");
  m["gate.logic_gates"] = n.logic_gates;
  m["fault.enumerate_s"] = t("fault.enumerate");
  m["fault.order_s"] = t("fault.order");
  m["fault.universe"] = n.universe;
  m["tpg.generate_s"] = t("tpg.generate");
  m["fault.prep_s"] = t("fault.prep");
  m["fault.trace_s"] = t("fault.trace");
  m["fault.good_trace_cycles"] = double(st.good_trace_cycles);
  m["fault.batches_s"] = t("fault.batches");
  m["fault.batches"] = double(st.batches);
  m["fault.cycles_simulated"] = double(st.cycles_simulated);
  m["fault.early_exit_ratio"] =
      st.cycles_budgeted == 0
          ? 0.0
          : 1.0 - double(st.cycles_simulated) / double(st.cycles_budgeted);
  m["fault.gates_evaluated"] = double(st.gates_evaluated);
  m["fault.cone_fraction"] = st.mean_cone_fraction();
  m["fault.lane_width"] = double(st.lane_width);
  m["parallel.util"] =
      n.sim_wall == 0 ? 0.0 : n.sim_cpu / (double(threads) * n.sim_wall);
  m["bist.golden_s"] = t("bist.golden");
  m["campaign.run_s"] = t("campaign.run");
  m["campaign.slices"] = n.slices;
  m["campaign.slice_s"] = n.slices == 0 ? 0.0 : t("campaign.run") / n.slices;
  m["campaign.checkpoints"] = n.checkpoints;
  m["checkpoint.bytes"] = n.checkpoint_bytes;
  m["checkpoint.load_s"] = t("checkpoint.load");
  m["cache.acquire_cold_s"] = t("cache.acquire_cold");
  m["cache.acquire_warm_s"] = t("cache.acquire_warm");
  m["cache.artifact_bytes"] = n.artifact_bytes;
  m["cache.misses"] = n.cache_misses;
  m["cache.disk_hits"] = n.cache_disk_hits;
  m["trace.coverage"] = p.wall == 0 ? 0.0 : named / p.wall;
  return m;
}

// ---- checks ----------------------------------------------------------

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    ++failed;
  }
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
  return buf;
}

std::string describe(const CellVerdict& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s missed %zu digest %s golden %06X",
                v.label.c_str(), v.missed, hex(v.digest).c_str(), v.golden);
  return buf;
}

/// The committed seed-1 verdicts of the workload.
std::vector<CellVerdict> expected_verdicts(const Context& ctx) {
  std::vector<CellVerdict> out;
  for (const auto& e : kExpectedSeed1)
    if (std::strcmp(e.workload, ctx.w->name) == 0)
      out.push_back({e.label, e.missed, e.digest, e.golden});
  return out;
}

bool same_verdict(const CellVerdict& a, const CellVerdict& b) {
  return a.missed == b.missed && a.digest == b.digest && a.golden == b.golden;
}

/// Each of `got` against the reference cell at the same position.
void check_verdicts(const std::vector<CellVerdict>& got,
                    const std::vector<CellVerdict>& ref, const char* what,
                    Checks& ck) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    ++ck.attempted;
    if (i >= ref.size() || got[i].label != ref[i].label)
      ck.fail(std::string(what) + ": unexpected cell " + got[i].label);
    else if (!same_verdict(got[i], ref[i]))
      ck.fail(std::string(what) + ": got " + describe(got[i]) + ", want " +
              describe(ref[i]));
  }
}

/// Re-run the workload's first cell one-shot on the FullSweep reference
/// engine and, for campaigns, every design one-shot on the default
/// engine: campaign verdicts must equal one-shot verdicts.
void check_reference_engines(const Context& ctx,
                             const std::vector<CellVerdict>& ref,
                             Checks& ck) {
  const auto cells = plan(*ctx.w);
  const bool campaign = ctx.w->shape == Shape::Campaign;
  std::optional<Kit> kit;
  std::map<std::string, CellVerdict> oneshot; // by design
  for (std::size_t i = 0; i < cells.size() && i < ref.size(); ++i) {
    const auto& c = cells[i];
    if (i > 0 && !campaign) break;
    const std::string label = cell_label(c.design, c.tpg, c.phase);
    auto run = [&](fault::FaultSimEngine engine) {
      if (!kit || kit->design->name != c.design) {
        kit.reset();
        kit = build_kit(c.design);
      }
      auto gen = make_tpg(ctx, c.tpg, *kit->design);
      auto opt = sim_options(ctx);
      opt.engine = engine;
      const auto rep = kit->kit->evaluate(*gen, ctx.vectors, opt);
      return verdict_of(label, rep.fault_result, rep.golden_signature);
    };
    try {
      if (i == 0)
        check_verdicts({run(fault::FaultSimEngine::FullSweep)}, {ref[i]},
                       "one-shot FullSweep", ck);
      if (campaign) {
        if (oneshot.count(c.design) == 0)
          oneshot.emplace(c.design, run(fault::FaultSimEngine::Auto));
        auto v = oneshot.at(c.design);
        v.label = label;
        check_verdicts({v}, {ref[i]}, "campaign vs one-shot", ck);
      }
    } catch (const std::exception& e) {
      ++ck.attempted;
      ck.fail(label + " one-shot reference: " + e.what());
    }
  }
}

// ---- output ----------------------------------------------------------

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  return "unknown";
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::size_t(CPU_COUNT(&set));
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? std::size_t(n) : 1;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_spans(const fs::path& path, const std::vector<PassResult>& passes) {
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (std::size_t pi = 0; pi < passes.size(); ++pi)
    for (std::size_t i = 0; i < passes[pi].spans.size(); ++i) {
      const Span& s = passes[pi].spans[i];
      out << (first ? "" : ",\n") << "{\"pass\":" << pi << ",\"id\":" << i
          << ",\"name\":\"" << s.name << "\",\"start\":" << num(s.start)
          << ",\"end\":" << num(s.end) << ",\"parent\":" << s.parent
          << ",\"cell\":" << s.cell << "}";
      first = false;
    }
  out << "\n]\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  bool smoke = false;
  bool print_expected = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--commit SHA] "
               "[--smoke] [--print-expected]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value());
      else if (k == "--workdir") a.workdir = value();
      else if (k == "--commit") a.commit = value();
      else if (k == "--smoke") a.smoke = true;
      else if (k == "--print-expected") a.print_expected = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto all = workloads();
  const Workload* w = nullptr;
  for (const auto& x : all)
    if (args.workload == x.name) w = &x;
  if (w == nullptr) usage(("unknown workload \"" + args.workload + "\"").c_str());

  Context ctx;
  ctx.w = w;
  ctx.seed = args.seed;
  ctx.threads = std::min<std::size_t>(nproc(), 4);
  ctx.vectors = args.smoke ? std::max<std::size_t>(w->vectors / 32, 64)
                           : w->vectors;
  const std::size_t min_passes = args.smoke ? 1 : w->min_passes;

  const fs::path run_dir = fs::path(args.workdir) /
                           (std::string(w->name) + "-" +
                            std::to_string(getpid()));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  std::size_t pass_no = 0;
  auto run_pass = [&](bool traced, std::size_t max_cells = SIZE_MAX) {
    const fs::path dir = run_dir / ("pass-" + std::to_string(pass_no++));
    fs::create_directories(dir);
    auto p = traced ? run_traced_pass(ctx, dir, max_cells)
                    : run_untraced_pass(ctx, dir);
    fs::remove_all(dir);
    return p;
  };

  // Measure: passes back to back until the budget is spent. A hard cap
  // keeps a pathological slowdown inside the caller's time limit.
  constexpr double kMaxSeconds = 120;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::optional<PassResult> traced_check;
  const double t0 = wall_now();
  for (;;) {
    const double elapsed = wall_now() - t0;
    const bool enough = args.trace == 0
                            ? untraced.size() >= min_passes
                            : !traced.empty();
    if ((elapsed >= args.seconds && enough) ||
        (elapsed >= kMaxSeconds && !untraced.empty()))
      break;
    if (args.trace == 1 && untraced.size() > traced.size())
      traced.push_back(run_pass(true));
    else
      untraced.push_back(run_pass(false));
  }

  // Check verdicts: every pass against the reference, then the
  // reference engines. When the measurement ran no traced pass, the
  // traced path runs here on the first design's cells.
  const double check_t0 = wall_now();
  Checks ck;
  const bool committed = args.seed == 1 && !args.smoke;
  auto ref = committed ? expected_verdicts(ctx) : untraced.front().verdicts;
  if (committed && ref.empty()) {
    ++ck.attempted;
    ck.fail(std::string("no committed seed-1 verdicts for ") + w->name);
  }
  if (!committed) {
    // The first pass is the reference, so its own thrown cells count here.
    ck.attempted += untraced.front().failed;
    ck.failed += untraced.front().failed;
  }
  for (const auto& p : untraced) check_verdicts(p.verdicts, ref, "pass", ck);
  if (traced.empty())
    traced_check = run_pass(true, w->shape == Shape::Campaign ? 2 : 1);
  for (const auto& p : traced)
    check_verdicts(p.verdicts, ref, "traced pass", ck);
  if (traced_check)
    check_verdicts(traced_check->verdicts, ref, "traced check", ck);
  check_reference_engines(ctx, ref, ck);
  const double check_s = wall_now() - check_t0;
  fs::remove_all(run_dir);

  if (args.print_expected)
    for (const auto& v : untraced.front().verdicts)
      std::printf("    {\"%s\", \"%s\", %zu, %sull, 0x%06Xu},\n", w->name,
                  v.label.c_str(), v.missed, hex(v.digest).c_str(),
                  v.golden);

  // Host block.
  const auto& st = untraced.front().stats;
  std::printf(
      "{\"host\": {\"nproc\": %zu, \"threads\": %zu, \"simd\": \"%s\", "
      "\"lane_width\": %zu, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}}\n",
      nproc(), ctx.threads, common::simd_backend_name(st.simd), st.lane_width,
      json_escape(host_cpu_model()).c_str(), json_escape(compiler()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(args.commit).c_str());

  // Detail block: sample counts, the tail percentile, per-cell verdicts.
  std::vector<double> cells;
  for (const auto& p : untraced)
    cells.insert(cells.end(), p.cell_s.begin(), p.cell_s.end());
  auto series = [&](double PassResult::*f) {
    std::string out;
    for (const auto& p : untraced)
      out += std::string(out.empty() ? "" : ", ") + num(p.*f);
    return "[" + out + "]";
  };
  std::string verdicts;
  for (const auto& v : untraced.front().verdicts)
    verdicts += std::string(verdicts.empty() ? "" : ", ") + "\"" + v.label +
                "\": {\"missed\": " + std::to_string(v.missed) +
                ", \"digest\": \"" + hex(v.digest) + "\"}";
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"vectors\": %zu, \"passes\": %zu, \"traced_passes\": %zu, "
              "\"cells\": %zu, \"cell_tail\": {\"percentile\": %g, "
              "\"samples\": %zu}, \"pass_wall_s\": %s, \"pass_setup_s\": %s, "
              "\"pass_cpu_s\": %s, \"expected\": \"%s\", "
              "\"verdicts\": {%s}}}\n",
              w->name, (unsigned long long)args.seed, ctx.vectors,
              untraced.size(), traced.size(), cells.size(),
              w->tail_percentile, cells.size(),
              series(&PassResult::wall).c_str(),
              series(&PassResult::setup).c_str(),
              series(&PassResult::cpu).c_str(), committed ? "committed seed-1 table" : "first pass",
              verdicts.c_str());

  // Metrics.
  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
  auto med = [](const std::vector<PassResult>& ps, double PassResult::*f) {
    std::vector<double> v;
    for (const auto& p : ps) v.push_back(p.*f);
    return median(v);
  };
  if (args.trace == 0) {
    out.push_back({"wall_s", {med(untraced, &PassResult::wall), "s"}});
    out.push_back({"setup_s", {med(untraced, &PassResult::setup), "s"}});
    out.push_back({"cell_p50_s", {median(cells), "s"}});
    out.push_back(
        {"cell_tail_s", {percentile(cells, w->tail_percentile), "s"}});
    out.push_back({"cpu_s", {med(untraced, &PassResult::cpu), "s"}});
  } else {
    std::map<std::string, std::vector<double>> per;
    for (const auto& p : traced)
      for (const auto& [k, v] : layer_metrics(p, ctx.threads))
        per[k].push_back(v);
    const double overhead = med(traced, &PassResult::wall) -
                            med(untraced, &PassResult::wall);
    for (const auto& [name, unit] : kLayerMetrics) {
      const double v = std::strcmp(name, "trace.overhead_s") == 0
                           ? overhead
                           : median(per[name]);
      out.push_back({name, {v, unit}});
    }
    const fs::path spans_path =
        fs::path(args.workdir) /
        (std::string("spans-") + w->name + "-seed" +
         std::to_string(args.seed) + ".json");
    write_spans(spans_path, traced);
    std::fprintf(stderr, "perfbench: %zu traced passes, spans in %s\n",
                 traced.size(), spans_path.string().c_str());
  }

  // Short human summary on stderr.
  std::fprintf(stderr,
               "perfbench: %s seed %llu, %zu threads, %zu passes, %zu "
               "cells, %zu/%zu checks failed (checks took %.1f s)\n",
               w->name, (unsigned long long)args.seed, ctx.threads,
               untraced.size() + traced.size(), cells.size(), ck.failed,
               ck.attempted, check_s);
  for (const auto& [name, vu] : out)
    std::fprintf(stderr, "  %-24s %14.6f %s\n", name.c_str(), vu.first,
                 vu.second);

  std::string metrics;
  for (const auto& [name, vu] : out)
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
               vu.second + "\"}";
  const bool correct = ck.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<std::size_t>(ck.attempted, 1),
              ck.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
