#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "rtl/sim.hpp"

namespace fdbist::verify {

namespace {

std::string describe_mutation(const gate::Netlist& nl, std::int32_t index) {
  std::vector<gate::NetId> two_input;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::GateOp op = nl.gate(static_cast<gate::NetId>(i)).op;
    if (op == gate::GateOp::And || op == gate::GateOp::Or ||
        op == gate::GateOp::Xor)
      two_input.push_back(static_cast<gate::NetId>(i));
  }
  if (two_input.empty()) return "no two-input gate to mutate";
  const gate::NetId target =
      two_input[std::size_t(index) % two_input.size()];
  return "mutated gate n" + std::to_string(target) + " (" +
         gate::gate_op_name(nl.gate(target).op) + ")";
}

/// Trace equality: the segment-parallel recorder's row for `cycle` must
/// hold, for every net, the value the lane-0 sweep `ws` just computed.
Finding diff_trace_row(const gate::GoodTrace& trace, const gate::WordSim& ws,
                       std::size_t cycle) {
  const std::uint64_t* row = trace.row(cycle);
  for (std::size_t i = 0; i < ws.netlist().size(); ++i) {
    const auto id = static_cast<gate::NetId>(i);
    const std::uint64_t got = gate::GoodTrace::broadcast(row, id);
    if (got != ws.net(id))
      return Finding::fail("good-trace: net n" + std::to_string(i) +
                           " cycle " + std::to_string(cycle) +
                           ": recorder=" + std::to_string(got & 1u) +
                           " lane-0 sweep=" + std::to_string(ws.net(id) & 1u));
  }
  return Finding::ok();
}

} // namespace

bool apply_gate_mutation(gate::Netlist& nl, std::int32_t index) {
  if (index < 0) return false;
  std::vector<gate::NetId> two_input;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::GateOp op = nl.gate(static_cast<gate::NetId>(i)).op;
    if (op == gate::GateOp::And || op == gate::GateOp::Or ||
        op == gate::GateOp::Xor)
      two_input.push_back(static_cast<gate::NetId>(i));
  }
  if (two_input.empty()) return false;
  const gate::NetId target =
      two_input[std::size_t(index) % two_input.size()];
  // Netlist has no gate-rewrite API by design; rebuild it with one op
  // flipped. Everything else (operands, origins, registers, io) copies
  // verbatim, so the mutant differs from the original in exactly one
  // gate function — the shape of a kernel miscompilation.
  gate::Netlist mutant;
  for (std::size_t i = 0; i < nl.size(); ++i) {
    const gate::Gate& g = nl.gate(static_cast<gate::NetId>(i));
    gate::GateOp op = g.op;
    if (static_cast<gate::NetId>(i) == target) {
      op = op == gate::GateOp::And
               ? gate::GateOp::Or
               : (op == gate::GateOp::Or ? gate::GateOp::Xor
                                         : gate::GateOp::And);
    }
    mutant.add_gate(op, g.a, g.b, nl.origin(static_cast<gate::NetId>(i)));
  }
  mutant.registers() = nl.registers();
  mutant.inputs() = nl.inputs();
  mutant.outputs() = nl.outputs();
  nl = std::move(mutant);
  return true;
}

Finding check_rtl_case(const RtlCase& c) {
  const rtl::Graph g = build_graph(c);
  auto low = gate::lower(g);
  const bool mutated = apply_gate_mutation(low.netlist, c.mutate);
  if (c.mutate >= 0 && !mutated)
    return Finding::ok(); // nothing to mutate — vacuously consistent

  rtl::Simulator rs(g);
  const gate::CompiledSchedule sched(low.netlist);
  gate::WordSim ws(sched);
  const auto stim = driven_stimulus(c);
  const auto trace = gate::record_good_trace(sched, stim, stim.size());
  for (std::size_t cycle = 0; cycle < stim.size(); ++cycle) {
    rs.step(stim[cycle]);
    ws.step_broadcast(stim[cycle]);
    if (auto f = diff_trace_row(trace, ws, cycle)) return f;
    for (const rtl::NodeId out : g.outputs()) {
      const std::int64_t want = rs.raw(out);
      const std::int64_t got =
          ws.lane_value(low.node_bits[std::size_t(out)], 0);
      if (got != want) {
        std::ostringstream os;
        os << "rtl-vs-gate: node " << out << " cycle " << cycle
           << ": rtl=" << want << " gate=" << got;
        if (mutated)
          os << " [" << describe_mutation(low.netlist, c.mutate) << "]";
        return Finding::fail(os.str());
      }
    }
  }
  if (mutated)
    return Finding::fail(
        "mutation escaped: " + describe_mutation(low.netlist, c.mutate) +
        " never diverged at an observed output");
  return Finding::ok();
}

Finding check_stats_invariants(const fault::FaultSimResult& r,
                               fault::FaultSimEngine requested,
                               std::size_t fault_count,
                               std::size_t vectors) {
  auto fail = [](const std::string& d) {
    return Finding::fail("stats: " + d);
  };
  if (requested != fault::FaultSimEngine::Auto &&
      r.stats.engine != requested)
    return fail(std::string("engine tag is ") +
                fault_sim_engine_name(r.stats.engine) + ", requested " +
                fault_sim_engine_name(requested));
  if (r.stats.engine == fault::FaultSimEngine::Auto)
    return fail("result carries the unresolved Auto engine tag");
  if (r.total_faults != fault_count)
    return fail("total_faults " + std::to_string(r.total_faults) +
                " != " + std::to_string(fault_count));
  if (r.detect_cycle.size() != fault_count ||
      r.finalized.size() != fault_count)
    return fail("verdict arrays not sized to the fault universe");

  std::size_t detected = 0;
  for (std::size_t i = 0; i < fault_count; ++i) {
    const std::int32_t c = r.detect_cycle[i];
    if (c >= 0) {
      ++detected;
      if (static_cast<std::size_t>(c) >= vectors)
        return fail("fault " + std::to_string(i) + " detect cycle " +
                    std::to_string(c) + " beyond the " +
                    std::to_string(vectors) + "-vector stimulus");
      if (r.finalized[i] == 0)
        return fail("fault " + std::to_string(i) +
                    " detected but not finalized");
    }
  }
  if (detected != r.detected)
    return fail("detected " + std::to_string(r.detected) + " != " +
                std::to_string(detected) + " non-negative detect cycles");
  if (r.complete && r.finalized_count() != fault_count)
    return fail("complete result with unfinalized faults");

  const auto& s = r.stats;
  if (s.lane_width != 64 && s.lane_width != 256 && s.lane_width != 512)
    return fail("lane width " + std::to_string(s.lane_width) +
                " is not a known backend width");
  if (s.simd == common::SimdBackend::Auto)
    return fail("result carries the unresolved Auto SIMD backend tag");
  // Each batch carries at most lane_width-1 faults (lane 0 is the good
  // machine), so a complete run needs at least this many batches.
  const std::size_t fpb = s.lane_width - 1;
  if (fault_count > 0 && s.batches < (fault_count + fpb - 1) / fpb)
    return fail("fewer batches than the fault universe requires at " +
                std::to_string(s.lane_width) + " lanes");
  if (s.cycles_budgeted < s.cycles_simulated)
    return fail("simulated more cycles than budgeted");
  if (s.gates_evaluated > s.gates_full_sweep)
    return fail("evaluated more gates than a full sweep would");
  if (s.engine == fault::FaultSimEngine::FullSweep &&
      s.gates_evaluated != s.gates_full_sweep)
    return fail("full-sweep engine skipped gate evaluations");
  // Only compiled word-compare passes split batches into time
  // segments; everything else steps exactly cycles_simulated.
  if ((s.engine == fault::FaultSimEngine::FullSweep ||
       !r.signature_detect.empty()) &&
      s.segment_overhead_cycles != 0)
    return fail(std::to_string(s.segment_overhead_cycles) +
                " segment overhead cycles on a run that never segments");
  if (s.mean_cone_fraction() <= 0.0 || s.mean_cone_fraction() > 1.0)
    return fail("mean cone fraction outside (0, 1]");
  if (s.engine == fault::FaultSimEngine::Compiled &&
      s.good_trace_cycles == 0 && s.cycles_simulated > 0)
    return fail("compiled engine recorded no good trace");
  // One good-machine recording per call: a compiled run that compiled
  // its own schedule records the full budget exactly once, and every
  // pass reads it.
  if (s.engine == fault::FaultSimEngine::Compiled &&
      s.schedule_compilations == 1 && fault_count > 0 &&
      s.good_trace_cycles != vectors)
    return fail("compiled run recorded " +
                std::to_string(s.good_trace_cycles) +
                " good-trace cycles for a " + std::to_string(vectors) +
                "-vector stimulus (one full-budget recording per call)");
  return Finding::ok();
}

std::vector<fault::Fault> select_faults(
    const std::vector<std::uint32_t>& indices,
    const std::vector<fault::Fault>& universe) {
  std::vector<fault::Fault> out;
  if (universe.empty()) return out;
  if (indices.empty()) { // stride fallback spanning several batches
    for (std::size_t i = 0; i < universe.size(); i += 7)
      out.push_back(universe[i]);
    return out;
  }
  std::unordered_set<std::size_t> seen;
  for (const std::uint32_t idx : indices) {
    const std::size_t j = idx % universe.size();
    if (seen.insert(j).second) out.push_back(universe[j]);
  }
  return out;
}

namespace {

Finding diff_verdicts(const fault::FaultSimResult& a, const char* a_name,
                      const fault::FaultSimResult& b, const char* b_name) {
  if (a.detect_cycle.size() != b.detect_cycle.size())
    return Finding::fail(std::string("engine-diff: ") + a_name + " has " +
                         std::to_string(a.detect_cycle.size()) +
                         " verdicts, " + b_name + " has " +
                         std::to_string(b.detect_cycle.size()));
  for (std::size_t i = 0; i < a.detect_cycle.size(); ++i)
    if (a.detect_cycle[i] != b.detect_cycle[i])
      return Finding::fail(std::string("engine-diff: fault ") +
                           std::to_string(i) + ": " + a_name + " cycle " +
                           std::to_string(a.detect_cycle[i]) + ", " +
                           b_name + " cycle " +
                           std::to_string(b.detect_cycle[i]));
  if (a.detected != b.detected)
    return Finding::fail(std::string("engine-diff: detected counts ") +
                         std::to_string(a.detected) + " vs " +
                         std::to_string(b.detected));
  return Finding::ok();
}

} // namespace

Finding check_filter_case(const FilterCase& c) {
  const rtl::FilterDesign d = build_filter(c);
  auto low = gate::lower(d.graph);
  const auto stim = filter_stimulus(c);

  // Row 1: RTL behavioural vs gate-level, word-for-word at the output,
  // and the recorded good trace vs the same lane-0 sweep, net for net.
  {
    rtl::Simulator rs(d.graph);
    const gate::CompiledSchedule sched(low.netlist);
    gate::WordSim ws(sched);
    const auto trace = gate::record_good_trace(sched, stim, stim.size());
    const rtl::NodeId out = d.graph.outputs().front();
    // Row 2: the linear model's worst-case amplitude bound must hold at
    // the output every cycle (L1 bound plus accumulated truncation).
    const auto& lin = d.linear[std::size_t(d.output)];
    const double bound =
        lin.l1_bound + lin.trunc_slack + d.graph.node(d.output).fmt.lsb();
    for (std::size_t cycle = 0; cycle < stim.size(); ++cycle) {
      rs.step(stim[cycle]);
      ws.step_broadcast(stim[cycle]);
      if (auto f = diff_trace_row(trace, ws, cycle)) return f;
      const std::int64_t want = rs.raw(out);
      const std::int64_t got =
          ws.lane_value(low.node_bits[std::size_t(out)], 0);
      if (got != want)
        return Finding::fail("filter rtl-vs-gate: cycle " +
                             std::to_string(cycle) + ": rtl=" +
                             std::to_string(want) + " gate=" +
                             std::to_string(got));
      const double y = std::abs(rs.real(d.output));
      if (y > bound)
        return Finding::fail("linear-model: |y|=" + std::to_string(y) +
                             " exceeds L1 bound " + std::to_string(bound) +
                             " at cycle " + std::to_string(cycle));
    }
  }

  // Rows 3-5: fault-verdict differential across engines and slicings.
  const auto universe = fault::order_for_simulation(
      fault::enumerate_adder_faults(low), low.netlist, d.graph);
  const auto faults = select_faults(c.fault_indices, universe);
  if (faults.empty()) return Finding::ok();

  gate::Netlist compiled_nl = low.netlist;
  if (c.mutate >= 0 && !apply_gate_mutation(compiled_nl, c.mutate))
    return Finding::ok();

  fault::FaultSimOptions full;
  full.num_threads = 1;
  full.engine = fault::FaultSimEngine::FullSweep;
  const auto ref = simulate_faults(low.netlist, stim, faults, full);
  if (auto f = check_stats_invariants(ref, full.engine, faults.size(),
                                      stim.size()))
    return f;

  fault::FaultSimOptions cone;
  cone.num_threads = 1;
  cone.engine = fault::FaultSimEngine::Compiled;
  const auto alt = simulate_faults(compiled_nl, stim, faults, cone);
  if (auto f = check_stats_invariants(alt, cone.engine, faults.size(),
                                      stim.size()))
    return f;
  if (auto f = diff_verdicts(ref, "FullSweep", alt, "Compiled")) return f;
  if (c.mutate >= 0)
    return Finding::fail("mutation escaped: Compiled engine agreed with "
                         "FullSweep despite a mutated netlist");

  // Row 5: a sliced campaign (the checkpoint/resume execution shape,
  // in-memory) must reproduce the one-shot verdicts exactly, and do the
  // one-shot Compiled run's work: its slices are the checkpoint's unit,
  // not the kernel's, so it runs one simulate_faults call with one
  // schedule compilation and one good trace.
  fault::CampaignOptions copt;
  copt.num_threads = 1;
  copt.engine = fault::FaultSimEngine::Compiled;
  copt.checkpoint_every = 16; // several slices of a 40-fault sample
  auto camp = run_campaign(low.netlist, stim, faults, copt);
  if (!camp)
    return Finding::fail("campaign: unexpected error " +
                         camp.error().to_string());
  if (!camp->sim.complete)
    return Finding::fail("campaign: stopped early with no deadline/cancel");
  const fault::FaultSimStats& cs = camp->sim.stats;
  const fault::FaultSimStats& os = alt.stats;
  if (cs.schedule_compilations != 1 || cs.good_trace_cycles != stim.size())
    return Finding::fail(
        "campaign: prepared " + std::to_string(cs.schedule_compilations) +
        " schedules and traced " + std::to_string(cs.good_trace_cycles) +
        " cycles for a " + std::to_string(stim.size()) +
        "-vector stimulus; a campaign prepares once");
  if (cs.batches != os.batches || cs.cycles_simulated != os.cycles_simulated ||
      cs.cycles_budgeted != os.cycles_budgeted ||
      cs.segment_overhead_cycles != os.segment_overhead_cycles ||
      cs.gates_evaluated != os.gates_evaluated ||
      cs.gates_full_sweep != os.gates_full_sweep ||
      cs.cone_fraction_sum != os.cone_fraction_sum)
    return Finding::fail(
        "campaign: ran " + std::to_string(cs.batches) + " batches over " +
        std::to_string(cs.gates_evaluated) + " gate evaluations where the "
        "one-shot run took " + std::to_string(os.batches) + " over " +
        std::to_string(os.gates_evaluated) +
        "; a campaign must run the one-shot pass plan");
  return diff_verdicts(ref, "one-shot", camp->sim, "sliced-campaign");
}

} // namespace fdbist::verify
