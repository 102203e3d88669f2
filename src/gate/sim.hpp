// Lane-parallel bit-parallel gate-level simulation.
//
// Every net holds one machine word — 64, 256 or 512 bits depending on
// the word type W (common/simd.hpp): one bit per simulated machine. For
// fault simulation, lane 0 is the fault-free machine and lanes 1..N-1
// carry one injected stuck-at fault each (the classic parallel fault
// simulation scheme, widened). Inputs are broadcast to all lanes;
// faults are forced with per-lane masks at specific gate pins.
//
// WordSimT<W> is a thin executor over a CompiledSchedule
// (gate/schedule.hpp): the schedule owns the immutable compiled form of
// the netlist (SoA gate arrays, fan-out CSR, cone extraction, adder
// cells) and is shared read-only across simulator instances; the
// executor owns only mutable per-machine state (net values, register
// state, the injected fault plan). Its sweep, step_broadcast, evaluates
// the full netlist. The fault kernel's cone sweep runs a per-batch cone
// program instead (fault/kernel.hpp), which takes its fault plan from
// here: add_fault validates and stores the pin masks, and fault_plan
// hands them out.
//
// Wide instantiations (W wider than one limb) are confined to the
// per-ISA kernel TUs in src/fault/ — see the header comment in
// common/simd.hpp for why. Everything else uses WordSim, the 64-lane
// scalar instantiation with the historical std::uint64_t surface.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/simd.hpp"
#include "gate/netlist.hpp"
#include "gate/schedule.hpp"

namespace fdbist::gate {

/// Which pin of a gate a stuck-at fault is attached to.
enum class PinSite : std::uint8_t { Output, InputA, InputB };

const char* pin_site_name(PinSite s);

template <class W> class WordSimT {
public:
  using Word = W;

  /// Compile-and-own convenience: builds a private CompiledSchedule.
  explicit WordSimT(const Netlist& nl)
      : owned_(std::make_shared<CompiledSchedule>(nl)), sched_(*owned_),
        nl_(nl), values_(nl.size(), W::zero()),
        reg_state_(nl.registers().size(), W::zero()),
        fault_slot_(nl.size(), -1) {}

  /// Share an existing schedule (must outlive the simulator). This is
  /// the cheap path for worker pools: one compilation, many executors.
  explicit WordSimT(const CompiledSchedule& schedule)
      : sched_(schedule), nl_(schedule.netlist()),
        values_(nl_.size(), W::zero()),
        reg_state_(nl_.registers().size(), W::zero()),
        fault_slot_(nl_.size(), -1) {}

  /// Clear all register state (and nothing else).
  void reset() {
    std::fill(values_.begin(), values_.end(), W::zero());
    std::fill(reg_state_.begin(), reg_state_.end(), W::zero());
  }

  /// Remove all injected faults (and release their lanes).
  void clear_faults() {
    for (const NetId gid : fault_gates_) fault_slot_[std::size_t(gid)] = -1;
    fault_gates_.clear();
    plans_.clear();
    injected_lanes_ = W::zero();
  }

  /// Restrict add_fault to lanes [0, lanes): masks reaching further are
  /// rejected. Batches shorter than a full word set this so a stray
  /// mask can never plant a fault in a lane the kernel will not scan.
  /// Must be called with no faults injected; the limit persists across
  /// clear_faults until set again.
  void limit_lanes(std::size_t lanes) {
    FDBIST_REQUIRE(lanes >= 1 && lanes <= std::size_t(W::kLanes),
                   "active lane count out of range for this word width");
    FDBIST_REQUIRE(injected_lanes_.none(),
                   "cannot change the active lane count with faults injected");
    active_lanes_ = lanes;
  }

  std::size_t active_lanes() const { return active_lanes_; }

  /// Force `gate`'s `site` pin to `stuck` (0/1) in the lanes of `mask`.
  /// The gate must be a combinational logic gate, the mask non-empty,
  /// within the active lane count, and disjoint from every previously
  /// injected fault's lanes — one lane simulates one machine, so
  /// overlapping masks would silently merge two faults into an
  /// unintended multi-fault machine. clear_faults() releases the lanes.
  void add_fault(NetId gid, PinSite site, int stuck, const W& mask) {
    FDBIST_REQUIRE(gid >= 0 && std::size_t(gid) < nl_.size(),
                   "fault gate id out of range");
    const GateOp op = nl_.gate(gid).op;
    FDBIST_REQUIRE(op == GateOp::Not || op == GateOp::And ||
                       op == GateOp::Or || op == GateOp::Xor,
                   "faults can only be injected on logic gates");
    if (site == PinSite::InputB)
      FDBIST_REQUIRE(op != GateOp::Not, "NOT gates have no second input");
    FDBIST_REQUIRE(mask.any(), "fault mask selects no lanes");
    FDBIST_REQUIRE(std::size_t(mask.highest_lane()) < active_lanes_,
                   "fault mask selects lanes beyond the active lane count");
    FDBIST_REQUIRE((mask & injected_lanes_).none(),
                   "fault mask overlaps a previously injected fault's lanes "
                   "(one lane carries one fault; clear_faults() to reuse)");

    std::int32_t& slot = fault_slot_[std::size_t(gid)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(plans_.size());
      plans_.emplace_back();
      fault_gates_.push_back(gid);
    }
    PinMasks& p = plans_[std::size_t(slot)];
    switch (site) {
    case PinSite::InputA: (stuck != 0 ? p.set_a : p.clr_a) |= mask; break;
    case PinSite::InputB: (stuck != 0 ? p.set_b : p.clr_b) |= mask; break;
    case PinSite::Output: (stuck != 0 ? p.set_o : p.clr_o) |= mask; break;
    }
    injected_lanes_ |= mask;
  }

  /// One clock: drive each RTL input with a raw word broadcast to all
  /// lanes, evaluate combinational logic, then latch registers.
  void step_broadcast(std::span<const std::int64_t> input_raws) {
    FDBIST_REQUIRE(input_raws.size() == nl_.inputs().size(),
                   "wrong number of input words");
    // Drive primary inputs (broadcast each bit to all lanes).
    for (std::size_t g = 0; g < input_raws.size(); ++g) {
      const auto& group = nl_.inputs()[g];
      const auto raw = static_cast<std::uint64_t>(input_raws[g]);
      for (std::size_t j = 0; j < group.size(); ++j)
        values_[std::size_t(group[j])] = W::fill(((raw >> j) & 1u) != 0);
    }
    // Present register state.
    const auto& regs = nl_.registers();
    for (std::size_t r = 0; r < regs.size(); ++r)
      values_[std::size_t(regs[r].q)] = reg_state_[r];

    // Evaluate combinational gates in topological order over the
    // schedule's SoA arrays.
    const GateOp* ops = sched_.ops();
    const NetId* as = sched_.operand_a();
    const NetId* bs = sched_.operand_b();
    const std::int32_t* slot = fault_slot_.data();
    const std::size_t n = sched_.size();
    W* vals = values_.data();
    for (std::size_t i = 0; i < n; ++i) {
      W v;
      switch (ops[i]) {
      case GateOp::Not: v = ~vals[as[i]]; break;
      case GateOp::And: v = vals[as[i]] & vals[bs[i]]; break;
      case GateOp::Or: v = vals[as[i]] | vals[bs[i]]; break;
      case GateOp::Xor: v = vals[as[i]] ^ vals[bs[i]]; break;
      case GateOp::Const0: v = W::zero(); break;
      case GateOp::Const1: v = W::ones(); break;
      case GateOp::Input:
      case GateOp::RegOut:
        continue; // already driven above
      default: v = W::zero(); break;
      }
      if (slot[i] >= 0) [[unlikely]]
        v = eval_faulty(i);
      vals[i] = v;
    }

    // Latch.
    for (std::size_t r = 0; r < regs.size(); ++r)
      reg_state_[r] = values_[std::size_t(regs[r].d)];
  }

  void step_broadcast(std::int64_t input_raw) {
    step_broadcast({&input_raw, 1});
  }

  /// Lanes whose observed outputs differ from lane 0 this cycle (bit 0
  /// of the result is always 0).
  W output_mismatch_wide() const {
    W diff = W::zero();
    for (const auto& group : nl_.outputs()) {
      for (const NetId o : group) {
        const W& w = values_[std::size_t(o)];
        diff |= w ^ W::fill((w.word(0) & 1u) != 0);
      }
    }
    return diff;
  }

  /// Word value of a net.
  const W& net_wide(NetId id) const { return values_[std::size_t(id)]; }

  /// Every net's word, indexed by NetId.
  const W* values() const { return values_.data(); }

  /// Assemble the signed value seen by `lane` on a bit group (LSB
  /// first).
  std::int64_t lane_value(const std::vector<NetId>& bit_nets,
                          int lane) const {
    FDBIST_REQUIRE(lane >= 0 && lane < W::kLanes, "lane out of range");
    std::uint64_t raw = 0;
    for (std::size_t j = 0; j < bit_nets.size(); ++j)
      raw |= std::uint64_t{values_[std::size_t(bit_nets[j])].lane(lane)} << j;
    return sign_extend(raw, static_cast<int>(bit_nets.size()));
  }

  const Netlist& netlist() const { return nl_; }
  const CompiledSchedule& schedule() const { return sched_; }

  /// Dense per-gate fault plan: set/clear words per pin, applied inline
  /// in the clock loop with no hash lookup. The disjoint-lane rule in
  /// add_fault makes set/clear accumulation order-independent.
  struct PinMasks {
    W set_a = W::zero(), clr_a = W::zero();
    W set_b = W::zero(), clr_b = W::zero();
    W set_o = W::zero(), clr_o = W::zero();
  };

  /// The pin masks of a gate that carries an injected fault.
  const PinMasks& fault_plan(NetId gid) const {
    return plans_[std::size_t(fault_slot_[std::size_t(gid)])];
  }

private:
  W eval_faulty(std::size_t i) const {
    const PinMasks& p = fault_plan(static_cast<NetId>(i));
    const NetId na = sched_.operand_a()[i];
    const NetId nb = sched_.operand_b()[i];
    W va = na != kNoNet ? values_[std::size_t(na)] : W::zero();
    W vb = nb != kNoNet ? values_[std::size_t(nb)] : W::zero();
    va = (va | p.set_a) & ~p.clr_a;
    vb = (vb | p.set_b) & ~p.clr_b;
    W v = W::zero();
    switch (sched_.ops()[i]) {
    case GateOp::Not: v = ~va; break;
    case GateOp::And: v = va & vb; break;
    case GateOp::Or: v = va | vb; break;
    case GateOp::Xor: v = va ^ vb; break;
    default: FDBIST_ASSERT(false, "fault on non-logic gate");
    }
    return (v | p.set_o) & ~p.clr_o;
  }

  std::shared_ptr<const CompiledSchedule> owned_; ///< null when sharing
  const CompiledSchedule& sched_;
  const Netlist& nl_;
  std::vector<W> values_;
  std::vector<W> reg_state_;
  std::vector<std::int32_t> fault_slot_; ///< net -> plan index, -1 = clean
  std::vector<PinMasks> plans_;
  std::vector<NetId> fault_gates_; ///< nets with a plan (for clear_faults)
  W injected_lanes_ = W::zero();
  std::size_t active_lanes_ = std::size_t(W::kLanes);
};

/// The 64-lane scalar instantiation, with the historical std::uint64_t
/// surface every non-kernel consumer (serial oracle, golden response,
/// tests) is written against.
class WordSim : public WordSimT<common::simd_word<1>> {
public:
  using Base = WordSimT<common::simd_word<1>>;
  using Base::Base;

  void add_fault(NetId gid, PinSite site, int stuck, std::uint64_t mask) {
    Base::add_fault(gid, site, stuck, common::simd_word<1>::from_word0(mask));
  }

  std::uint64_t output_mismatch() const {
    return output_mismatch_wide().word(0);
  }

  std::uint64_t net(NetId id) const { return net_wide(id).word(0); }
};

/// Simulate the fault-free machine over `stimulus[0, cycles)` (single
/// primary input, as in the fault engine) and record every net's value
/// each cycle, bit-packed. The trace is immutable afterwards and shared
/// read-only by every cone-restricted batch of a fault-simulation call.
///
/// Lanes are time segments, not machines. With S = ceil(cycles / 64),
/// lane k of one 64-lane sweep simulates cycles [kS, kS + S): lane 0
/// from reset, lane k+1 from lane k's end state in the previous sweep
/// (reset on the first). Sweeps repeat until a sweep's end states,
/// shifted up one lane, equal the start states it used, over the lanes
/// that hold cycles. Then every segment began from its exact state —
/// lane 0 by construction, lane k+1 because lane k ended exactly — so
/// that sweep is the sequential trace. One more sweep from the same
/// start states is recorded, each step's lane words going through a
/// 64x64 bit transpose straight into trace rows, so nothing beyond one
/// step of net words is held next to the trace. Each sweep makes at
/// least one more lane exact, so at most 64 sweeps run before the
/// recorded one; a datapath that forgets its initial state within S
/// cycles (an FIR, and in practice the IIR cascade's quantized
/// feedback) reaches the fixed point in two.
GoodTrace record_good_trace(const CompiledSchedule& schedule,
                            std::span<const std::int64_t> stimulus,
                            std::size_t cycles);

} // namespace fdbist::gate
