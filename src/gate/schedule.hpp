// Compiled simulation IR for gate-level netlists.
//
// A CompiledSchedule is an immutable, per-Netlist compilation artifact
// built once and shared read-only across any number of simulator
// instances (and therefore across fault-simulation worker threads):
//
//   * SoA gate arrays (op / operand-a / operand-b) so the clock-loop
//     sweep streams three flat arrays instead of an array-of-structs.
//   * A fan-out CSR: for every net, the gates that read it, plus the
//     register D->Q edge — the structural successor relation *closed
//     through registers*, which is what fault effects propagate along
//     across clock cycles.
//   * Cone extraction: the transitive structural fan-out cone of a set
//     of fault sites. A batch of faults can only perturb the union of
//     its cones; everything outside the union is guaranteed to hold the
//     good-machine value in every lane, so the fault kernel's per-batch
//     cone program (fault/kernel.hpp) evaluates only in-cone gates and
//     reads the rest from a recorded good trace.
//   * Full-adder cells: every five-gate ripple-carry cell whose inner
//     gates are private to it, and the carry links that chain cells
//     into ripple-carry runs. The cone program evaluates a run of
//     fault-free cells with the carry held in a register.
//   * Settle depth: how many cycles the netlist takes to forget its
//     start state, or none when registers form a cycle.
//
// Cones are extracted per batch (one graph walk over the CSR), not
// precomputed per site: per-site cone storage is quadratic in netlist
// size for the deep accumulation chains of transposed-form filters,
// while the per-batch walk costs less than a single simulated cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gate/netlist.hpp"

namespace fdbist::gate {

/// Bit-packed fault-free net values, one row per simulated cycle.
/// Row t holds the value every net carried *during* cycle t's
/// combinational evaluation (register outputs hold pre-edge state).
/// Recorded by gate::record_good_trace; consumed by the cone-restricted
/// executor as the source of out-of-cone operand values.
struct GoodTrace {
  std::size_t words_per_cycle = 0;
  std::size_t cycles = 0;
  std::vector<std::uint64_t> bits; ///< cycles x words_per_cycle

  const std::uint64_t* row(std::size_t t) const {
    return bits.data() + t * words_per_cycle;
  }

  /// Good value of net `id` in a row, broadcast to all 64 lanes.
  static std::uint64_t broadcast(const std::uint64_t* row, NetId id) {
    const auto i = std::size_t(id);
    return ((row[i >> 6] >> (i & 63)) & 1u) ? ~std::uint64_t{0}
                                            : std::uint64_t{0};
  }

  /// Same, broadcast into an arbitrary-width simulation word (the trace
  /// itself is always one bit per net per cycle — only the executor's
  /// lane count widens).
  template <class W>
  static W broadcast_as(const std::uint64_t* row, NetId id) {
    const auto i = std::size_t(id);
    return W::fill(((row[i >> 6] >> (i & 63)) & 1u) != 0);
  }

  /// Bytes needed for `cycles` rows over `nets` nets (overflow-safe for
  /// the int32-bounded stimulus lengths the fault engine accepts).
  static std::size_t bytes_needed(std::size_t nets, std::size_t cycles) {
    return ((nets + 63) / 64) * cycles * sizeof(std::uint64_t);
  }
};

class CompiledSchedule {
public:
  /// Compiles (and validates) the netlist. The netlist must outlive the
  /// schedule; the schedule itself is immutable after construction and
  /// safe to share across threads.
  explicit CompiledSchedule(const Netlist& nl);

  const Netlist& netlist() const { return nl_; }
  std::size_t size() const { return n_; }
  std::size_t logic_gates() const { return logic_gates_; }

  /// SoA views of the gate array, index == NetId.
  const GateOp* ops() const { return op_.data(); }
  const NetId* operand_a() const { return a_.data(); }
  const NetId* operand_b() const { return b_.data(); }

  /// Structural successors of net `id`: every gate reading it as an
  /// operand, plus the Q net of any register whose D pin it drives
  /// (the closure-through-registers edge).
  std::span<const NetId> fanout(NetId id) const {
    const auto i = std::size_t(id);
    return {fan_.data() + fan_start_[i],
            std::size_t(fan_start_[i + 1] - fan_start_[i])};
  }

  /// Register index whose Q output is net `id`, or -1.
  std::int32_t register_of(NetId id) const { return reg_of_[std::size_t(id)]; }

  /// True if net `id` is an observed primary-output bit.
  bool is_observed_output(NetId id) const {
    return is_output_[std::size_t(id)] != 0;
  }

  /// The longest register path through the netlist: the most D->Q
  /// edges on any path of the fan-out CSR (inputs and constants start
  /// at 0). From cycle D on, every net's value depends only on the
  /// stimulus of the last D cycles, not on the state the run started
  /// from. A stuck-at fault only cuts edges, so a faulty machine
  /// forgets at least as fast. Empty when registers form a cycle
  /// (feedback never forgets); 0 for a netlist without registers.
  std::optional<std::size_t> settle_depth() const { return settle_depth_; }

  /// A full-adder cell: five consecutive logic gates
  ///   x1 = a ^ b, s = x1 ^ c, a1 = a & b, a2 = x1 & c, cout = a1 | a2
  /// (gate ids x1 .. x1 + 4, operands in either order) whose x1, a1 and
  /// a2 are read only inside the cell and are not observed outputs, so
  /// the cell is fully described by (a, b, c) -> (s, cout). Cells that
  /// lowering's structural hashing shares with another adder fail that
  /// rule and stay plain gates.
  struct AdderCell {
    NetId x1 = kNoNet;
    NetId a = kNoNet;
    NetId b = kNoNet;
    NetId c = kNoNet;
    /// The cell whose carry-in is this cell's cout, when that cout is
    /// read by nothing but the next cell's s and a2 and every earlier
    /// sum of the chain is read only after the next cell (so a whole
    /// chain can be evaluated at the position of its last cell); -1
    /// otherwise.
    std::int32_t next = -1;

    NetId sum() const { return x1 + 1; }
    NetId carry_out() const { return x1 + 4; }
  };

  /// Every full-adder cell, ascending x1.
  std::span<const AdderCell> adder_cells() const { return cells_; }

  /// Index into adder_cells() of the cell holding gate `id`, or -1.
  std::int32_t cell_of(NetId id) const { return cell_of_[std::size_t(id)]; }

  /// The union of structural fan-out cones of a batch of fault sites,
  /// decomposed into exactly what the cone-restricted executor needs.
  struct Cone {
    /// In-cone combinational logic gates, ascending id (= topological)
    /// order — the restricted evaluation schedule.
    std::vector<NetId> gates;
    /// Registers whose Q net is in the cone: their state is perturbed
    /// and must be simulated per lane.
    std::vector<std::int32_t> regs;
    /// Out-of-cone nets read by in-cone gates; their lanes all carry
    /// the good-machine value, pre-filled from the trace each cycle.
    std::vector<NetId> boundary;
    /// Observed output nets inside the cone — the only outputs that can
    /// ever mismatch the good machine for this batch.
    std::vector<NetId> outputs;

    void clear() {
      gates.clear();
      regs.clear();
      boundary.clear();
      outputs.clear();
    }
  };

  /// Reusable per-worker scratch for collect_cone (epoch-stamped marks,
  /// so repeated collections never reallocate or clear O(n) state).
  class ConeWorkspace {
  public:
    ConeWorkspace() = default;

  private:
    friend class CompiledSchedule;
    std::vector<std::uint32_t> in_cone_;
    std::vector<std::uint32_t> on_boundary_;
    std::vector<NetId> stack_;
    std::uint32_t epoch_ = 0;
  };

  /// Collect the fan-out cone union of `sites` (gate ids of the faulty
  /// gates; a fault on any pin perturbs that gate's output). Closed
  /// transitively through registers via the D->Q edges baked into the
  /// fan-out CSR. `out` is cleared first.
  void collect_cone(std::span<const NetId> sites, ConeWorkspace& ws,
                    Cone& out) const;

private:
  /// One topological (Kahn) walk over the CSR.
  void compute_settle_depth();
  /// One scan for the five-gate pattern, then the carry links.
  void find_adder_cells();

  const Netlist& nl_;
  std::size_t n_ = 0;
  std::size_t logic_gates_ = 0;
  std::optional<std::size_t> settle_depth_;
  std::vector<GateOp> op_;
  std::vector<NetId> a_;
  std::vector<NetId> b_;
  std::vector<std::int32_t> fan_start_; ///< CSR offsets, size n+1
  std::vector<NetId> fan_;              ///< CSR adjacency
  std::vector<std::int32_t> reg_of_;    ///< Q net -> register index, else -1
  std::vector<std::uint8_t> is_output_;
  std::vector<AdderCell> cells_;
  std::vector<std::int32_t> cell_of_; ///< net -> cell index, else -1
};

} // namespace fdbist::gate
