#include "gate/schedule.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fdbist::gate {

CompiledSchedule::CompiledSchedule(const Netlist& nl) : nl_(nl), n_(nl.size()) {
  nl_.validate();

  op_.resize(n_);
  a_.resize(n_);
  b_.resize(n_);
  const auto& gates = nl_.gates();
  for (std::size_t i = 0; i < n_; ++i) {
    op_[i] = gates[i].op;
    a_[i] = gates[i].a;
    b_[i] = gates[i].b;
    switch (gates[i].op) {
    case GateOp::Not:
    case GateOp::And:
    case GateOp::Or:
    case GateOp::Xor: ++logic_gates_; break;
    default: break;
    }
  }

  // Fan-out CSR over the successor relation fault effects follow:
  // operand edges a->g, b->g and the register D->Q edge (closure through
  // registers). Two-pass counting sort keeps each adjacency list in
  // ascending target order.
  reg_of_.assign(n_, -1);
  const auto& regs = nl_.registers();
  for (std::size_t r = 0; r < regs.size(); ++r)
    reg_of_[std::size_t(regs[r].q)] = static_cast<std::int32_t>(r);

  fan_start_.assign(n_ + 1, 0);
  auto count_edge = [&](NetId src) {
    if (src != kNoNet) ++fan_start_[std::size_t(src) + 1];
  };
  for (std::size_t i = 0; i < n_; ++i) {
    count_edge(a_[i]);
    count_edge(b_[i]);
  }
  for (const RegBit& r : regs) count_edge(r.d);
  for (std::size_t i = 0; i < n_; ++i) fan_start_[i + 1] += fan_start_[i];

  fan_.resize(std::size_t(fan_start_[n_]));
  std::vector<std::int32_t> cursor(fan_start_.begin(), fan_start_.end() - 1);
  auto put_edge = [&](NetId src, NetId dst) {
    if (src != kNoNet) fan_[std::size_t(cursor[std::size_t(src)]++)] = dst;
  };
  for (std::size_t i = 0; i < n_; ++i) {
    put_edge(a_[i], static_cast<NetId>(i));
    put_edge(b_[i], static_cast<NetId>(i));
  }
  for (const RegBit& r : regs) put_edge(r.d, r.q);
  for (std::size_t i = 0; i < n_; ++i)
    std::sort(fan_.begin() + fan_start_[i], fan_.begin() + fan_start_[i + 1]);

  is_output_.assign(n_, 0);
  for (const auto& group : nl_.outputs())
    for (const NetId o : group) is_output_[std::size_t(o)] = 1;
  compute_settle_depth();
  find_adder_cells();
}

void CompiledSchedule::find_adder_cells() {
  cell_of_.assign(n_, -1);
  // Gate g reads exactly {x, y}, in either order.
  auto reads = [&](NetId g, NetId x, NetId y) {
    const auto i = std::size_t(g);
    return (a_[i] == x && b_[i] == y) || (a_[i] == y && b_[i] == x);
  };
  // Net `id` is not observed and feeds exactly `readers` (ascending),
  // which rules out register D pins too: they are fan-out edges.
  auto feeds_only = [&](NetId id, std::initializer_list<NetId> readers) {
    const auto f = fanout(id);
    return !is_observed_output(id) &&
           std::equal(f.begin(), f.end(), readers.begin(), readers.end());
  };
  for (std::size_t i = 0; i + 4 < n_; ++i) {
    if (op_[i] != GateOp::Xor || op_[i + 1] != GateOp::Xor ||
        op_[i + 2] != GateOp::And || op_[i + 3] != GateOp::And ||
        op_[i + 4] != GateOp::Or)
      continue;
    const auto x1 = static_cast<NetId>(i);
    const NetId s = x1 + 1, a1 = x1 + 2, a2 = x1 + 3, cout = x1 + 4;
    const NetId c = a_[i + 1] == x1 ? b_[i + 1] : a_[i + 1];
    if (c == x1 || !reads(s, x1, c) || !reads(a1, a_[i], b_[i]) ||
        !reads(a2, x1, c) || !reads(cout, a1, a2))
      continue;
    if (!feeds_only(x1, {s, a2}) || !feeds_only(a1, {cout}) ||
        !feeds_only(a2, {cout}))
      continue;
    const auto k = static_cast<std::int32_t>(cells_.size());
    cells_.push_back({x1, a_[i], b_[i], c, -1});
    std::fill_n(cell_of_.begin() + std::ptrdiff_t(i), 5, k);
    i += 4;
  }

  // Carry links: cell j's carry-in is cell k's cout and feeds nothing
  // else. x1 ids grow along a link, so the links form simple chains.
  std::vector<std::uint8_t> linked(cells_.size(), 0);
  for (std::size_t j = 0; j < cells_.size(); ++j) {
    const AdderCell& cell = cells_[j];
    const std::int32_t k = cell_of(cell.c);
    if (k < 0 || cells_[std::size_t(k)].carry_out() != cell.c ||
        !feeds_only(cell.c, {cell.sum(), cell.x1 + 3}))
      continue;
    cells_[std::size_t(k)].next = static_cast<std::int32_t>(j);
    linked[j] = 1;
  }
  // A chain is evaluated where its last cell sits, so every sum it
  // stores must be read only by gates after that cell. Walk each chain
  // from its head and cut the link that would break this.
  auto first_gate_reader = [&](NetId id) {
    for (const NetId r : fanout(id))
      if (op_[std::size_t(r)] != GateOp::RegOut) return r;
    return static_cast<NetId>(n_);
  };
  for (std::size_t head = 0; head < cells_.size(); ++head) {
    if (linked[head]) continue;
    NetId reader = first_gate_reader(cells_[head].sum());
    for (std::size_t k = head; cells_[k].next >= 0;) {
      const auto j = std::size_t(cells_[k].next);
      if (reader <= cells_[j].x1) {
        cells_[k].next = -1;
        reader = static_cast<NetId>(n_);
      }
      reader = std::min(reader, first_gate_reader(cells_[j].sum()));
      k = j;
    }
  }
}

void CompiledSchedule::compute_settle_depth() {
  // Kahn's algorithm: a net is visited once all its predecessors are,
  // so its depth is final when it leaves the queue. Only edges into a
  // RegOut net are D->Q edges; they add one cycle.
  std::vector<std::int32_t> pending(n_, 0);
  for (const NetId dst : fan_) ++pending[std::size_t(dst)];
  std::vector<std::size_t> depth(n_, 0);
  std::vector<NetId> ready;
  for (std::size_t i = 0; i < n_; ++i)
    if (pending[i] == 0) ready.push_back(static_cast<NetId>(i));
  std::size_t visited = 0;
  std::size_t deepest = 0;
  while (!ready.empty()) {
    const NetId g = ready.back();
    ready.pop_back();
    ++visited;
    const std::size_t d = depth[std::size_t(g)];
    deepest = std::max(deepest, d);
    for (const NetId succ : fanout(g)) {
      const auto s = std::size_t(succ);
      depth[s] = std::max(depth[s], d + (reg_of_[s] >= 0 ? 1 : 0));
      if (--pending[s] == 0) ready.push_back(succ);
    }
  }
  // Nets left unvisited sit on or behind a cycle, and every cycle
  // passes through a register (combinational gates are in topological
  // order).
  if (visited == n_) settle_depth_ = deepest;
}

void CompiledSchedule::collect_cone(std::span<const NetId> sites,
                                    ConeWorkspace& ws, Cone& out) const {
  out.clear();
  if (ws.in_cone_.size() != n_) {
    ws.in_cone_.assign(n_, 0);
    ws.on_boundary_.assign(n_, 0);
    ws.epoch_ = 0;
  }
  ++ws.epoch_;
  if (ws.epoch_ == 0) { // stamp wrap: invalidate all stale marks
    std::fill(ws.in_cone_.begin(), ws.in_cone_.end(), 0u);
    std::fill(ws.on_boundary_.begin(), ws.on_boundary_.end(), 0u);
    ws.epoch_ = 1;
  }
  const std::uint32_t epoch = ws.epoch_;

  // DFS over the fan-out CSR. Register D->Q edges are ordinary edges
  // here, which is exactly the "closed transitively through registers"
  // reachability: a perturbed D pin perturbs next-cycle state, which
  // perturbs everything reading Q, and so on to a fixpoint.
  std::vector<NetId>& stack = ws.stack_;
  stack.clear();
  for (const NetId s : sites) {
    FDBIST_ASSERT(s >= 0 && std::size_t(s) < n_, "cone site out of range");
    if (ws.in_cone_[std::size_t(s)] == epoch) continue;
    ws.in_cone_[std::size_t(s)] = epoch;
    stack.push_back(s);
  }
  std::vector<NetId> members;
  members.reserve(stack.size());
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    members.push_back(g);
    for (const NetId succ : fanout(g)) {
      if (ws.in_cone_[std::size_t(succ)] == epoch) continue;
      ws.in_cone_[std::size_t(succ)] = epoch;
      stack.push_back(succ);
    }
  }
  std::sort(members.begin(), members.end());

  // Decompose: logic gates form the restricted evaluation schedule (in
  // topological = ascending-id order), in-cone RegOut nets name the
  // registers whose state must be simulated per lane, and out-of-cone
  // operands of in-cone gates form the good-trace boundary.
  for (const NetId g : members) {
    const auto i = std::size_t(g);
    switch (op_[i]) {
    case GateOp::Not:
    case GateOp::And:
    case GateOp::Or:
    case GateOp::Xor: {
      out.gates.push_back(g);
      auto note_boundary = [&](NetId src) {
        if (src == kNoNet || ws.in_cone_[std::size_t(src)] == epoch ||
            ws.on_boundary_[std::size_t(src)] == epoch)
          return;
        ws.on_boundary_[std::size_t(src)] = epoch;
        out.boundary.push_back(src);
      };
      note_boundary(a_[i]);
      note_boundary(b_[i]);
      break;
    }
    case GateOp::RegOut: {
      // Reached only via its D->Q edge, so its register's D net is in
      // the cone too and the per-lane latch has a perturbed source.
      FDBIST_ASSERT(reg_of_[i] >= 0, "RegOut net without a register");
      out.regs.push_back(reg_of_[i]);
      break;
    }
    default:
      FDBIST_ASSERT(false, "cone reached a gate with no structural driver");
    }
    if (is_output_[i]) out.outputs.push_back(g);
  }
}

} // namespace fdbist::gate
