#include "fault/kernel.hpp"

#include <algorithm>

#include "common/check.hpp"

#include "fault/kernel_impl.hpp"

namespace fdbist::fault::detail {

const BatchKernel* scalar_batch_kernel() {
  static const BatchKernelT<1> k(common::SimdBackend::Scalar);
  return &k;
}

bool kernel_available(common::SimdBackend b) {
  switch (b) {
  case common::SimdBackend::Auto:
  case common::SimdBackend::Scalar: return true;
  case common::SimdBackend::Avx2:
#if defined(FDBIST_KERNEL_AVX2)
    return true;
#else
    return false;
#endif
  case common::SimdBackend::Avx512:
#if defined(FDBIST_KERNEL_AVX512)
    return true;
#else
    return false;
#endif
  }
  return false;
}

namespace {

bool runnable(common::SimdBackend b) {
  return kernel_available(b) && common::cpu_supports(b);
}

common::SimdBackend widest_runnable() {
  if (runnable(common::SimdBackend::Avx512)) return common::SimdBackend::Avx512;
  if (runnable(common::SimdBackend::Avx2)) return common::SimdBackend::Avx2;
  return common::SimdBackend::Scalar;
}

/// Degrade an unrunnable request to the next-narrower runnable backend
/// (verdicts are width-independent, so this is purely a perf matter).
common::SimdBackend degrade(common::SimdBackend b) {
  if (b == common::SimdBackend::Avx512 && !runnable(b))
    b = common::SimdBackend::Avx2;
  if (b == common::SimdBackend::Avx2 && !runnable(b))
    b = common::SimdBackend::Scalar;
  return b;
}

} // namespace

common::SimdBackend resolve_simd_backend(common::SimdBackend requested) {
  if (requested != common::SimdBackend::Auto) return degrade(requested);
  const common::SimdBackend env = common::simd_backend_from_env();
  if (env != common::SimdBackend::Auto) return degrade(env);
  return widest_runnable();
}

const BatchKernel& batch_kernel(common::SimdBackend resolved) {
  switch (degrade(resolved)) {
  case common::SimdBackend::Avx512:
#if defined(FDBIST_KERNEL_AVX512)
    return *avx512_batch_kernel();
#else
    break;
#endif
  case common::SimdBackend::Avx2:
#if defined(FDBIST_KERNEL_AVX2)
    return *avx2_batch_kernel();
#else
    break;
#endif
  default: break;
  }
  return *scalar_batch_kernel();
}

void collect_batch_sites(std::span<const Fault> faults,
                         std::span<const std::size_t> batch,
                         std::vector<gate::NetId>& sites) {
  sites.clear();
  sites.reserve(batch.size());
  for (const std::size_t idx : batch) sites.push_back(faults[idx].gate);
}

void ConeProgram::build(const gate::CompiledSchedule& sched,
                        const gate::CompiledSchedule::Cone& cone,
                        std::span<const gate::NetId> sites,
                        std::span<std::int32_t> sig_ids) {
  steps.clear();
  gates.clear();
  cells.clear();
  runs.clear();
  faulty.clear();
  latch.clear();
  outputs.clear();
  if (slot_of_.size() != sched.size()) {
    slot_of_.assign(sched.size(), -1);
    faulty_.assign(sched.size(), 0);
  }

  // Slot layout: boundary nets, in-cone register outputs, cone gates,
  // the all-ones slot.
  const auto& regs = sched.netlist().registers();
  std::int32_t next = 0;
  for (const gate::NetId net : cone.boundary) slot_of_[std::size_t(net)] = next++;
  for (const std::int32_t r : cone.regs)
    slot_of_[std::size_t(regs[std::size_t(r)].q)] = next++;
  const std::int32_t first_gate = next;
  for (const gate::NetId g : cone.gates) slot_of_[std::size_t(g)] = next++;
  ones = next++;
  slots = std::size_t(next);
  for (const gate::NetId g : sites) faulty_[std::size_t(g)] = 1;
  defined_.assign(slots, 0);
  std::fill_n(defined_.begin(), first_gate, std::uint8_t{1});
  defined_[std::size_t(ones)] = 1;

  auto use = [&](gate::NetId net) {
    const std::int32_t s = net == gate::kNoNet ? -1 : slot_of_[std::size_t(net)];
    FDBIST_ASSERT(s >= 0 && std::size_t(s) < slots && defined_[std::size_t(s)],
                  "cone program reads a slot before it is written");
    return s;
  };
  auto def = [&](gate::NetId net) {
    const std::int32_t s = slot_of_[std::size_t(net)];
    FDBIST_ASSERT(s >= first_gate && s < ones, "cone program writes a non-gate slot");
    defined_[std::size_t(s)] = 1;
    return s;
  };
  auto step = [&](StepKind kind, std::size_t index) {
    if (steps.empty() || steps.back().kind != kind)
      steps.push_back({kind, std::uint32_t(index), std::uint32_t(index)});
    ++steps.back().end;
  };

  const auto adder = sched.adder_cells();
  // A cell joins a run when all five gates are in the cone and none
  // carries a fault of this batch.
  auto runnable = [&](std::int32_t k) {
    if (k < 0) return false;
    const gate::NetId x1 = adder[std::size_t(k)].x1;
    for (gate::NetId g = x1; g < x1 + 5; ++g)
      if (slot_of_[std::size_t(g)] < first_gate || faulty_[std::size_t(g)])
        return false;
    return true;
  };

  const gate::GateOp* ops = sched.ops();
  const gate::NetId* as = sched.operand_a();
  const gate::NetId* bs = sched.operand_b();
  for (const gate::NetId g : cone.gates) {
    const std::int32_t k = sched.cell_of(g);
    if (runnable(k)) {
      const auto& cell = adder[std::size_t(k)];
      // Gates inside a run's cells are the run's; the run sits at its
      // last cell.
      if (g != cell.x1 || runnable(cell.next)) continue;
      chain_.clear();
      for (std::int32_t c = k;;) {
        chain_.push_back(c);
        const std::int32_t p = sched.cell_of(adder[std::size_t(c)].c);
        if (p < 0 || adder[std::size_t(p)].next != c || !runnable(p)) break;
        c = p;
      }
      const std::int32_t carry_in = use(adder[std::size_t(chain_.back())].c);
      const auto first = std::uint32_t(cells.size());
      for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
        const auto& c = adder[std::size_t(*it)];
        cells.push_back({use(c.a), use(c.b), def(c.sum())});
      }
      runs.push_back({carry_in, def(cell.carry_out()), first,
                      std::uint32_t(chain_.size())});
      step(StepKind::Runs, runs.size() - 1);
      continue;
    }
    const auto i = std::size_t(g);
    std::uint32_t op = 0;
    switch (ops[i]) {
    case gate::GateOp::And: op = 1; break;
    case gate::GateOp::Not:
    case gate::GateOp::Xor: op = 2; break;
    case gate::GateOp::Or: op = 3; break;
    default: FDBIST_ASSERT(false, "cone gate is not a logic gate");
    }
    // NOT reads the all-ones slot as its second operand; add_fault
    // puts no mask on a NOT's second pin.
    const std::int32_t a = use(as[i]);
    const std::int32_t b = ops[i] == gate::GateOp::Not ? ones : use(bs[i]);
    if (faulty_[i]) {
      faulty.push_back({def(g), a, b, op, g});
      step(StepKind::Faulty, faulty.size() - 1);
    } else {
      gates.push_back({def(g), a, b, op});
      step(StepKind::Gates, gates.size() - 1);
    }
  }

  // The latch. Register r's output is slot nb + r. A register that no
  // other in-cone register reads as its D latches first, followed down
  // the registers it reads for as long as each has no reader left. A
  // ring of registers with no gate between them would be left over,
  // but no gate reaches such a ring, so no cone holds one.
  const std::size_t nb = cone.boundary.size();
  const std::size_t nr = cone.regs.size();
  d_slot_.resize(nr);
  reads_.assign(nr, -1);
  readers_.assign(nr, 0);
  for (std::size_t r = 0; r < nr; ++r) {
    d_slot_[r] = use(regs[std::size_t(cone.regs[r])].d);
    const std::size_t q = std::size_t(d_slot_[r]);
    if (q >= nb && q < nb + nr) {
      reads_[r] = std::int32_t(q - nb);
      ++readers_[q - nb];
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    for (std::size_t x = r; readers_[x] == 0;) {
      latch.push_back({std::int32_t(nb + x), d_slot_[x]});
      readers_[x] = -1; // latched
      if (reads_[x] < 0) break;
      x = std::size_t(reads_[x]);
      --readers_[x];
    }
  }
  FDBIST_ASSERT(latch.size() == nr, "cone holds a ring of registers");
  for (const gate::NetId o : cone.outputs) outputs.push_back(use(o));
  for (std::int32_t& id : sig_ids)
    if (id != gate::kNoNet) id = use(id);

  for (const gate::NetId net : cone.boundary) slot_of_[std::size_t(net)] = -1;
  for (const std::int32_t r : cone.regs)
    slot_of_[std::size_t(regs[std::size_t(r)].q)] = -1;
  for (const gate::NetId g : cone.gates) slot_of_[std::size_t(g)] = -1;
  for (const gate::NetId g : sites) faulty_[std::size_t(g)] = 0;
}

void collect_signature_nets(const gate::Netlist& nl,
                            const SignatureOptions& sig,
                            const gate::CompiledSchedule::Cone* cone,
                            std::vector<gate::NetId>& sig_nets) {
  const auto& group = nl.outputs().front();
  const std::size_t out_w = group.size();
  const std::size_t width = std::size_t(sig.width);
  const std::size_t folds = (out_w + width - 1) / width;
  sig_nets.assign(width * folds, gate::kNoNet);
  for (std::size_t o = 0; o < out_w; ++o) {
    const gate::NetId net = group[o];
    if (cone != nullptr &&
        std::find(cone->outputs.begin(), cone->outputs.end(), net) ==
            cone->outputs.end())
      continue;
    sig_nets[(o % width) * folds + o / width] = net;
  }
  if (out_w == 0 || width <= out_w) return;
  // Sign extension: one fold entry per row here, so row b is entry b.
  for (std::size_t b = out_w; b < width; ++b)
    sig_nets[b] = sig_nets[out_w - 1];
}

void store_signature_words(std::span<const std::size_t> batch,
                           const std::uint64_t* rows, std::size_t row_words,
                           int width, std::uint32_t* signature) {
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t lane = k + 1;
    const std::uint64_t* limb = rows + (lane >> 6);
    std::uint32_t word = 0;
    for (int b = 0; b < width; ++b) {
      const std::uint64_t row = limb[std::size_t(b) * row_words];
      word |= std::uint32_t((row >> (lane & 63)) & 1u) << b;
    }
    signature[batch[k]] = word;
  }
}

} // namespace fdbist::fault::detail
