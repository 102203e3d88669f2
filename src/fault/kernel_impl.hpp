// Templated batch-kernel implementation, included by exactly one TU
// per ISA (kernel.cpp / kernel_avx2.cpp / kernel_avx512.cpp — see
// kernel.hpp for why the instantiations must not be shared). Anything
// that would instantiate std:: templates common to the rest of the
// build (vector growth, etc.) is delegated to the baseline-compiled
// helpers in kernel.cpp.
#pragma once

#include <bit>

#include "fault/kernel.hpp"

namespace fdbist::fault::detail {

template <int Words> class BatchWorkerT final : public BatchWorker {
public:
  using W = common::simd_word<Words>;

  explicit BatchWorkerT(const gate::CompiledSchedule& sched) : sim_(sched) {}

  /// One batch over a cycle window. Because every run starts from
  /// reset and the window's warm-up covers the settle depth, detection
  /// cycles are exact regardless of how faults are staged into batches,
  /// how many lanes a word carries, or how the budget is cut into
  /// windows.
  BatchRun run_batch(std::span<const Fault> faults,
                     std::span<const std::int64_t> stimulus,
                     std::span<const std::size_t> batch, CycleWindow window,
                     const gate::GoodTrace* trace, std::int32_t* detect,
                     const SignatureOptions& sig,
                     std::uint32_t* signature) override {
    sim_.clear_faults();
    // Faults may only land in the lanes this batch scans below.
    sim_.limit_lanes(batch.size() + 1);
    W live = W::zero();
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Fault& f = faults[batch[k]];
      const W mask = W::lane_bit(static_cast<int>(k + 1));
      sim_.add_fault(f.gate, f.site, f.stuck, mask);
      live |= mask;
      detect[k] = -1;
    }

    const bool sig_on = sig.enabled() && signature != nullptr;
    std::size_t gates_per_cycle = sim_.schedule().logic_gates();
    if (trace != nullptr) {
      collect_batch_sites(faults, batch, sites_);
      sim_.schedule().collect_cone(sites_, ws_, cone_);
      gates_per_cycle = cone_.gates.size();
    }
    // Difference-MISR state, one bit-sliced register slot per MISR bit.
    // Lane 0 carries the good machine (no fault masks it), so a net's
    // lane-0 bit broadcast is the good value under both engines and the
    // XOR against it is the per-lane difference stream.
    if (sig_on) {
      collect_signature_nets(sim_.netlist(), sig,
                             trace != nullptr ? &cone_ : nullptr, sig_ids_);
      for (int b = 0; b < sig.width; ++b) sig_state_[b] = W::zero();
    }
    if (trace != nullptr) {
      prog_.build(sim_.schedule(), cone_, sites_,
                  sig_on ? std::span(sig_ids_) : std::span<std::int32_t>());
      slots_.resize(prog_.slots);
      // Registers start from reset.
      std::fill_n(slots_.begin() + std::ptrdiff_t(cone_.boundary.size()),
                  cone_.regs.size(), W::zero());
      slots_[std::size_t(prog_.ones)] = W::ones();
    } else {
      sim_.reset();
    }

    W detected = W::zero();
    std::size_t found = 0;
    std::size_t t = window.warm_from;
    while (t < window.end) {
      const std::size_t now = t++;
      // Before window.begin the run is warming up: state not yet exact.
      const bool counted = now >= window.begin;
      W diff = W::zero();
      if (trace != nullptr) {
        run_program(trace->row(now));
        if (sig_on) absorb_difference(sig, slots_.data());
        if (counted)
          for (const std::int32_t o : prog_.outputs)
            diff |= differs(slots_[std::size_t(o)]);
        for (const ConeProgram::Move& m : prog_.latch)
          slots_[std::size_t(m.dst)] = slots_[std::size_t(m.src)];
      } else {
        sim_.step_broadcast(stimulus[now]);
        if (sig_on) absorb_difference(sig, sim_.values());
        if (counted) diff = sim_.output_mismatch_wide();
      }
      if (!counted) continue;
      const W newly = diff & live & ~detected;
      if (newly.none()) continue;
      detected |= newly;
      for (int wi = 0; wi < Words; ++wi) {
        std::uint64_t m = newly.word(wi);
        while (m != 0) {
          const int bit = std::countr_zero(m);
          m &= m - 1;
          const std::size_t lane = std::size_t(wi) * 64 + std::size_t(bit);
          detect[lane - 1] = static_cast<std::int32_t>(now);
          ++found;
        }
      }
      // Early exit would cut the MISR's absorption short, so signature
      // batches always run the full budget.
      if (!sig_on && found == batch.size()) break;
    }
    if (sig_on) {
      std::uint64_t rows[31 * Words];
      for (int b = 0; b < sig.width; ++b)
        for (int wi = 0; wi < Words; ++wi)
          rows[b * Words + wi] = sig_state_[b].word(wi);
      store_signature_words(batch, rows, Words, sig.width, signature);
    }
    return {t - window.warm_from, gates_per_cycle};
  }

private:
  /// A single gate's output, branch free (ConeProgram::Gate::op).
  static W apply(std::uint32_t op, const W& x, const W& y, const W (&mask)[2]) {
    return ((x & y) & mask[op & 1u]) ^ ((x ^ y) & mask[op >> 1]);
  }

  /// Lanes where `v` differs from lane 0, the good machine.
  static W differs(const W& v) { return v ^ W::fill((v.word(0) & 1u) != 0); }

  /// One cycle's combinational evaluation of the cone program: fill the
  /// boundary from the good trace row, then run the steps. Out-of-cone
  /// nets hold the good value and are never written.
  void run_program(const std::uint64_t* good_row) {
    W* const v = slots_.data();
    const std::size_t nb = cone_.boundary.size();
    for (std::size_t i = 0; i < nb; ++i)
      v[i] = gate::GoodTrace::broadcast_as<W>(good_row, cone_.boundary[i]);

    const W mask[2] = {W::zero(), W::ones()};
    const ConeProgram::Gate* gates = prog_.gates.data();
    const ConeProgram::Cell* cells = prog_.cells.data();
    const ConeProgram::Run* runs = prog_.runs.data();
    const ConeProgram::Faulty* faulty = prog_.faulty.data();
    for (const ConeProgram::Step& st : prog_.steps) {
      switch (st.kind) {
      case ConeProgram::StepKind::Gates:
        for (std::uint32_t i = st.begin; i < st.end; ++i) {
          const ConeProgram::Gate& g = gates[i];
          v[g.dst] = apply(g.op, v[g.a], v[g.b], mask);
        }
        break;
      case ConeProgram::StepKind::Runs:
        for (std::uint32_t i = st.begin; i < st.end; ++i) {
          const ConeProgram::Run& run = runs[i];
          W carry = v[run.carry_in];
          for (const ConeProgram::Cell* c = cells + run.first,
                                      * e = c + run.count;
               c != e; ++c) {
            const W a = v[c->a];
            const W b = v[c->b];
            const W x1 = a ^ b;
            v[c->sum] = x1 ^ carry;
            carry = (a & b) | (x1 & carry);
          }
          v[run.carry_out] = carry;
        }
        break;
      case ConeProgram::StepKind::Faulty:
        for (std::uint32_t i = st.begin; i < st.end; ++i) {
          const ConeProgram::Faulty& f = faulty[i];
          const auto& p = sim_.fault_plan(f.gate);
          const W x = (v[f.a] | p.set_a) & ~p.clr_a;
          const W y = (v[f.b] | p.set_b) & ~p.clr_b;
          v[f.dst] = (apply(f.op, x, y, mask) | p.set_o) & ~p.clr_o;
        }
        break;
      }
    }
  }

  /// One Galois MISR step of the difference register (bist/misr.hpp
  /// semantics, bit-sliced across lanes): shift, feed the carry back
  /// into the tap positions, then inject each output bit's XOR against
  /// the good machine. By GF(2) linearity the register holds exactly
  /// sig_faulty ^ sig_good per lane, so the seed never matters. `vals`
  /// is the engine's value array and sig_ids_ index it (nets for the
  /// full sweep, slots for the cone program; -1 where the output
  /// provably equals the good machine's).
  void absorb_difference(const SignatureOptions& sig, const W* vals) {
    const int deg = sig.width;
    const W carry = sig_state_[deg - 1];
    for (int b = deg - 1; b > 0; --b) sig_state_[b] = sig_state_[b - 1];
    sig_state_[0] = W::zero();
    std::uint32_t terms = sig.taps;
    while (terms != 0) {
      const int b = std::countr_zero(terms);
      terms &= terms - 1;
      sig_state_[b] ^= carry;
    }
    const std::size_t folds = sig_ids_.size() / std::size_t(deg);
    for (int b = 0; b < deg; ++b) {
      for (std::size_t j = 0; j < folds; ++j) {
        const std::int32_t id = sig_ids_[std::size_t(b) * folds + j];
        if (id < 0) continue;
        sig_state_[b] ^= differs(vals[id]);
      }
    }
  }

  gate::WordSimT<W> sim_;
  gate::CompiledSchedule::ConeWorkspace ws_;
  gate::CompiledSchedule::Cone cone_;
  ConeProgram prog_;
  std::vector<W> slots_;
  std::vector<gate::NetId> sites_;
  std::vector<std::int32_t> sig_ids_;
  W sig_state_[31] = {};
};

template <int Words> class BatchKernelT final : public BatchKernel {
public:
  explicit BatchKernelT(common::SimdBackend b) : backend_(b) {}
  std::size_t lanes() const override {
    return std::size_t(Words) * 64;
  }
  common::SimdBackend backend() const override { return backend_; }
  std::unique_ptr<BatchWorker>
  make_worker(const gate::CompiledSchedule& sched) const override {
    return std::make_unique<BatchWorkerT<Words>>(sched);
  }

private:
  common::SimdBackend backend_;
};

} // namespace fdbist::fault::detail
