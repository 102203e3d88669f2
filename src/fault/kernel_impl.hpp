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
    sim_.reset();
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
    const bool sig_on = sig.enabled() && signature != nullptr;
    if (sig_on) {
      collect_signature_nets(sim_.netlist(), sig,
                             trace != nullptr ? &cone_ : nullptr, sig_nets_);
      for (int b = 0; b < sig.width; ++b) sig_state_[b] = W::zero();
    }

    W detected = W::zero();
    std::size_t found = 0;
    std::size_t t = window.warm_from;
    while (t < window.end) {
      const std::size_t now = t++;
      if (trace != nullptr)
        sim_.step_cone(cone_, trace->row(now));
      else
        sim_.step_broadcast(stimulus[now]);
      if (sig_on) absorb_difference(sig);
      if (now < window.begin) continue; // warm-up: state not yet exact
      const W newly =
          (trace != nullptr
               ? sim_.cone_output_mismatch_wide(cone_, trace->row(now))
               : sim_.output_mismatch_wide()) &
          live & ~detected;
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
  /// One Galois MISR step of the difference register (bist/misr.hpp
  /// semantics, bit-sliced across lanes): shift, feed the carry back
  /// into the tap positions, then inject each output bit's XOR against
  /// the good machine. By GF(2) linearity the register holds exactly
  /// sig_faulty ^ sig_good per lane, so the seed never matters.
  void absorb_difference(const SignatureOptions& sig) {
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
    const std::size_t folds = sig_nets_.size() / std::size_t(deg);
    for (int b = 0; b < deg; ++b) {
      for (std::size_t j = 0; j < folds; ++j) {
        const gate::NetId net = sig_nets_[std::size_t(b) * folds + j];
        if (net == gate::kNoNet) continue; // provably equal to good
        const W& v = sim_.net_wide(net);
        sig_state_[b] ^= v ^ W::fill((v.word(0) & 1u) != 0);
      }
    }
  }

  gate::WordSimT<W> sim_;
  gate::CompiledSchedule::ConeWorkspace ws_;
  gate::CompiledSchedule::Cone cone_;
  std::vector<gate::NetId> sites_;
  std::vector<gate::NetId> sig_nets_;
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
