#include "fault/kernel.hpp"

#include <algorithm>

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
}

void mark_signature_detects(std::span<const std::size_t> batch,
                            const std::uint64_t* nonzero_words,
                            std::uint8_t* signature_detect) {
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::size_t lane = k + 1;
    if ((nonzero_words[lane >> 6] >> (lane & 63)) & 1u)
      signature_detect[batch[k]] = 1;
  }
}

} // namespace fdbist::fault::detail
