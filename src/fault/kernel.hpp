// Width-dispatched batch kernels for the fault simulator.
//
// The batch loop in fault/simulator.cpp is width-agnostic: it talks to
// an abstract BatchWorker whose concrete instantiation fixes the
// simulation word (common/simd.hpp). One virtual call per *batch* —
// hundreds of simulated cycles — so the dispatch cost is noise while
// the gate-evaluation inner loops compile as non-virtual, fully inlined
// code inside exactly one translation unit per ISA:
//
//   kernel.cpp        simd_word<1>,  64 lanes,  baseline flags
//   kernel_avx2.cpp   simd_word<4>, 256 lanes,  -mavx2
//   kernel_avx512.cpp simd_word<8>, 512 lanes,  -mavx512f
//
// Confining each wide instantiation to its own TU (and keeping the
// shared std:: template instantiations out of the ISA TUs via the
// helpers below) is what makes it safe to build the AVX-512 kernel into
// a binary that must still run on machines without AVX-512: no COMDAT
// the linker could resolve to an ISA-tainted copy is emitted there.
//
// Backend resolution (per simulate_faults call): an explicit non-Auto
// request wins, then the FDBIST_SIMD environment override, then the
// widest backend that is both compiled in and supported by the CPU.
// An unavailable request degrades to the best available backend rather
// than failing — verdicts are bit-identical at every width, so the
// choice is purely a throughput matter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd.hpp"
#include "fault/simulator.hpp"
#include "gate/schedule.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault::detail {

/// The cycles one batch run covers: it simulates from reset at
/// `warm_from` and counts output mismatches as detections only in
/// [begin, end). With warm_from = begin - D (D = the settle depth,
/// gate::CompiledSchedule::settle_depth) every net holds its exact
/// sequential value from `begin` on, so a run over [begin, end)
/// detects exactly what the whole-budget run detects in that window.
struct CycleWindow {
  std::size_t warm_from = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// What one run_batch call did.
struct BatchRun {
  /// Cycles stepped, warm-up included.
  std::size_t stepped = 0;
  /// Logic gates evaluated per cycle (the cone, or the whole netlist).
  std::size_t gates_per_cycle = 0;
};

/// Per-worker batch executor. One instance per worker thread; the
/// compiled schedule is shared read-only.
class BatchWorker {
public:
  virtual ~BatchWorker() = default;

  /// One batch of `batch.size()` faults (at most lanes-1) over
  /// `window`. Sets detect[k] to batch member k's first detection cycle
  /// within [window.begin, window.end), or -1, and stops early once
  /// every member has one. `trace` selects the engine: non-null runs
  /// the cone-restricted compiled sweep, null the full-netlist
  /// reference sweep. When `sig.enabled()` (and `signature` non-null),
  /// the batch also runs a bit-sliced difference MISR per lane — the
  /// window must then be the whole budget from reset, and early exit is
  /// suppressed so every lane absorbs all of it — and writes batch
  /// member k's final difference word (faulty ^ good signature, bit b =
  /// MISR bit b) to signature[batch[k]].
  virtual BatchRun run_batch(std::span<const Fault> faults,
                             std::span<const std::int64_t> stimulus,
                             std::span<const std::size_t> batch,
                             CycleWindow window,
                             const gate::GoodTrace* trace,
                             std::int32_t* detect,
                             const SignatureOptions& sig,
                             std::uint32_t* signature) = 0;
};

/// Factory + geometry for one backend.
class BatchKernel {
public:
  virtual ~BatchKernel() = default;
  virtual std::size_t lanes() const = 0;
  virtual common::SimdBackend backend() const = 0;
  virtual std::unique_ptr<BatchWorker>
  make_worker(const gate::CompiledSchedule& sched) const = 0;

  /// Lane 0 is the good machine.
  std::size_t faults_per_batch() const { return lanes() - 1; }
};

/// True when the backend's kernel TU was compiled into this binary.
bool kernel_available(common::SimdBackend b);

/// Resolve a request (possibly Auto) to a concrete backend that is
/// compiled in and CPU-supported. Never returns Auto.
common::SimdBackend resolve_simd_backend(common::SimdBackend requested);

/// Kernel for a resolved backend (degrades to the best available one
/// if the request cannot run here).
const BatchKernel& batch_kernel(common::SimdBackend resolved);

// --- helpers compiled with baseline flags (kernel.cpp), so the ISA TUs
// --- never instantiate shared std::vector machinery themselves.

/// sites = the batch's fault gates (cone roots), in batch order.
void collect_batch_sites(std::span<const Fault> faults,
                         std::span<const std::size_t> batch,
                         std::vector<gate::NetId>& sites);

/// The output-to-MISR wiring, the one register definition. A register
/// at least as wide as the output word absorbs the sign-extended word,
/// as bist::Misr::absorb does: MISR bits out_w .. width-1 take the sign
/// bit. A narrower one folds (XORs) output bit o into MISR bit o mod
/// width, so it still observes every response bit — without folding, a
/// fault visible only in the truncated upper bits would alias
/// unconditionally, and the measured aliasing could never honor the
/// 2 + 64*N*2^-w expectation. The result is laid out as width rows of
/// ceil(out_w/width) fold entries: sig_nets[b*folds + j] = the output
/// bit MISR bit b absorbs in fold j, or gate::kNoNet where none exists.
/// With a cone (compiled engine), out-of-cone output nets provably hold
/// the good value — their difference is identically zero — and also
/// map to gate::kNoNet.
void collect_signature_nets(const gate::Netlist& nl,
                            const SignatureOptions& sig,
                            const gate::CompiledSchedule::Cone* cone,
                            std::vector<gate::NetId>& sig_nets);

/// Transpose the difference register's `width` bit-sliced rows (row b
/// holds MISR bit b of every lane, `row_words` words per row): batch
/// member k's word, bit b = MISR bit b, goes to signature[batch[k]].
void store_signature_words(std::span<const std::size_t> batch,
                           const std::uint64_t* rows, std::size_t row_words,
                           int width, std::uint32_t* signature);

// Defined in the per-ISA TUs; null accessors exist only behind the
// FDBIST_KERNEL_* macros CMake sets when the flags are available.
const BatchKernel* scalar_batch_kernel();
#if defined(FDBIST_KERNEL_AVX2)
const BatchKernel* avx2_batch_kernel();
#endif
#if defined(FDBIST_KERNEL_AVX512)
const BatchKernel* avx512_batch_kernel();
#endif

} // namespace fdbist::fault::detail
