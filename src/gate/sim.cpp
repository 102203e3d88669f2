#include "gate/sim.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace fdbist::gate {

namespace {

/// Transpose a 64x64 bit matrix in place: afterwards bit c of a[r] is
/// what bit r of a[c] was. Six block-swap stages (32, 16, ..., 1).
void transpose_64x64(std::uint64_t (&a)[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j)
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
}

} // namespace

const char* pin_site_name(PinSite s) {
  switch (s) {
  case PinSite::Output: return "out";
  case PinSite::InputA: return "inA";
  case PinSite::InputB: return "inB";
  }
  return "?";
}

GoodTrace record_good_trace(const CompiledSchedule& schedule,
                            std::span<const std::int64_t> stimulus,
                            std::size_t cycles) {
  FDBIST_REQUIRE(cycles <= stimulus.size(),
                 "good trace longer than the stimulus");
  const Netlist& nl = schedule.netlist();
  FDBIST_REQUIRE(nl.inputs().size() == 1, "wrong number of input words");
  const std::vector<NetId>& in_bits = nl.inputs().front();
  FDBIST_REQUIRE(in_bits.size() <= 64, "input wider than a stimulus word");
  const std::size_t n = schedule.size();
  const std::size_t wpc = (n + 63) / 64;
  GoodTrace trace;
  trace.words_per_cycle = wpc;
  trace.cycles = cycles;
  trace.bits.assign(wpc * cycles, 0);
  if (cycles == 0) return trace;

  const std::size_t seg = (cycles + 63) / 64;
  const std::size_t lanes = (cycles + seg - 1) / seg; // lanes holding cycles
  // Lane 0 always starts from reset; lanes past the stimulus hold no
  // cycles and must not keep the fixed point from closing.
  const std::uint64_t checked = low_mask(int(lanes)) & ~std::uint64_t{1};

  // Input bit j of step i as a lane word: lane k carries bit j of
  // stimulus[k * seg + i].
  const std::size_t in_w = in_bits.size();
  std::vector<std::uint64_t> drive(seg * in_w);
  std::uint64_t block[64];
  for (std::size_t i = 0; i < seg; ++i) {
    for (std::size_t k = 0; k < 64; ++k) {
      const std::size_t t = k * seg + i;
      block[k] = t < cycles ? static_cast<std::uint64_t>(stimulus[t]) : 0;
    }
    transpose_64x64(block);
    std::copy_n(block, in_w, drive.begin() + std::ptrdiff_t(i * in_w));
  }

  const auto& regs = nl.registers();
  const GateOp* ops = schedule.ops();
  const NetId* as = schedule.operand_a();
  const NetId* bs = schedule.operand_b();
  std::vector<std::uint64_t> start(regs.size(), 0);
  std::vector<std::uint64_t> state(regs.size());
  std::vector<std::uint64_t> vals(n, 0);
  // One sweep from `start`: S clocks of all 64 segments at once, ending
  // with each segment's end state in `state`. When recording, step i's
  // net words are transposed into the rows of the cycles it simulated.
  auto sweep = [&](bool record) {
    state = start;
    std::uint64_t* const v = vals.data();
    for (std::size_t i = 0; i < seg; ++i) {
      const std::uint64_t* in = drive.data() + i * in_w;
      for (std::size_t j = 0; j < in_w; ++j) v[in_bits[j]] = in[j];
      for (std::size_t r = 0; r < regs.size(); ++r)
        v[regs[r].q] = state[r];
      for (std::size_t g = 0; g < n; ++g) {
        switch (ops[g]) {
        case GateOp::Not: v[g] = ~v[as[g]]; break;
        case GateOp::And: v[g] = v[as[g]] & v[bs[g]]; break;
        case GateOp::Or: v[g] = v[as[g]] | v[bs[g]]; break;
        case GateOp::Xor: v[g] = v[as[g]] ^ v[bs[g]]; break;
        case GateOp::Const0: v[g] = 0; break;
        case GateOp::Const1: v[g] = ~std::uint64_t{0}; break;
        case GateOp::Input:
        case GateOp::RegOut: break; // driven above
        }
      }
      for (std::size_t r = 0; r < regs.size(); ++r)
        state[r] = v[regs[r].d];
      if (!record) continue;
      for (std::size_t w = 0; w < wpc; ++w) {
        const std::size_t lim = std::min<std::size_t>(64, n - w * 64);
        std::copy_n(v + w * 64, lim, block);
        std::fill(block + lim, block + 64, std::uint64_t{0});
        transpose_64x64(block);
        for (std::size_t k = 0; k < lanes; ++k) {
          const std::size_t t = k * seg + i;
          if (t < cycles) trace.bits[t * wpc + w] = block[k];
        }
      }
    }
  };

  // Sweep until the end states, shifted up one lane, reproduce the
  // start states; then every segment began exactly, and one more sweep
  // from those states is the sequential trace.
  for (bool exact = false; !exact;) {
    sweep(false);
    exact = true;
    for (std::size_t r = 0; r < regs.size(); ++r) {
      const std::uint64_t next = state[r] << 1; // lane 0 restarts at reset
      if (((next ^ start[r]) & checked) != 0) exact = false;
      start[r] = next;
    }
  }
  sweep(true);
  return trace;
}

} // namespace fdbist::gate
