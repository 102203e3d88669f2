#include "bist/misr.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "fault/simulator.hpp"
#include "gate/sim.hpp"

namespace fdbist::bist {

Misr::Misr(int width, std::uint32_t seed)
    : Misr(tpg::default_polynomial(width), seed) {}

Misr::Misr(tpg::Polynomial poly, std::uint32_t seed)
    : poly_(poly), seed_(seed & static_cast<std::uint32_t>(
                                    low_mask(poly.degree))),
      state_(seed_) {
  FDBIST_REQUIRE(poly_.degree >= 2 && poly_.degree <= 31,
                 "MISR width out of range");
}

void Misr::absorb(std::uint64_t word) {
  const auto mask = static_cast<std::uint32_t>(low_mask(poly_.degree));
  // Galois step (multiply by x) then inject the response word.
  const bool carry = (state_ >> (poly_.degree - 1)) & 1u;
  state_ = (state_ << 1) & mask;
  if (carry) state_ ^= poly_.low_terms;
  state_ ^= static_cast<std::uint32_t>(word) & mask;
}

void Misr::absorb_all(std::span<const std::int64_t> words) {
  for (const std::int64_t w : words)
    absorb(static_cast<std::uint64_t>(w));
}

std::vector<std::int64_t> golden_response(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus) {
  gate::WordSim sim(nl);
  const auto& out_bits = nl.outputs().front();
  std::vector<std::int64_t> out;
  out.reserve(stimulus.size());
  for (const std::int64_t x : stimulus) {
    sim.step_broadcast(x);
    out.push_back(sim.lane_value(out_bits, 0));
  }
  return out;
}

std::uint32_t golden_signature(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               const fault::FaultSimResult& run, int width) {
  // The compiled engine already ran the fault-free machine; its output
  // words give the golden signature without another sweep.
  Misr misr(width);
  if (run.good_outputs.empty())
    misr.absorb_all(golden_response(nl, stimulus));
  else
    misr.absorb_all(run.good_outputs);
  return misr.signature();
}

} // namespace fdbist::bist
