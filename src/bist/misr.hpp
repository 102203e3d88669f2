// Multiple-input signature register (response compactor).
//
// The paper assumes no aliasing in the response analyzer; this MISR lets
// users opt into realistic compaction. It computes golden signatures;
// per-fault signature verdicts come from the fault kernel's difference
// MISR (fault::FaultSimOptions::signature), which implements the same
// register.
#pragma once

#include <cstdint>
#include <span>

#include "tpg/lfsr.hpp"

namespace fdbist::bist {

class Misr {
public:
  /// `width` >= the widest response word to be absorbed (2..31).
  explicit Misr(int width, std::uint32_t seed = 0);
  Misr(tpg::Polynomial poly, std::uint32_t seed);

  /// Absorb one response word (low `width` bits are used).
  void absorb(std::uint64_t word);
  void absorb_all(std::span<const std::int64_t> words);

  std::uint32_t signature() const { return state_; }
  int width() const { return poly_.degree; }
  void reset() { state_ = seed_; }

private:
  tpg::Polynomial poly_;
  std::uint32_t seed_ = 0;
  std::uint32_t state_ = 0;
};

} // namespace fdbist::bist
