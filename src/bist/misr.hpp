// Multiple-input signature register (response compactor).
//
// The paper assumes no aliasing in the response analyzer; this MISR lets
// users opt into realistic compaction. It computes golden signatures;
// per-fault signatures come from the fault kernel's difference MISR
// (fault::FaultSimOptions::signature), which implements the same
// register: faulty = golden XOR the kernel's difference word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tpg/lfsr.hpp"

namespace fdbist::gate { class Netlist; }
namespace fdbist::fault { struct FaultSimResult; }

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

/// Fault-free output words of `nl` (its first output group) for a
/// stimulus: one gate-level sweep.
std::vector<std::int64_t> golden_response(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus);

/// Golden Misr(width) signature for a fault simulation `run` of
/// `stimulus` on `nl`: read from the run's good_outputs when it recorded
/// them, else golden_response's sweep.
std::uint32_t golden_signature(const gate::Netlist& nl,
                               std::span<const std::int64_t> stimulus,
                               const fault::FaultSimResult& run, int width);

} // namespace fdbist::bist
