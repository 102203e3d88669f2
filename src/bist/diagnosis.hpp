// Signature-based fault diagnosis.
//
// A fault dictionary maps the MISR signature observed after a BIST
// session to the set of modeled faults that produce it, turning a
// failing self-test into a short list of candidate defect locations.
// Dictionaries are built with the parallel simulator: one signature run
// of fault::simulate_faults, whose per-fault difference words XORed
// with the golden signature are the faulty signatures.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"

namespace fdbist::bist {

class FaultDictionary {
public:
  /// Build the dictionary for a fault universe under a fixed stimulus.
  /// Signatures are those of bist::Misr(misr_width) over each machine's
  /// sign-extended output stream; `misr_width` must lie between the
  /// output word width and 31.
  FaultDictionary(const gate::Netlist& nl,
                  std::span<const fault::Fault> faults,
                  std::span<const std::int64_t> stimulus,
                  int misr_width = 24);

  /// Signature of the fault-free machine for this stimulus.
  std::uint32_t good_signature() const { return good_signature_; }

  /// Fault indices (into the universe the dictionary was built from)
  /// whose signature equals `sig`; empty when unknown.
  std::span<const std::size_t> diagnose(std::uint32_t sig) const;

  /// Per-fault signatures, aligned with the input universe.
  const std::vector<std::uint32_t>& signatures() const {
    return signatures_;
  }

  /// Faults whose signature equals the fault-free one (undetected or
  /// aliased for this stimulus).
  std::size_t indistinct_from_good() const;

  /// Mean candidate-set size over detected faults (1.0 = every fault
  /// uniquely diagnosable).
  double mean_ambiguity() const;

private:
  std::uint32_t good_signature_ = 0;
  std::vector<std::uint32_t> signatures_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> index_;
};

} // namespace fdbist::bist
