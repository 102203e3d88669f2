#include "bist/diagnosis.hpp"

#include <string>

#include "bist/misr.hpp"
#include "common/check.hpp"
#include "fault/simulator.hpp"

namespace fdbist::bist {

FaultDictionary::FaultDictionary(const gate::Netlist& nl,
                                 std::span<const fault::Fault> faults,
                                 std::span<const std::int64_t> stimulus,
                                 int misr_width) {
  FDBIST_REQUIRE(!stimulus.empty(), "empty stimulus");
  FDBIST_REQUIRE(nl.inputs().size() == 1, "single-input designs only");
  const int out_w = static_cast<int>(nl.outputs().front().size());
  FDBIST_REQUIRE(misr_width >= out_w && misr_width <= 31,
                 "MISR width " + std::to_string(misr_width) + " outside " +
                     std::to_string(out_w) + "..31");

  // One signature run; by GF(2) linearity each faulty signature is the
  // golden one XOR the fault's difference word.
  fault::FaultSimOptions opt;
  opt.signature = {misr_width,
                   tpg::default_polynomial(misr_width).low_terms};
  std::vector<std::uint32_t> difference;
  const auto run =
      fault::simulate_faults(nl, stimulus, faults, opt, difference);
  good_signature_ = golden_signature(nl, stimulus, run, misr_width);
  for (const std::uint32_t d : difference) {
    index_[good_signature_ ^ d].push_back(signatures_.size());
    signatures_.push_back(good_signature_ ^ d);
  }
}

std::span<const std::size_t> FaultDictionary::diagnose(
    std::uint32_t sig) const {
  const auto it = index_.find(sig);
  if (it == index_.end()) return {};
  return it->second;
}

std::size_t FaultDictionary::indistinct_from_good() const {
  const auto it = index_.find(good_signature_);
  return it == index_.end() ? 0 : it->second.size();
}

double FaultDictionary::mean_ambiguity() const {
  std::size_t detected = 0;
  std::size_t total_candidates = 0;
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    if (signatures_[i] == good_signature_) continue;
    ++detected;
    total_candidates += index_.at(signatures_[i]).size();
  }
  return detected == 0 ? 0.0
                       : static_cast<double>(total_candidates) /
                             static_cast<double>(detected);
}

} // namespace fdbist::bist
