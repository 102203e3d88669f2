#include "bist/kit.hpp"

#include <string>

#include "common/check.hpp"

namespace fdbist::bist {

BistKit::BistKit(const rtl::FilterDesign& design, int misr_width)
    : design_(design), lowered_(gate::lower(design.graph)),
      faults_(fault::order_for_simulation(
          fault::enumerate_adder_faults(lowered_), lowered_.netlist,
          design.graph)),
      misr_width_(misr_width) {
  FDBIST_REQUIRE(misr_width >= design.stats().width_out && misr_width <= 31,
                 "MISR width " + std::to_string(misr_width) + " outside " +
                     std::to_string(design.stats().width_out) + "..31");
}

std::vector<std::int64_t> BistKit::golden_response(
    std::span<const std::int64_t> stimulus) const {
  return bist::golden_response(lowered_.netlist, stimulus);
}

std::uint32_t BistKit::golden_signature(
    std::span<const std::int64_t> stimulus) const {
  // A run that recorded no good outputs: the fault-free sweep.
  return golden_signature(stimulus, fault::FaultSimResult{});
}

std::uint32_t BistKit::golden_signature(
    std::span<const std::int64_t> stimulus,
    const fault::FaultSimResult& run) const {
  return bist::golden_signature(lowered_.netlist, stimulus, run,
                                misr_width_);
}

BistReport BistKit::make_report(fault::FaultSimResult result,
                                std::span<const std::int64_t> stimulus) const {
  BistReport report;
  report.vectors = stimulus.size();
  report.total_faults = result.total_faults;
  report.detected = result.detected;
  report.golden_signature = golden_signature(stimulus, result);
  report.fault_result = std::move(result);
  return report;
}

BistReport BistKit::evaluate(tpg::Generator& gen, std::size_t vectors,
                             const fault::FaultSimOptions& opt) const {
  FDBIST_REQUIRE(vectors > 0, "need at least one test vector");
  gen.reset();
  const auto stimulus = gen.generate_raw(vectors);
  return make_report(
      fault::simulate_faults(lowered_.netlist, stimulus, faults_, opt),
      stimulus);
}

Expected<BistReport> BistKit::evaluate_campaign(
    tpg::Generator& gen, std::size_t vectors,
    const fault::CampaignOptions& opt) const {
  FDBIST_REQUIRE(vectors > 0, "need at least one test vector");
  gen.reset();
  const auto stimulus = gen.generate_raw(vectors);

  auto campaign =
      fault::run_campaign(lowered_.netlist, stimulus, faults_, opt);
  if (!campaign) return campaign.error();
  return make_report(std::move(campaign->sim), stimulus);
}

std::vector<fault::Fault> BistKit::undetected_faults(
    const fault::FaultSimResult& r) const {
  FDBIST_REQUIRE(r.detect_cycle.size() == faults_.size(),
                 "result does not match this kit's fault universe");
  std::vector<fault::Fault> out;
  for (std::size_t i = 0; i < faults_.size(); ++i)
    if (r.detect_cycle[i] < 0) out.push_back(faults_[i]);
  return out;
}

bool BistKit::signature_detects(const fault::Fault& f,
                                std::span<const std::int64_t> stimulus) const {
  fault::FaultSimOptions opt;
  opt.signature = {misr_width_,
                   tpg::default_polynomial(misr_width_).low_terms};
  return fault::simulate_faults(lowered_.netlist, stimulus, {&f, 1}, opt)
             .signature_detect[0] != 0;
}

} // namespace fdbist::bist
