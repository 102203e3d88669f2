#include "bist/kit.hpp"

#include "common/check.hpp"
#include "gate/sim.hpp"

namespace fdbist::bist {

namespace {

std::uint32_t misr_signature(int width,
                             std::span<const std::int64_t> words) {
  Misr misr(width);
  misr.absorb_all(words);
  return misr.signature();
}

} // namespace

BistKit::BistKit(const rtl::FilterDesign& design, int misr_width)
    : design_(design), lowered_(gate::lower(design.graph)),
      faults_(fault::order_for_simulation(
          fault::enumerate_adder_faults(lowered_), lowered_.netlist,
          design.graph)),
      misr_width_(misr_width) {
  FDBIST_REQUIRE(misr_width >= design.stats().width_out,
                 "MISR must be at least as wide as the output word");
}

std::vector<std::int64_t> BistKit::golden_response(
    std::span<const std::int64_t> stimulus) const {
  gate::WordSim sim(lowered_.netlist);
  const auto& out_bits = lowered_.netlist.outputs().front();
  std::vector<std::int64_t> out;
  out.reserve(stimulus.size());
  for (const std::int64_t x : stimulus) {
    sim.step_broadcast(x);
    out.push_back(sim.lane_value(out_bits, 0));
  }
  return out;
}

std::uint32_t BistKit::golden_signature(
    std::span<const std::int64_t> stimulus) const {
  return misr_signature(misr_width_, golden_response(stimulus));
}

std::uint32_t BistKit::golden_signature(
    std::span<const std::int64_t> stimulus,
    const fault::FaultSimResult& run) const {
  // The compiled engine already ran the fault-free machine; its output
  // words give the golden signature without another sweep.
  return run.good_outputs.empty()
             ? golden_signature(stimulus)
             : misr_signature(misr_width_, run.good_outputs);
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
  gate::WordSim sim(lowered_.netlist);
  sim.add_fault(f.gate, f.site, f.stuck, std::uint64_t{1} << 1);
  const auto& out_bits = lowered_.netlist.outputs().front();
  Misr good(misr_width_);
  Misr bad(misr_width_);
  for (const std::int64_t x : stimulus) {
    sim.step_broadcast(x);
    good.absorb(static_cast<std::uint64_t>(sim.lane_value(out_bits, 0)));
    bad.absorb(static_cast<std::uint64_t>(sim.lane_value(out_bits, 1)));
  }
  return good.signature() != bad.signature();
}

} // namespace fdbist::bist
