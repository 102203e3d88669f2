// End-to-end BIST evaluation kit: the top-level public API tying together
// a filter design, a test generator, the fault engine, and the
// frequency-domain analyses.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto design = designs::make_reference(designs::ReferenceFilter::Lowpass);
//   bist::BistKit kit(design);
//   auto gen = tpg::make_generator(analysis::recommend_generator(design));
//   auto report = kit.evaluate(*gen, 4096);
//   // report.coverage, report.missed, report.signature ...
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/compatibility.hpp"
#include "bist/misr.hpp"
#include "common/error.hpp"
#include "fault/campaign.hpp"
#include "fault/simulator.hpp"
#include "rtl/fir_builder.hpp"
#include "tpg/generator.hpp"

namespace fdbist::bist {

/// Result of one BIST evaluation run.
struct BistReport {
  std::size_t vectors = 0;
  std::size_t total_faults = 0;
  std::size_t detected = 0;
  std::uint32_t golden_signature = 0; ///< fault-free MISR signature
  fault::FaultSimResult fault_result;

  std::size_t missed() const { return total_faults - detected; }
  double coverage() const { return fault_result.coverage(); }
};

class BistKit {
public:
  /// Lowers the design to gates and enumerates its (ordered) adder fault
  /// universe once; the kit can then evaluate any number of generators.
  /// `misr_width` must lie between the output word width and 31.
  explicit BistKit(const rtl::FilterDesign& design, int misr_width = 24);

  const rtl::FilterDesign& design() const { return design_; }
  const gate::LoweredDesign& lowered() const { return lowered_; }
  const std::vector<fault::Fault>& faults() const { return faults_; }

  /// Fault-free output trace for a stimulus (bist::golden_response).
  std::vector<std::int64_t> golden_response(
      std::span<const std::int64_t> stimulus) const;

  /// Golden MISR signature for a stimulus (bist::golden_signature).
  std::uint32_t golden_signature(
      std::span<const std::int64_t> stimulus) const;

  /// Golden MISR signature for a finished fault simulation of
  /// `stimulus` (simulate_faults, run_campaign): read
  /// from the run's good_outputs when it recorded them, else a
  /// fault-free sweep (golden_signature(stimulus)).
  std::uint32_t golden_signature(std::span<const std::int64_t> stimulus,
                                 const fault::FaultSimResult& run) const;

  /// Full evaluation: generate `vectors` patterns, fault simulate the
  /// whole universe, compute the golden signature (read from the
  /// compiled engine's good trace, so the fault-free machine runs once).
  BistReport evaluate(tpg::Generator& gen, std::size_t vectors,
                      const fault::FaultSimOptions& opt = {}) const;

  /// Like evaluate, but routed through the robust campaign layer
  /// (fault/campaign.hpp): periodic checkpoints, kill-and-resume,
  /// cancellation, deadline. Environmental failures (unreadable or
  /// foreign checkpoint) come back as typed errors; a cancelled or
  /// deadlined run yields a *report* whose fault_result.complete is
  /// false — coverage-so-far, never discarded. Results are
  /// bit-identical to evaluate() when the campaign runs to completion.
  Expected<BistReport> evaluate_campaign(
      tpg::Generator& gen, std::size_t vectors,
      const fault::CampaignOptions& opt) const;

  /// Faults left undetected by a previous evaluation, with locations.
  std::vector<fault::Fault> undetected_faults(
      const fault::FaultSimResult& r) const;

  /// True if injecting `f` changes the width-misr_width MISR signature
  /// for this stimulus (i.e. compaction does not alias the fault away):
  /// the fault kernel's difference-MISR verdict
  /// (FaultSimOptions::signature) for the one-fault universe {f}.
  bool signature_detects(const fault::Fault& f,
                         std::span<const std::int64_t> stimulus) const;

private:
  /// Wrap a finished fault simulation of `stimulus` into a report.
  BistReport make_report(fault::FaultSimResult result,
                         std::span<const std::int64_t> stimulus) const;

  const rtl::FilterDesign& design_;
  gate::LoweredDesign lowered_;
  std::vector<fault::Fault> faults_;
  int misr_width_;
};

} // namespace fdbist::bist
