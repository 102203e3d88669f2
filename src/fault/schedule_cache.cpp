#include "fault/schedule_cache.hpp"

#include <chrono>

#include "common/check.hpp"
#include "fault/checkpoint.hpp"
#include "gate/sim.hpp"

namespace fdbist::fault {

namespace {

std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

} // namespace

ArtifactKey make_artifact_key(const gate::Netlist& nl,
                              std::span<const std::int64_t> stimulus) {
  return {fingerprint_netlist(nl), fingerprint_stimulus(stimulus)};
}

std::shared_ptr<const CompiledArtifact> build_artifact(
    const gate::Netlist& nl, std::span<const std::int64_t> stimulus,
    FaultSimStats* prep) {
  FDBIST_REQUIRE(!stimulus.empty(), "artifact build needs a stimulus");
  auto art = std::make_shared<CompiledArtifact>();
  art->key = make_artifact_key(nl, stimulus);

  // A structural copy through add_gate keeps the artifact
  // self-contained (it must not reference the caller's netlist).
  const std::uint64_t c0 = now_ns();
  for (const gate::Gate& g : nl.gates())
    art->netlist.add_gate(g.op, g.a, g.b);
  art->netlist.registers() = nl.registers();
  art->netlist.inputs() = nl.inputs();
  art->netlist.outputs() = nl.outputs();
  art->schedule.emplace(art->netlist);

  const std::uint64_t t0 = now_ns();
  art->trace =
      gate::record_good_trace(*art->schedule, stimulus, stimulus.size());
  if (prep != nullptr) {
    prep->prep_compile_ns += t0 - c0;
    prep->prep_trace_ns += now_ns() - t0;
    prep->schedule_compilations += 1;
    prep->good_trace_cycles += stimulus.size();
  }
  return art;
}

} // namespace fdbist::fault
