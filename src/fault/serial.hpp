// Serial fault simulation: the reference configuration of the shared
// batch kernel, and a one-fault oracle.
//
// simulate_faults_serial runs the batch kernel of fault/simulator.hpp
// on a single worker and the full-sweep engine, so it exercises the
// whole-netlist sweep with no good-trace reuse and serves as the
// differential reference for the compiled cone-restricted engine.
// detect_cycle_of is an independent micro-oracle: one fault, one lane,
// a straight-line loop with none of the kernel's batching or staging.
#pragma once

#include <span>

#include "fault/simulator.hpp"

namespace fdbist::fault {

/// Same contract (and bit-identical results) as simulate_faults, forced
/// onto one worker and the full-sweep reference engine.
FaultSimResult simulate_faults_serial(const gate::Netlist& nl,
                                      std::span<const std::int64_t> stimulus,
                                      std::span<const Fault> faults);

/// First cycle at which injecting `f` changes the observed outputs, or
/// -1 if the stimulus never detects it.
std::int32_t detect_cycle_of(const gate::Netlist& nl,
                             std::span<const std::int64_t> stimulus,
                             const Fault& f);

} // namespace fdbist::fault
