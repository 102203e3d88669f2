// Section codecs for the FDBA compiled-artifact file: the on-disk form
// of a schedule.
//
// Campaign slices and repeat submissions of the same design all pay
// the identical preparation bill — schedule compilation, good-trace
// recording — before the first fault batch runs. The FDBA file
// captures the result of that preparation so it is paid once: the
// netlist, the CompiledSchedule's SoA gate arrays and fan-out CSR, and
// the bit-packed good-machine trace. The fault layer
// (fault/schedule_cache.hpp) owns the file: it writes the frame
// (common/binfile.hpp) and the header keyed on its own fingerprints,
// then these three sections. This header owns only the section codecs,
// so the gate module never depends on fault types.
//
// Loads are paranoid by contract: every read is bounds-checked, every
// count is validated against the netlist and the bytes left before an
// array is trusted, and any violation surfaces as a typed
// CorruptArtifact (never an assertion, never UB) — the cache's response
// to a bad file is always "recompile from scratch", so a torn or
// corrupt artifact can cost time but never correctness.
#pragma once

#include <cstdint>

#include "common/binfile.hpp"
#include "common/error.hpp"
#include "gate/netlist.hpp"
#include "gate/schedule.hpp"

namespace fdbist::gate {

/// Version of the *compilation semantics* a serialized schedule
/// encodes. Bump whenever CompiledSchedule's arrays would come out
/// differently for the same netlist (new CSR ordering, new SoA field):
/// artifacts written under another schedule format are refused and
/// rebuilt, never reinterpreted.
inline constexpr std::uint32_t kScheduleFormatVersion = 1;

/// Netlist codec: gates (op, a, b), registers (d, q), input and output
/// bit groups. Gate origins are deliberately dropped — the simulation
/// kernel never reads them, the netlist fingerprint excludes them, and
/// fault reporting happens against the caller's ORIGINAL netlist — so
/// the loaded netlist carries default origins. read_netlist validates
/// operand/topology structure via Netlist rules re-checked here
/// non-throwing (ids in range, counts sane) and returns CorruptArtifact
/// on any violation.
void write_netlist(common::ByteWriter& w, const Netlist& nl);
Expected<Netlist> read_netlist(common::ByteReader& r);

/// CompiledSchedule codec: the SoA op/a/b arrays, the fan-out CSR, the
/// register-of map and the output marks — lane-width-independent, so
/// one artifact serves the scalar, AVX2 and AVX-512 backends alike.
/// read_schedule fully cross-checks the arrays against `nl` (ops and
/// operands must equal the netlist's, CSR offsets must be monotone and
/// in range, register indices must exist) before returning parts fit
/// for CompiledSchedule's restore constructor.
void write_schedule(common::ByteWriter& w, const CompiledSchedule& s);
Expected<CompiledSchedule::RestoreParts> read_schedule(
    common::ByteReader& r, const Netlist& nl);

/// Good-trace codec: bit-packed rows, one bit per net per cycle.
/// read_trace validates the geometry against `nets` and the expected
/// cycle count.
void write_trace(common::ByteWriter& w, const GoodTrace& t);
Expected<GoodTrace> read_trace(common::ByteReader& r, std::size_t nets,
                               std::size_t cycles);

} // namespace fdbist::gate
