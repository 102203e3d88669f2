// Seeded random test-case generation for the differential verifier.
//
// Cases are *specs*, not built objects: a compact, serializable
// description (op list + stimulus, or coefficient list + generator
// choice) from which the graph/netlist/stimulus are deterministically
// rebuilt. That is what makes the rest of the subsystem work — the
// minimizer (verify/minimize.hpp) shrinks the spec and re-runs the
// oracle, and the corpus (verify/corpus.hpp) persists the spec as a
// replayable file. The RTL generator is the library form of the ideas
// prototyped in tests/test_lowering_fuzz.cpp: arbitrary feed-forward
// datapaths with wrapping adders, pathological formats, truncating
// resizes, and deep register chains.
#pragma once

#include <cstdint>
#include <vector>

#include "common/xoshiro.hpp"
#include "rtl/fir_builder.hpp"
#include "rtl/graph.hpp"
#include "tpg/generator.hpp"

namespace fdbist::verify {

/// One RTL operator in a case spec. Operands are *pool indices*:
/// 0 is the primary input, i + 1 is the result of ops[i]. Formats are
/// stored so they survive operand remapping during minimization: adds
/// re-derive their fractional bits from the (possibly remapped)
/// operands, resizes keep a relative fractional delta.
struct OpSpec {
  rtl::OpKind kind = rtl::OpKind::Add;
  std::uint32_t a = 0;      ///< pool index of the first operand
  std::uint32_t b = 0;      ///< pool index of the second (Add/Sub)
  std::int32_t width = 8;   ///< output width (Add/Sub/Resize/Const)
  std::int32_t frac_delta = 0; ///< Resize: frac relative to operand's
  std::int32_t shift = 0;   ///< Scale: right-shift amount
  std::int64_t cval = 0;    ///< Const: raw value (wrapped into format)
};

/// A random-datapath differential case: RTL simulation vs gate-level
/// simulation of the lowered netlist must agree bit-for-bit on every
/// observed node, every cycle.
struct RtlCase {
  std::int32_t input_width = 8;
  std::vector<OpSpec> ops;
  /// Raw input words; wrapped into the input format when driven.
  std::vector<std::int64_t> stimulus;
  /// Deliberate kernel mutation for self-tests: flip the op of the
  /// (mutate mod #two-input-gates)-th And/Or/Xor gate in the netlist
  /// given to the gate-level engine. -1 = no mutation (normal fuzzing).
  std::int32_t mutate = -1;
};

/// A filter-level differential case: a small multiplierless design run
/// through the full stack. The oracle cross-checks RTL vs gate outputs,
/// the linear-model amplitude bound, and the Compiled vs FullSweep
/// fault-simulation engines (verdicts, stats invariants, and campaign
/// equality).
///
/// `family` selects the design family and fixes how `coefs` is read:
///   0 (FIR)        tap coefficients, as before
///   1 (IIR)        biquad sections in groups of five
///                  (b0 b1 b2 a1 a2), clamped into the stability
///                  contract and per-section L1-prescaled at build
///   2 (decimator)  full-rate impulse response h[j]; `factor` is the
///                  decimation ratio, and the input format is the
///                  packed factor * lane_width word
/// Any coefficient list builds *some* valid design (build_filter is
/// total), which is what lets the minimizer mangle specs freely.
struct FilterCase {
  std::vector<double> coefs;
  std::uint8_t family = 0;    ///< rtl::DesignFamily as an integer
  std::int32_t factor = 2;    ///< decimator ratio M (family 2 only)
  std::int32_t input_width = 12;
  std::int32_t coef_width = 15;
  std::uint8_t generator = 0; ///< index into the stimulus-source table
  std::uint32_t vectors = 96;
  /// Indices into the difficulty-ordered adder-fault universe (taken
  /// modulo its size, then deduplicated). Empty = a stride sample.
  std::vector<std::uint32_t> fault_indices;
  /// Same contract as RtlCase::mutate, applied to the netlist handed to
  /// the Compiled engine only — a stand-in for a kernel bug.
  std::int32_t mutate = -1;
};

/// Build the RTL graph described by a spec. Total function: any spec
/// (including minimizer-mangled ones) yields a valid graph — widths are
/// clamped, add fracs re-derived, constants wrapped into range.
rtl::Graph build_graph(const RtlCase& c);

/// Wrap every stimulus word into the case's input format, in order.
std::vector<std::int64_t> driven_stimulus(const RtlCase& c);

/// The case's design family (modulo the known families, so a mangled
/// spec still lands on one).
rtl::DesignFamily filter_family(const FilterCase& c);

/// Build the filter design described by a spec (clamps widths, rescales
/// coefficients to a safe L1 norm, drops zero coefficients; IIR
/// sections are clamped into the builder's stability contract and
/// decimator lane packing is sized to fit the stimulus generators).
rtl::FilterDesign build_filter(const FilterCase& c);

/// Deterministic stimulus for a filter case (generator table: LFSR-1,
/// LFSR-2, LFSR-D, LFSR-M, Ramp, White — selected modulo the table).
/// Words are generated at the built design's input width — the packed
/// factor * lane_width word for decimators.
std::vector<std::int64_t> filter_stimulus(const FilterCase& c);

/// Random case generators. Deterministic functions of the seed.
/// `family` pins the filter case's design family; -1 rotates through
/// every registered family seed-deterministically.
RtlCase random_rtl_case(std::uint64_t seed, std::size_t ops = 40,
                        std::size_t cycles = 200);
FilterCase random_filter_case(std::uint64_t seed,
                              std::int32_t family = -1);

} // namespace fdbist::verify
