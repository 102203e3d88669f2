// Family-agnostic multiplierless datapath construction.
//
// Every design family in the repo (transposed-form FIRs, IIR biquad
// cascades, polyphase decimators) is assembled from the same two
// primitives the paper's Section 3 architecture uses: hardwired CSD
// shift-and-add constant multiplications, and register/adder cascades
// that accumulate them. This header is the shared layer those family
// builders (rtl/fir_builder.hpp, rtl/iir_builder.hpp,
// rtl/decimator_builder.hpp) are written against, plus the FilterDesign
// record the rest of the pipeline (gate lowering, fault engine, BIST
// kit, verify) consumes without caring which family produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csd/csd.hpp"
#include "rtl/graph.hpp"
#include "rtl/linear_model.hpp"

namespace fdbist::rtl {

/// Which datapath architecture a design realizes. The tag rides along
/// the whole pipeline: campaign checkpoints fingerprint it, the verify
/// oracle picks its superposition budget by it, and the corpus format
/// records it per case.
enum class DesignFamily : std::uint8_t {
  Fir = 0,                ///< transposed-direct-form FIR (the paper's)
  IirBiquad = 1,          ///< cascade of direct-form-I biquad sections
  PolyphaseDecimator = 2, ///< M phase FIR branches over a packed input
};

/// Canonical name: "fir", "iir-biquad", "polyphase-decimator".
const char* family_name(DesignFamily f);

/// Parse a family name; accepts the canonical names plus the short
/// aliases "iir" and "decimator". Returns false on anything else.
bool parse_design_family(const char* s, DesignFamily& out);

/// Summary statistics matching the columns of the paper's Table 1.
struct DesignStats {
  std::size_t adders = 0; ///< Add + Sub operators
  std::size_t registers = 0;
  int width_in = 0;
  int width_coef = 0;
  int width_out = 0;
  std::size_t nodes = 0;
};

/// A built filter design: graph plus bookkeeping for analysis and probing.
struct FilterDesign {
  std::string name;
  DesignFamily family = DesignFamily::Fir;
  Graph graph;
  std::vector<csd::Coefficient> coefs;
  NodeId input = kNoNode;
  NodeId output = kNoNode;              ///< Output node (16-bit word)
  std::vector<NodeId> tap_accumulators; ///< w_k node per tap k
  std::vector<NodeId> structural_adders; ///< the tap-combining Add/Sub nodes
  std::vector<NodeLinearInfo> linear;   ///< post-scaling linear analysis
  /// Family-specific shape: biquad sections (IirBiquad) or polyphase
  /// branches (PolyphaseDecimator); 0 for plain FIRs.
  std::size_t sections = 0;
  /// PolyphaseDecimator: bits per packed input lane; 0 otherwise.
  int lane_width = 0;

  DesignStats stats() const;
  /// Real-valued quantized impulse response actually implemented. For
  /// recursive families this is the linear-model response at the output
  /// over the analysis window.
  std::vector<double> quantized_impulse_response() const;
};

/// Shared state for CSD product construction: the graph under
/// construction plus the datapath precision contract.
struct BuilderContext {
  Graph* g = nullptr;
  int coef_width = 15;  ///< coefficient word length (MSB anchors weights)
  int product_frac = 15; ///< fractional bits kept in the datapath
};

/// Provisional width for product/accumulator nodes; shrunk later by
/// assign_widths (or pinned by a family builder that sizes explicitly).
inline constexpr int kProvisionalWidth = 48;

/// Width of every family's output word, in the unit format
/// fx::Format::unit(kOutputWidth): Table 1's 16-bit output.
inline constexpr int kOutputWidth = 16;

/// A constant-multiplication result: the node computing |sum| and whether
/// the true product is its negation (used when every CSD digit is
/// negative, so the structural combiner absorbs the sign via Sub).
struct Product {
  NodeId node = kNoNode;
  bool negate = false;
};

/// source * 2^-k, truncated to the datapath's product_frac when the
/// shift creates more fractional bits than the datapath keeps.
NodeId make_term(BuilderContext& ctx, NodeId source, int k,
                 const std::string& label);

/// The CSD shift-and-add structure computing c * source * 2^scale_pow2
/// (possibly as the negation of the generated node; see Product::negate).
/// scale_pow2 lets a caller realize coefficients outside [-1, 1) — an
/// IIR feedback term quantizes a1/2 and passes scale_pow2 = 1.
Product make_product(BuilderContext& ctx, NodeId source,
                     const csd::Coefficient& c, const std::string& label,
                     int scale_pow2 = 0);

/// Transposed-direct-form tap cascade over `source`:
///
///   w_k[n] = c_k * source[n] + w_{k+1}[n-1],    result = w_0[n]
///
/// Labels are "<prefix><k>.*" per tap. Appends each tap's accumulator
/// node to `taps` (one per coefficient, in coefficient order) and every
/// structural combining Add/Sub to `structural`. `zero` caches a shared
/// zero constant across cascades of one graph (pass kNoNode initially).
NodeId build_tap_cascade(BuilderContext& ctx, NodeId source,
                         const std::vector<csd::Coefficient>& coefs,
                         const std::string& prefix,
                         std::vector<NodeId>& taps,
                         std::vector<NodeId>& structural, NodeId& zero);

} // namespace fdbist::rtl
