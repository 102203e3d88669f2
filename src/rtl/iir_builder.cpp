#include "rtl/iir_builder.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "rtl/scaling.hpp"

namespace fdbist::rtl {

namespace {

// One summand of a section accumulator: a CSD product plus the sign it
// enters the sum with (feedback terms are subtracted).
struct Summand {
  Product p;
  bool minus = false;
};

// Fold the non-empty summands left-to-right; `minus ^ negate` picks
// add vs sub, the all-negative-leading case borrows the shared zero.
NodeId combine(BuilderContext& ctx, const std::vector<Summand>& terms,
               const std::string& label, std::vector<NodeId>& structural,
               NodeId& zero) {
  Graph& g = *ctx.g;
  NodeId acc = kNoNode;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Summand& s = terms[i];
    if (s.p.node == kNoNode) continue;
    const bool subtract = s.minus != s.p.negate;
    const std::string nm = label + ".sum" + std::to_string(i);
    if (acc == kNoNode) {
      if (!subtract) {
        acc = s.p.node;
        continue;
      }
      if (zero == kNoNode)
        zero = g.constant(0, fx::Format{2, g.node(s.p.node).fmt.frac},
                          "zero");
      const fx::Format fmt{kProvisionalWidth, g.node(s.p.node).fmt.frac};
      acc = g.sub(zero, s.p.node, fmt, nm);
      structural.push_back(acc);
      continue;
    }
    const int frac =
        std::max(g.node(acc).fmt.frac, g.node(s.p.node).fmt.frac);
    const fx::Format fmt{kProvisionalWidth, frac};
    acc = subtract ? g.sub(acc, s.p.node, fmt, nm)
                   : g.add(acc, s.p.node, fmt, nm);
    structural.push_back(acc);
  }
  if (acc == kNoNode) {
    // Entirely zero section numerator and denominator.
    if (zero == kNoNode)
      zero = g.constant(0, fx::Format{2, ctx.product_frac}, "zero");
    acc = zero;
  }
  return acc;
}

} // namespace

FilterDesign build_iir_biquad(const std::vector<BiquadSection>& sections,
                              const IirBuilderOptions& opt,
                              std::string name) {
  FDBIST_REQUIRE(!sections.empty(), "empty section list");
  FDBIST_REQUIRE(opt.input_width >= 2 && opt.input_width <= 32,
                 "input width out of range");
  FDBIST_REQUIRE(opt.product_frac >= 1 && opt.product_frac <= 40,
                 "product_frac out of range");
  FDBIST_REQUIRE(opt.state_width > opt.product_frac &&
                     opt.state_width <= 62,
                 "state width must exceed product_frac (integer headroom)");
  for (const BiquadSection& s : sections) {
    FDBIST_REQUIRE(std::abs(s.b0) < 1.0 && std::abs(s.b1) < 1.0 &&
                       std::abs(s.b2) < 1.0,
                   "biquad numerator coefficients must lie in (-1, 1)");
    FDBIST_REQUIRE(s.a2 >= -0.4 && s.a2 <= 0.7,
                   "biquad a2 outside the stability contract [-0.4, 0.7]");
    FDBIST_REQUIRE(std::abs(s.a1) <= 0.8 * (1.0 + s.a2),
                   "biquad a1 outside the stability contract "
                   "|a1| <= 0.8 * (1 + a2)");
  }

  FilterDesign d;
  d.name = std::move(name);
  d.family = DesignFamily::IirBiquad;
  d.sections = sections.size();

  csd::QuantizeOptions qopt;
  qopt.width = opt.coef_width;

  Graph& g = d.graph;
  BuilderContext ctx{&g, opt.coef_width, opt.product_frac};
  const fx::Format state_fmt{opt.state_width, opt.product_frac};

  d.input = g.input(fx::Format::unit(opt.input_width), "x");
  NodeId sec_in = g.reg(d.input, "x.reg");

  NodeId zero = kNoNode;
  std::vector<NodeId> fixed;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const BiquadSection& bq = sections[s];
    const std::string sec = "sec" + std::to_string(s);

    // Numerator delay line on the section input.
    const NodeId x1 = g.reg(sec_in, sec + ".x1");
    const NodeId x2 = g.reg(x1, sec + ".x2");
    // Recursive state: y[n-1] is bound to the section output below;
    // y[n-2] is an ordinary register on it.
    const NodeId yd1 = g.reg_forward(state_fmt, sec + ".yd1");
    const NodeId yd2 = g.reg(yd1, sec + ".yd2");
    fixed.push_back(yd1);

    // a1 in (-2, 2): quantize a1/2 and realize with scale_pow2 = 1.
    const csd::Coefficient qb0 = csd::quantize(bq.b0, qopt);
    const csd::Coefficient qb1 = csd::quantize(bq.b1, qopt);
    const csd::Coefficient qb2 = csd::quantize(bq.b2, qopt);
    const csd::Coefficient qa1h = csd::quantize(bq.a1 / 2.0, qopt);
    const csd::Coefficient qa2 = csd::quantize(bq.a2, qopt);
    d.coefs.insert(d.coefs.end(), {qb0, qb1, qb2, qa1h, qa2});

    std::vector<Summand> terms;
    terms.push_back({make_product(ctx, sec_in, qb0, sec + ".b0"), false});
    terms.push_back({make_product(ctx, x1, qb1, sec + ".b1"), false});
    terms.push_back({make_product(ctx, x2, qb2, sec + ".b2"), false});
    terms.push_back(
        {make_product(ctx, yd1, qa1h, sec + ".a1", /*scale_pow2=*/1), true});
    terms.push_back({make_product(ctx, yd2, qa2, sec + ".a2"), true});

    const NodeId acc =
        combine(ctx, terms, sec, d.structural_adders, zero);
    d.tap_accumulators.push_back(acc);

    // Section output in the state format closes the loop. The resize
    // truncates the accumulator to product_frac — that site's recycled
    // error is what analyze_linear's per-site transfer bound charges.
    const NodeId y = g.resize(acc, state_fmt, sec + ".y");
    g.bind_reg(yd1, y);
    fixed.push_back(y);
    sec_in = y;
  }

  const fx::Format out_fmt = fx::Format::unit(kOutputWidth);
  const NodeId y_out = g.resize(sec_in, out_fmt, "y.resize");
  d.output = g.output(y_out, "y");
  fixed.push_back(y_out);
  fixed.push_back(d.output);

  d.linear = assign_widths(g, fixed);
  g.validate();

  // Every section state and the output must be wrap-free under the
  // feedback-closed L1 bound (response + recirculated truncation).
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const NodeId y = g.find("sec" + std::to_string(s) + ".y");
    const auto& yi = d.linear[static_cast<std::size_t>(y)];
    FDBIST_REQUIRE(yi.l1_bound <= state_fmt.real_max(),
                   "biquad section gain exceeds the state format; raise "
                   "state_width or scale the section down");
  }
  const auto& out_info = d.linear[static_cast<std::size_t>(d.output)];
  FDBIST_REQUIRE(out_info.l1_bound <= out_fmt.real_max(),
                 "cascade gain (plus recirculated truncation slack) exceeds "
                 "the output format; scale the response below 1.0 first");
  return d;
}

} // namespace fdbist::rtl
