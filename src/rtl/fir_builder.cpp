#include "rtl/fir_builder.hpp"

#include <cmath>

#include "common/check.hpp"
#include "rtl/scaling.hpp"

namespace fdbist::rtl {

FilterDesign build_fir(const std::vector<double>& coefficients,
                       const FirBuilderOptions& opt, std::string name) {
  FDBIST_REQUIRE(!coefficients.empty(), "empty coefficient list");
  FDBIST_REQUIRE(opt.input_width >= 2 && opt.input_width <= 32,
                 "input width out of range");
  FDBIST_REQUIRE(opt.product_frac >= 1 && opt.product_frac <= 40,
                 "product_frac out of range");
  for (const double c : coefficients)
    FDBIST_REQUIRE(std::abs(c) < 1.0, "coefficients must lie in (-1, 1)");

  FilterDesign d;
  d.name = std::move(name);
  d.family = DesignFamily::Fir;
  csd::QuantizeOptions qopt;
  qopt.width = opt.coef_width;
  d.coefs = csd::quantize_all(coefficients, qopt);

  Graph& g = d.graph;
  BuilderContext ctx{&g, opt.coef_width, opt.product_frac};

  d.input = g.input(fx::Format::unit(opt.input_width), "x");
  const NodeId x = g.reg(d.input, "x.reg");

  // Shared zero constant for the rare all-negative-last-tap case.
  NodeId zero = kNoNode;
  const NodeId w0 = build_tap_cascade(ctx, x, d.coefs, "tap",
                                      d.tap_accumulators,
                                      d.structural_adders, zero);

  // Output stage: resize the final accumulator to the output format.
  const fx::Format out_fmt = fx::Format::unit(kOutputWidth);
  const NodeId y = g.resize(w0, out_fmt, "y.resize");
  d.output = g.output(y, "y");

  // Conservative scaling; the output format is contractual, so pin it.
  d.linear = assign_widths(g, {y, d.output});
  g.validate();

  // The output resize must never wrap: the quantized L1 gain plus
  // truncation slack has to stay below full scale.
  const auto& out_info = d.linear[static_cast<std::size_t>(d.output)];
  FDBIST_REQUIRE(out_info.l1_bound <= out_fmt.real_max(),
                 "coefficient L1 norm (plus truncation slack) exceeds the "
                 "output format; scale the impulse response below 1.0 first");
  return d;
}

} // namespace fdbist::rtl
