#include "rtl/decimator_builder.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "rtl/scaling.hpp"

namespace fdbist::rtl {

FilterDesign build_polyphase_decimator(
    const std::vector<double>& coefficients, const DecimatorOptions& opt,
    std::string name) {
  FDBIST_REQUIRE(!coefficients.empty(), "empty coefficient list");
  FDBIST_REQUIRE(opt.factor >= 2 && opt.factor <= 4,
                 "decimation factor out of range (2..4)");
  FDBIST_REQUIRE(opt.lane_width >= 2 && opt.lane_width <= 16,
                 "lane width out of range");
  FDBIST_REQUIRE(opt.factor * opt.lane_width <= 32,
                 "packed input exceeds 32 bits");
  FDBIST_REQUIRE(opt.product_frac >= 1 && opt.product_frac <= 40,
                 "product_frac out of range");
  for (const double c : coefficients)
    FDBIST_REQUIRE(std::abs(c) < 1.0, "coefficients must lie in (-1, 1)");

  const int m_factor = opt.factor;
  const int w = opt.lane_width;

  FilterDesign d;
  d.name = std::move(name);
  d.family = DesignFamily::PolyphaseDecimator;
  d.sections = static_cast<std::size_t>(m_factor);
  d.lane_width = w;

  csd::QuantizeOptions qopt;
  qopt.width = opt.coef_width;
  d.coefs = csd::quantize_all(coefficients, qopt);

  Graph& g = d.graph;
  BuilderContext ctx{&g, opt.coef_width, opt.product_frac};

  const fx::Format packed_fmt{m_factor * w, w - 1};
  d.input = g.input(packed_fmt, "x");
  const NodeId xr = g.reg(d.input, "x.reg");

  // Lane extraction: arithmetic shift + wrap slices lane m's bits; the
  // Scale restores unit weighting (raw bits unchanged, frac + m*w).
  std::vector<NodeId> lanes(static_cast<std::size_t>(m_factor), kNoNode);
  std::vector<NodeId> lane_resizes;
  for (int m = 0; m < m_factor; ++m) {
    const std::string lbl = "lane" + std::to_string(m);
    NodeId ln = g.resize(xr, fx::Format{w, w - 1 - m * w}, lbl);
    lane_resizes.push_back(ln);
    if (m > 0) ln = g.scale(ln, m * w, lbl + ".norm");
    lanes[static_cast<std::size_t>(m)] = ln;
  }

  // Polyphase branches. Branch m > 0 reads lane M-m one packed cycle
  // late: x[M*n - m] = x[M*(n-1) + (M-m)].
  NodeId zero = kNoNode;
  std::vector<NodeId> branch_out;
  for (int m = 0; m < m_factor; ++m) {
    std::vector<csd::Coefficient> phase;
    for (std::size_t j = static_cast<std::size_t>(m); j < d.coefs.size();
         j += static_cast<std::size_t>(m_factor))
      phase.push_back(d.coefs[j]);
    if (phase.empty()) continue;
    const std::string ph = "ph" + std::to_string(m);
    NodeId src = lanes[static_cast<std::size_t>(m == 0 ? 0 : m_factor - m)];
    if (m > 0) src = g.reg(src, ph + ".z0");
    branch_out.push_back(build_tap_cascade(ctx, src, phase, ph + ".tap",
                                           d.tap_accumulators,
                                           d.structural_adders, zero));
  }
  FDBIST_ASSERT(!branch_out.empty(), "no polyphase branch built");

  NodeId acc = branch_out.front();
  for (std::size_t i = 1; i < branch_out.size(); ++i) {
    const int frac = std::max(g.node(acc).fmt.frac,
                              g.node(branch_out[i]).fmt.frac);
    const fx::Format fmt{kProvisionalWidth, frac};
    acc = g.add(acc, branch_out[i], fmt, "join" + std::to_string(i));
    d.structural_adders.push_back(acc);
  }

  const fx::Format out_fmt = fx::Format::unit(kOutputWidth);
  const NodeId y = g.resize(acc, out_fmt, "y.resize");
  d.output = g.output(y, "y");

  // Lane-aware amplitude bounds: per-node impulse responses to a unit
  // impulse in each lane (cancellation-aware within a lane, like the
  // FIR's symbolic analysis), summed across lanes because the lanes are
  // independent full-range samples. `extra` carries the packed input's
  // own range up to the lane slices, where the per-lane unit impulse
  // takes over.
  std::vector<int> lane_of(g.size(), -1);
  for (int m = 0; m < m_factor; ++m)
    lane_of[static_cast<std::size_t>(lane_resizes[std::size_t(m)])] = m;
  std::vector<std::vector<std::vector<double>>> resp(
      g.size(), std::vector<std::vector<double>>(
                    static_cast<std::size_t>(m_factor)));
  std::vector<double> slack(g.size(), 0.0);
  std::vector<double> extra(g.size(), 0.0);
  auto accumulate = [](std::vector<double>& a, const std::vector<double>& b,
                       double scale) {
    if (b.size() > a.size()) a.resize(b.size(), 0.0);
    for (std::size_t i = 0; i < b.size(); ++i) a[i] += scale * b[i];
  };
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Node& nd = g.node(static_cast<NodeId>(i));
    const std::size_t a = static_cast<std::size_t>(nd.a);
    const std::size_t b = static_cast<std::size_t>(nd.b);
    switch (nd.kind) {
    case OpKind::Input:
      extra[i] = nd.fmt.real_max();
      break;
    case OpKind::Const:
      extra[i] = std::abs(static_cast<double>(nd.cval)) * nd.fmt.lsb();
      break;
    case OpKind::Reg:
      for (int m = 0; m < m_factor; ++m) {
        const auto& src = resp[a][std::size_t(m)];
        auto& dst = resp[i][std::size_t(m)];
        dst.assign(src.size() + 1, 0.0);
        for (std::size_t k = 0; k < src.size(); ++k) dst[k + 1] = src[k];
      }
      slack[i] = slack[a];
      extra[i] = extra[a];
      break;
    case OpKind::Output:
      resp[i] = resp[a];
      slack[i] = slack[a];
      extra[i] = extra[a];
      break;
    case OpKind::Add:
    case OpKind::Sub: {
      const double sgn = nd.kind == OpKind::Add ? 1.0 : -1.0;
      resp[i] = resp[a];
      for (int m = 0; m < m_factor; ++m)
        accumulate(resp[i][std::size_t(m)], resp[b][std::size_t(m)], sgn);
      slack[i] = slack[a] + slack[b];
      extra[i] = extra[a] + extra[b];
      break;
    }
    case OpKind::Scale: {
      const double sc = std::ldexp(1.0, -nd.shift);
      resp[i] = resp[a];
      for (auto& h : resp[i])
        for (double& v : h) v *= sc;
      slack[i] = slack[a] * sc;
      extra[i] = extra[a] * sc;
      break;
    }
    case OpKind::Resize:
      if (lane_of[i] >= 0) {
        // The slice's real value is the lane value times 2^(m*w); the
        // normalization Scale downstream divides that factor back out.
        resp[i][std::size_t(lane_of[i])] = {std::ldexp(1.0, lane_of[i] * w)};
        break;
      }
      resp[i] = resp[a];
      slack[i] = slack[a];
      extra[i] = extra[a];
      if (nd.fmt.frac < g.node(nd.a).fmt.frac)
        slack[i] += std::ldexp(1.0, -nd.fmt.frac);
      break;
    }
  }
  auto bound_at = [&](std::size_t i) {
    double l1 = 0.0;
    for (const auto& h : resp[i])
      for (const double v : h) l1 += std::abs(v);
    return l1 + slack[i] + extra[i];
  };

  // Width assignment mirroring rtl::assign_widths, driven by the
  // lane-aware bounds. Lane slices and the output stage are contractual.
  std::vector<char> is_fixed(g.size(), 0);
  for (const NodeId r : lane_resizes) is_fixed[static_cast<std::size_t>(r)] = 1;
  is_fixed[static_cast<std::size_t>(y)] = 1;
  is_fixed[static_cast<std::size_t>(d.output)] = 1;
  for (std::size_t i = 0; i < g.size(); ++i) {
    Node& nd = g.mutable_node(static_cast<NodeId>(i));
    if (is_fixed[i]) continue;
    switch (nd.kind) {
    case OpKind::Input:
    case OpKind::Const:
      break;
    case OpKind::Reg:
    case OpKind::Output:
      nd.fmt = g.node(nd.a).fmt;
      break;
    case OpKind::Scale: {
      const auto& src = g.node(nd.a).fmt;
      nd.fmt = fx::Format{src.width, src.frac + nd.shift};
      break;
    }
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Resize:
      nd.fmt.width = width_for_bound(bound_at(i), nd.fmt.frac);
      break;
    }
    FDBIST_ASSERT(nd.fmt.valid(), "scaling produced an invalid format");
  }
  g.validate();

  FDBIST_REQUIRE(bound_at(static_cast<std::size_t>(d.output)) <=
                     out_fmt.real_max(),
                 "coefficient L1 norm (plus truncation slack) exceeds the "
                 "output format; scale the impulse response below 1.0 first");

  // Keep the packed-word impulse model for record, but publish the
  // lane-aware bounds — downstream budgets must not inherit the
  // 2^(m*lane_width) skew of the packed-real view.
  d.linear = analyze_linear(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    d.linear[i].l1_bound = bound_at(i);
    d.linear[i].trunc_slack = slack[i];
  }
  return d;
}

} // namespace fdbist::rtl
