#include <cmath>
#include <gtest/gtest.h>

#include "common/xoshiro.hpp"
#include "dsp/convolution.hpp"
#include "dsp/stats.hpp"
#include "rtl/fir_builder.hpp"
#include "rtl/linear_model.hpp"
#include "rtl/scaling.hpp"
#include "rtl/sim.hpp"

namespace fdbist::rtl {
namespace {

std::vector<std::int64_t> random_stimulus(std::size_t n, int width,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int64_t> x(n);
  const auto fmt = fx::Format::unit(width);
  for (auto& v : x)
    v = fmt.raw_min() +
        static_cast<std::int64_t>(rng.below(
            static_cast<std::uint64_t>(fmt.raw_max() - fmt.raw_min() + 1)));
  return x;
}

// ---------------------------------------------------------------- linear

TEST(LinearModel, HandBuiltGraph) {
  // y = 0.5 x[n] - 0.25 x[n-1].
  Graph g;
  const NodeId x = g.input(fx::Format::unit(8));
  const NodeId p0 = g.scale(x, 1);
  const NodeId p1 = g.scale(x, 2);
  const NodeId z = g.reg(p1);
  const NodeId acc = g.sub(p0, z, fx::Format{12, 9});
  const NodeId y = g.output(acc);
  const auto info = analyze_linear(g);
  ASSERT_EQ(info[std::size_t(y)].impulse.size(), 2u);
  EXPECT_DOUBLE_EQ(info[std::size_t(y)].impulse[0], 0.5);
  EXPECT_DOUBLE_EQ(info[std::size_t(y)].impulse[1], -0.25);
  EXPECT_DOUBLE_EQ(info[std::size_t(y)].l1_bound, 0.75);
  EXPECT_DOUBLE_EQ(info[std::size_t(p1)].impulse[0], 0.25);
}

TEST(LinearModel, MatchesSimulatedImpulseResponse) {
  Graph g;
  const NodeId x = g.input(fx::Format::unit(10));
  const NodeId a = g.scale(x, 1);
  const NodeId b = g.reg(g.scale(x, 3));
  const NodeId s = g.add(a, b, fx::Format{14, 12});
  const NodeId r = g.reg(s);
  const NodeId y = g.output(r);
  const auto info = analyze_linear(g);

  // Drive a unit-ish impulse and compare (no truncation in this graph, so
  // the match is exact up to input quantization).
  Simulator sim(g);
  const double x0 = 0.5;
  std::vector<std::int64_t> stim{fx::from_real(x0, fx::Format::unit(10)), 0,
                                 0, 0};
  const auto resp = sim.run_probe(stim, y);
  const auto& h = info[std::size_t(y)].impulse;
  for (std::size_t n = 0; n < resp.size(); ++n) {
    const double expected = n < h.size() ? h[n] * x0 : 0.0;
    EXPECT_NEAR(resp[n], expected, 1e-12) << "n=" << n;
  }
}

TEST(LinearModel, VarianceGains) {
  Graph g;
  const NodeId x = g.input(fx::Format::unit(8));
  const NodeId s = g.add(x, g.reg(x), fx::Format{10, 7});
  const auto info = analyze_linear(g);
  const auto gains = variance_gains(info);
  EXPECT_DOUBLE_EQ(gains[std::size_t(s)], 2.0); // 1^2 + 1^2
}

TEST(LinearModel, RequiresSingleInput) {
  Graph g;
  g.input(fx::Format::unit(8));
  g.input(fx::Format::unit(8));
  EXPECT_THROW(analyze_linear(g), precondition_error);
}

TEST(LinearModel, TruncationSlackAccumulates) {
  Graph g;
  const NodeId x = g.input(fx::Format{8, 10});
  const NodeId t = g.resize(x, fx::Format{6, 8});
  const auto info = analyze_linear(g);
  EXPECT_DOUBLE_EQ(info[std::size_t(t)].trunc_slack, std::ldexp(1.0, -8));
  EXPECT_GT(info[std::size_t(t)].l1_bound,
            info[std::size_t(x)].l1_bound);
}

// --------------------------------------------------------------- scaling

TEST(Scaling, WidthForBoundRule) {
  // Conservative: bound exactly a power of two still rounds up.
  EXPECT_EQ(width_for_bound(1.0, 15), 17);  // B=1 -> range [-2,2)
  EXPECT_EQ(width_for_bound(0.98, 15), 16); // range [-1,1)
  EXPECT_EQ(width_for_bound(0.49, 15), 15);
  EXPECT_EQ(width_for_bound(0.5, 15), 16);  // 0.5 rounds up: [-1,1)
  EXPECT_EQ(width_for_bound(0.0, 15), 2);
  EXPECT_EQ(width_for_bound(1e-9, 15), 2);  // clamped at min
}

TEST(Scaling, PreservesBehaviour) {
  // Shrinking widths per L1 bounds must not change any simulated value.
  Graph g;
  const NodeId x = g.input(fx::Format::unit(8));
  const NodeId a = g.scale(x, 2);
  const NodeId s = g.add(x, a, fx::Format{40, 9});
  const NodeId r = g.reg(s);
  const NodeId s2 = g.add(r, a, fx::Format{40, 9});
  const NodeId y = g.output(s2);

  const auto stim = random_stimulus(500, 8, 3);
  Simulator before(g);
  std::vector<std::int64_t> ref;
  for (const auto v : stim) {
    before.step(v);
    ref.push_back(before.raw(y));
  }

  assign_widths(g, {});
  EXPECT_LT(g.node(s).fmt.width, 40);
  Simulator after(g);
  for (std::size_t i = 0; i < stim.size(); ++i) {
    after.step(stim[i]);
    EXPECT_EQ(after.raw(y), ref[i]) << "cycle " << i;
  }
}

TEST(Scaling, FixedNodesUntouched) {
  Graph g;
  const NodeId x = g.input(fx::Format::unit(8));
  const NodeId t = g.resize(x, fx::Format{16, 15});
  assign_widths(g, {t});
  EXPECT_EQ(g.node(t).fmt.width, 16);
}

// --------------------------------------------------------------- builder

TEST(Builder, RejectsBadInput) {
  EXPECT_THROW(build_fir({}, {}), precondition_error);
  EXPECT_THROW(build_fir({1.5}, {}), precondition_error);
  FirBuilderOptions opt;
  opt.input_width = 1;
  EXPECT_THROW(build_fir({0.5}, opt), precondition_error);
}

TEST(Builder, SingleTapIsPureGain) {
  FirBuilderOptions opt;
  auto d = build_fir({0.5}, opt, "gain");
  Simulator sim(d.graph);
  // One cycle of latency from the input register.
  const std::vector<std::int64_t> stim{
      fx::from_real(0.25, fx::Format::unit(12)), 0, 0};
  const auto y = sim.run_output(stim);
  EXPECT_DOUBLE_EQ(d.graph.node(d.output).fmt.to_real(y[1]), 0.125);
}

TEST(Builder, ImpulseResponseMatchesQuantizedCoefficients) {
  const std::vector<double> coefs{0.24, -0.33, 0.09, 0.0, -0.055, 0.2};
  auto d = build_fir(coefs, {}, "t");
  Simulator sim(d.graph);
  // Drive a positive impulse of amplitude a and read the response.
  const double a = 0.5;
  std::vector<std::int64_t> stim(coefs.size() + 2, 0);
  stim[0] = fx::from_real(a, fx::Format::unit(12));
  const auto probe = sim.run_probe(stim, d.output);
  const auto h = d.quantized_impulse_response();
  const double tol =
      2.0 * d.graph.node(d.output).fmt.lsb() + 8e-5; // truncation budget
  for (std::size_t n = 0; n < h.size(); ++n)
    EXPECT_NEAR(probe[n + 1], a * h[n], tol) << "n=" << n;
}

TEST(Builder, NegativeOnlyCoefficientHandled) {
  // A pure power-of-two negative coefficient exercises the all-negative
  // CSD path (structural Sub or explicit negation).
  for (const auto& coefs :
       {std::vector<double>{-0.5}, std::vector<double>{-0.5, 0.25},
        std::vector<double>{0.25, -0.5}}) {
    auto d = build_fir(coefs, {}, "neg");
    Simulator sim(d.graph);
    const double a = 0.25;
    std::vector<std::int64_t> stim(coefs.size() + 2, 0);
    stim[0] = fx::from_real(a, fx::Format::unit(12));
    const auto probe = sim.run_probe(stim, d.output);
    for (std::size_t n = 0; n < coefs.size(); ++n)
      EXPECT_NEAR(probe[n + 1], a * coefs[n], 1e-3) << "n=" << n;
  }
}

TEST(Builder, ZeroCoefficientsProduceNoAdders) {
  auto d = build_fir({0.0, 0.5, 0.0}, {}, "z");
  // 0.5 is a single CSD digit: no CSD adders; tap combining adds exist
  // only where products exist.
  EXPECT_LE(d.graph.adder_count(), 2u);
  Simulator sim(d.graph);
  std::vector<std::int64_t> stim{fx::from_real(0.5, fx::Format::unit(12)),
                                 0, 0, 0, 0};
  const auto probe = sim.run_probe(stim, d.output);
  EXPECT_NEAR(probe[1], 0.0, 1e-9);
  EXPECT_NEAR(probe[2], 0.25, 1e-3);
  EXPECT_NEAR(probe[3], 0.0, 1e-9);
}

TEST(Builder, NeverOverflowsUnderAdversarialInput) {
  // Worst-case input (sign-matched to the impulse response) drives every
  // node to its L1 bound; conservative scaling must absorb it.
  const std::vector<double> coefs{0.3, -0.3, 0.2, -0.1, 0.08};
  auto d = build_fir(coefs, {}, "adv");
  const auto in_fmt = fx::Format::unit(12);

  // Build a +/- full-scale stimulus matching sign of h reversed.
  const auto h = d.quantized_impulse_response();
  std::vector<std::int64_t> stim;
  for (int rep = 0; rep < 3; ++rep)
    for (auto it = h.rbegin(); it != h.rend(); ++it)
      stim.push_back(*it >= 0 ? in_fmt.raw_max() : in_fmt.raw_min());

  // The behavioural simulator wraps on overflow; compare against the
  // double-precision model to detect any wrap.
  Simulator sim(d.graph);
  std::vector<double> xr;
  for (const auto r : stim) xr.push_back(in_fmt.to_real(r));
  const auto ref = dsp::filter_signal(h, xr);
  for (std::size_t n = 0; n < stim.size(); ++n) {
    sim.step(stim[n]);
    if (n == 0) continue; // input-register latency
    EXPECT_NEAR(sim.real(d.output), ref[n - 1], 1e-3) << "n=" << n;
  }
}

TEST(Builder, StatsReflectOptions) {
  FirBuilderOptions opt;
  opt.input_width = 12;
  opt.coef_width = 14;
  auto d = build_fir({0.3, -0.2, 0.1}, opt, "s");
  const auto s = d.stats();
  EXPECT_EQ(s.width_in, 12);
  EXPECT_EQ(s.width_coef, 14);
  EXPECT_EQ(s.width_out, 16);
  EXPECT_EQ(s.registers, d.graph.register_count());
  EXPECT_EQ(s.adders, d.graph.adder_count());
  EXPECT_EQ(d.tap_accumulators.size(), 3u);
}

TEST(Builder, TapAccumulatorsAreOrdered) {
  auto d = build_fir({0.1, 0.2, 0.3, 0.35}, {}, "o");
  // w_0 is the output-side accumulator; later taps feed earlier ones.
  for (const NodeId id : d.tap_accumulators) EXPECT_NE(id, kNoNode);
  EXPECT_EQ(d.graph.node(d.output).kind, OpKind::Output);
}

TEST(Builder, L1TooLargeRejected) {
  // Coefficients summing (in magnitude) well above 1.0 cannot satisfy
  // the 16-bit unit output format.
  const std::vector<double> coefs(8, 0.5);
  EXPECT_THROW(build_fir(coefs, {}, "big"), precondition_error);
}

TEST(Builder, WidthsAreConservative) {
  // Every adder's format must cover its L1 bound (no possible wrap).
  auto d = build_fir({0.24, -0.33, 0.09, -0.055, 0.2}, {}, "w");
  for (const NodeId id : d.graph.adders()) {
    const auto& nd = d.graph.node(id);
    const double full = std::ldexp(1.0, nd.fmt.width - 1 - nd.fmt.frac);
    EXPECT_LE(d.linear[std::size_t(id)].l1_bound, full + 1e-12)
        << "node " << nd.name;
  }
}

} // namespace
} // namespace fdbist::rtl
