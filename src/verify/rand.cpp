#include "verify/rand.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "rtl/decimator_builder.hpp"
#include "rtl/iir_builder.hpp"
#include "tpg/generators.hpp"

namespace fdbist::verify {

namespace {

constexpr std::int32_t kMinWidth = 2;
constexpr std::int32_t kMaxWidth = 20;

std::int32_t clamp_width(std::int32_t w) {
  return std::clamp(w, kMinWidth, kMaxWidth);
}

/// Clamp a pool index to the pool built so far (index 0 = the input).
std::uint32_t clamp_pool(std::uint32_t idx, std::size_t pool_size) {
  return idx < pool_size ? idx : static_cast<std::uint32_t>(idx % pool_size);
}

} // namespace

rtl::Graph build_graph(const RtlCase& c) {
  rtl::Graph g;
  std::vector<rtl::NodeId> pool;
  const std::int32_t in_w = clamp_width(c.input_width);
  pool.push_back(g.input(fx::Format{in_w, in_w - 1}));

  for (const OpSpec& op : c.ops) {
    const rtl::NodeId a = pool[clamp_pool(op.a, pool.size())];
    const fx::Format afmt = g.node(a).fmt;
    switch (op.kind) {
    case rtl::OpKind::Add:
    case rtl::OpKind::Sub: {
      const rtl::NodeId b = pool[clamp_pool(op.b, pool.size())];
      const int frac = std::max(afmt.frac, g.node(b).fmt.frac);
      const fx::Format fmt{clamp_width(op.width), frac};
      pool.push_back(op.kind == rtl::OpKind::Add ? g.add(a, b, fmt)
                                                 : g.sub(a, b, fmt));
      break;
    }
    case rtl::OpKind::Scale:
      pool.push_back(g.scale(a, std::clamp(op.shift, -4, 8)));
      break;
    case rtl::OpKind::Resize:
      pool.push_back(g.resize(
          a, fx::Format{clamp_width(op.width),
                        afmt.frac + std::clamp(op.frac_delta, -6, 6)}));
      break;
    case rtl::OpKind::Reg:
      pool.push_back(g.reg(a));
      break;
    default: { // Const (Input/Output spec entries degrade to constants)
      const fx::Format fmt{clamp_width(op.width), afmt.frac};
      pool.push_back(g.constant(fx::wrap(op.cval, fmt), fmt));
      break;
    }
    }
  }

  // Observe the tail plus two interior nodes, as the lowering fuzz test
  // does — mid-graph probes catch divergence that later truncation or
  // wrapping would mask at the final node.
  g.output(pool.back());
  if (pool.size() > 2) g.output(pool[pool.size() / 2]);
  if (pool.size() > 3) g.output(pool[pool.size() / 3]);
  return g;
}

std::vector<std::int64_t> driven_stimulus(const RtlCase& c) {
  const std::int32_t in_w = clamp_width(c.input_width);
  const fx::Format fmt{in_w, in_w - 1};
  std::vector<std::int64_t> out;
  out.reserve(c.stimulus.size());
  for (const std::int64_t x : c.stimulus) out.push_back(fx::wrap(x, fmt));
  return out;
}

namespace {

/// Sanitize a raw coefficient list: finite, nonzero, within (-0.9, 0.9),
/// L1-prescaled to `target` so the builder's output-fit requirement
/// holds with margin.
std::vector<double> sane_coefs(const std::vector<double>& raw,
                               double target) {
  std::vector<double> coefs;
  for (const double v : raw)
    if (v != 0.0 && std::isfinite(v)) coefs.push_back(std::clamp(v, -0.9, 0.9));
  if (coefs.empty()) coefs.push_back(0.25);
  double l1 = 0.0;
  for (const double v : coefs) l1 += std::abs(v);
  if (l1 > target)
    for (double& v : coefs) v *= target / l1;
  return coefs;
}

/// Real-valued L1 gain of one biquad section, by direct DF-I recursion.
double section_l1(const rtl::BiquadSection& s, int n) {
  double l1 = 0.0;
  double x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = i == 0 ? 1.0 : 0.0;
    const double y = s.b0 * x + s.b1 * x1 + s.b2 * x2 - s.a1 * y1 - s.a2 * y2;
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = y;
    l1 += std::abs(y);
  }
  return l1;
}

/// Clamp raw section values into build_iir_biquad's stability contract
/// and prescale each section's numerator so its own L1 gain stays below
/// 0.85. Per-section prescaling (rather than cascade-level) bounds every
/// *partial* cascade too, so no intermediate state format can overflow
/// regardless of how later sections attenuate.
std::vector<rtl::BiquadSection> sane_sections(
    const std::vector<double>& raw) {
  std::vector<rtl::BiquadSection> secs;
  for (std::size_t i = 0; i + 5 <= raw.size() && secs.size() < 3; i += 5) {
    auto safe = [&](double v) {
      return std::isfinite(v) ? std::clamp(v, -0.9, 0.9) : 0.0;
    };
    rtl::BiquadSection s;
    s.b0 = safe(raw[i]);
    s.b1 = safe(raw[i + 1]);
    s.b2 = safe(raw[i + 2]);
    s.a2 = std::isfinite(raw[i + 4]) ? std::clamp(raw[i + 4], -0.4, 0.7)
                                     : 0.0;
    const double a1_lim = 0.8 * (1.0 + s.a2);
    s.a1 = std::isfinite(raw[i + 3]) ? std::clamp(raw[i + 3], -a1_lim, a1_lim)
                                     : 0.0;
    if (s.b0 == 0.0 && s.b1 == 0.0 && s.b2 == 0.0) s.b0 = 0.25;
    const double l1 = section_l1(s, 512);
    if (l1 > 0.85) {
      const double scale = 0.85 / l1;
      s.b0 *= scale;
      s.b1 *= scale;
      s.b2 *= scale;
    }
    secs.push_back(s);
  }
  if (secs.empty())
    secs.push_back(rtl::BiquadSection{0.25, 0.1, -0.2, -0.3, 0.2});
  return secs;
}

int sane_factor(std::int32_t factor) {
  return 2 + std::abs(factor) % 3; // 2..4
}

/// Decimator lane width: keeps the packed word within every stimulus
/// generator's supported range (LFSRs top out at 31 bits; 24 leaves
/// margin) while honoring the builder's lane_width >= 2.
int sane_lane_width(std::int32_t input_width, int factor) {
  return std::clamp(input_width, 4, 24 / factor);
}

} // namespace

rtl::DesignFamily filter_family(const FilterCase& c) {
  return static_cast<rtl::DesignFamily>(c.family % 3);
}

rtl::FilterDesign build_filter(const FilterCase& c) {
  const int coef_width = std::clamp(c.coef_width, 8, 16);
  switch (filter_family(c)) {
  case rtl::DesignFamily::IirBiquad: {
    rtl::IirBuilderOptions opt;
    opt.input_width = std::clamp(c.input_width, 6, 14);
    opt.coef_width = coef_width;
    opt.product_frac = coef_width;
    opt.state_width = coef_width + 5;
    // The builder's wrap-free check charges recirculated truncation
    // slack on top of the real response, so a section prescaled to
    // 0.85 real L1 can still exceed the unit output format at narrow
    // coefficient widths. Shrink the whole response until the interval
    // check accepts it — the retry sequence depends only on the case,
    // so corpus replay stays bit-exact.
    auto secs = sane_sections(c.coefs);
    for (int attempt = 0;; ++attempt) {
      try {
        return rtl::build_iir_biquad(secs, opt, "fuzz-iir");
      } catch (const precondition_error&) {
        if (attempt >= 6) throw;
        for (auto& s : secs) {
          s.b0 *= 0.7;
          s.b1 *= 0.7;
          s.b2 *= 0.7;
          s.a1 *= 0.85;
          s.a2 *= 0.85;
        }
      }
    }
  }
  case rtl::DesignFamily::PolyphaseDecimator: {
    rtl::DecimatorOptions opt;
    opt.factor = sane_factor(c.factor);
    opt.lane_width = sane_lane_width(c.input_width, opt.factor);
    opt.coef_width = coef_width;
    opt.product_frac = coef_width;
    return rtl::build_polyphase_decimator(sane_coefs(c.coefs, 0.85), opt,
                                          "fuzz-decim");
  }
  default: {
    rtl::FirBuilderOptions opt;
    opt.input_width = std::clamp(c.input_width, 6, 14);
    opt.coef_width = coef_width;
    opt.product_frac = coef_width;
    return rtl::build_fir(sane_coefs(c.coefs, 0.85), opt, "fuzz");
  }
  }
}

namespace {

std::unique_ptr<tpg::Generator> make_source(std::uint8_t generator,
                                            int width) {
  switch (generator % 6) {
  case 0: return tpg::make_generator(tpg::GeneratorKind::Lfsr1, width);
  case 1: return tpg::make_generator(tpg::GeneratorKind::Lfsr2, width);
  case 2: return tpg::make_generator(tpg::GeneratorKind::LfsrD, width);
  case 3: return tpg::make_generator(tpg::GeneratorKind::LfsrM, width);
  case 4: return tpg::make_generator(tpg::GeneratorKind::Ramp, width);
  default: return std::make_unique<tpg::WhiteUniformSource>(width, 7);
  }
}

} // namespace

std::vector<std::int64_t> filter_stimulus(const FilterCase& c) {
  int width = std::clamp(c.input_width, 6, 14);
  if (filter_family(c) == rtl::DesignFamily::PolyphaseDecimator) {
    // Drive the full packed word: every lane sees generator bits.
    const int factor = sane_factor(c.factor);
    width = factor * sane_lane_width(c.input_width, factor);
  }
  auto gen = make_source(c.generator, width);
  return gen->generate_raw(std::max<std::uint32_t>(c.vectors, 1));
}

RtlCase random_rtl_case(std::uint64_t seed, std::size_t ops,
                        std::size_t cycles) {
  Xoshiro256 rng(seed);
  RtlCase c;
  c.input_width = 3 + static_cast<std::int32_t>(rng.below(10));

  auto pick = [&](std::size_t pool_size) {
    return static_cast<std::uint32_t>(rng.below(pool_size));
  };
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t pool = i + 1;
    OpSpec op;
    switch (rng.below(5)) {
    case 0: // add/sub, possibly narrower than full precision (wraps)
      op.kind = rng.below(2) != 0 ? rtl::OpKind::Add : rtl::OpKind::Sub;
      op.a = pick(pool);
      op.b = pick(pool);
      op.width = 2 + static_cast<std::int32_t>(rng.below(18));
      break;
    case 1:
      op.kind = rtl::OpKind::Scale;
      op.a = pick(pool);
      op.shift = static_cast<std::int32_t>(rng.below(9)) - 2;
      break;
    case 2: // random truncation / extension
      op.kind = rtl::OpKind::Resize;
      op.a = pick(pool);
      op.width = 2 + static_cast<std::int32_t>(rng.below(18));
      op.frac_delta = static_cast<std::int32_t>(rng.below(7)) - 3;
      break;
    case 3:
      op.kind = rtl::OpKind::Reg;
      op.a = pick(pool);
      break;
    default:
      op.kind = rtl::OpKind::Const;
      op.a = pick(pool); // donor of the fractional alignment
      op.width = 2 + static_cast<std::int32_t>(rng.below(10));
      op.cval = static_cast<std::int64_t>(rng()); // wrapped at build
      break;
    }
    c.ops.push_back(op);
  }

  c.stimulus.reserve(cycles);
  for (std::size_t i = 0; i < cycles; ++i)
    c.stimulus.push_back(static_cast<std::int64_t>(rng())); // wrapped later
  return c;
}

FilterCase random_filter_case(std::uint64_t seed, std::int32_t family) {
  Xoshiro256 rng(seed);
  FilterCase c;
  c.family = family >= 0 ? static_cast<std::uint8_t>(family % 3)
                         : static_cast<std::uint8_t>(rng.below(3));
  c.factor = 2 + static_cast<std::int32_t>(rng.below(3));
  // IIR cases read coefficients in groups of five (one biquad section),
  // so draw whole sections; the other families take any tap count.
  const std::size_t taps =
      filter_family(c) == rtl::DesignFamily::IirBiquad
          ? 5 * (1 + rng.below(2))
          : 2 + rng.below(6);
  for (std::size_t i = 0; i < taps; ++i) {
    double v = rng.uniform() - 0.5;
    if (std::abs(v) < 1e-3) v = 0.25;
    c.coefs.push_back(v);
  }
  c.input_width = 8 + static_cast<std::int32_t>(rng.below(5));
  c.coef_width = 10 + static_cast<std::int32_t>(rng.below(6));
  c.generator = static_cast<std::uint8_t>(rng.below(6));
  c.vectors = 64 + static_cast<std::uint32_t>(rng.below(97));
  // A thin sample of the fault universe keeps a case in the low
  // milliseconds. Its 40 faults fit in one batch at every SIMD width;
  // multi-batch passes are covered by EngineEquivalence.* and
  // FaultParallel.*, not by the fuzzer.
  const std::uint32_t stride = 5 + static_cast<std::uint32_t>(rng.below(9));
  for (std::uint32_t i = 0; i < 40; ++i)
    c.fault_indices.push_back(i * stride +
                              static_cast<std::uint32_t>(rng.below(3)));
  return c;
}

} // namespace fdbist::verify
