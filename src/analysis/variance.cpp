#include "analysis/variance.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/lfsr_model.hpp"
#include "common/check.hpp"
#include "dsp/convolution.hpp"

namespace fdbist::analysis {

namespace {

double response_energy(const std::vector<double>& h) {
  double s = 0.0;
  for (double v : h) s += v * v;
  return s;
}

} // namespace

std::vector<double> predict_sigma_white(const rtl::FilterDesign& d,
                                        double sigma_x2) {
  FDBIST_REQUIRE(sigma_x2 >= 0.0, "variance must be non-negative");
  std::vector<double> out(d.linear.size(), 0.0);
  for (std::size_t i = 0; i < d.linear.size(); ++i)
    out[i] = std::sqrt(sigma_x2 * response_energy(d.linear[i].impulse));
  return out;
}

std::vector<double> predict_sigma_lfsr1(const rtl::FilterDesign& d,
                                        int lfsr_width) {
  const auto g = lfsr1_impulse_model(lfsr_width);
  constexpr double sigma_x2 = 0.25; // 0/1 white-noise source
  std::vector<double> out(d.linear.size(), 0.0);
  for (std::size_t i = 0; i < d.linear.size(); ++i) {
    if (d.linear[i].impulse.empty()) continue;
    const auto hk = dsp::convolve(d.linear[i].impulse, g);
    out[i] = std::sqrt(sigma_x2 * response_energy(hk));
  }
  return out;
}

std::vector<AttenuationReport> find_attenuation_problems(
    const rtl::FilterDesign& d, const std::vector<double>& sigma,
    double threshold) {
  FDBIST_REQUIRE(sigma.size() == d.graph.size(),
                 "sigma vector does not match the design");
  std::vector<AttenuationReport> out;
  for (const rtl::NodeId id : d.graph.adders()) {
    const fx::Format fmt = d.graph.node(id).fmt;
    AttenuationReport r;
    r.node = id;
    r.sigma = sigma[std::size_t(id)];
    r.full_scale = std::ldexp(1.0, fmt.width - 1 - fmt.frac);
    r.relative = r.sigma / r.full_scale;
    if (r.relative >= threshold) continue;
    r.untestable_upper_bits =
        r.relative <= 0.0
            ? fmt.width
            : std::max(0, static_cast<int>(
                              std::floor(-std::log2(r.relative))) -
                              1);
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const AttenuationReport& a, const AttenuationReport& b) {
              return a.relative < b.relative;
            });
  return out;
}

} // namespace fdbist::analysis
