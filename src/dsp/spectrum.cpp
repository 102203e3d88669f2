#include "dsp/spectrum.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace fdbist::dsp {

std::vector<double> welch_psd(const std::vector<double>& x,
                              std::size_t segment) {
  FDBIST_REQUIRE(segment >= 8 && (segment & (segment - 1)) == 0,
                 "segment length must be a power of two >= 8");
  FDBIST_REQUIRE(x.size() >= segment, "signal shorter than one Welch segment");

  const std::size_t hop = segment / 2;
  const auto w = make_window(WindowKind::Hann, segment);
  double wpow = 0.0; // window power for normalization
  for (double v : w) wpow += v * v;

  const std::size_t bins = segment / 2 + 1;
  std::vector<double> psd(bins, 0.0);
  std::vector<cplx> buf(segment);
  std::size_t nseg = 0;
  for (std::size_t start = 0; start + segment <= x.size(); start += hop) {
    for (std::size_t i = 0; i < segment; ++i)
      buf[i] = cplx{x[start + i] * w[i], 0.0};
    fft_pow2_inplace(buf, /*inverse=*/false);
    for (std::size_t k = 0; k < bins; ++k) {
      // One-sided: interior bins collect power from both +f and -f.
      const double scale = (k == 0 || k == segment / 2) ? 1.0 : 2.0;
      psd[k] += scale * std::norm(buf[k]);
    }
    ++nseg;
  }
  // Normalize: divide by (window power * number of segments); the result is
  // a density over f in [0, 0.5] in cycles/sample.
  const double norm = 1.0 / (wpow * static_cast<double>(nseg));
  for (auto& v : psd) v *= norm;
  return psd;
}

std::vector<double> welch_frequencies(std::size_t segment) {
  const std::size_t bins = segment / 2 + 1;
  std::vector<double> f(bins);
  for (std::size_t k = 0; k < bins; ++k)
    f[k] = static_cast<double>(k) / static_cast<double>(segment);
  return f;
}

std::vector<double> to_db(const std::vector<double>& p, double floor_db) {
  std::vector<double> out(p.size());
  const double floor_lin = std::pow(10.0, floor_db / 10.0);
  for (std::size_t i = 0; i < p.size(); ++i)
    out[i] = 10.0 * std::log10(p[i] > floor_lin ? p[i] : floor_lin);
  return out;
}

} // namespace fdbist::dsp
