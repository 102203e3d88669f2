#include "dsp/fir_design.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"
#include "dsp/window.hpp"

namespace fdbist::dsp {

namespace {

// sin(pi x) / (pi x) with the removable singularity filled in.
double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

} // namespace

Expected<void> validate_fir_spec(const FirSpec& spec) {
  auto invalid = [](const char* why) {
    return Error{ErrorCode::InvalidArgument, why};
  };
  if (spec.taps < 3) return invalid("FIR length must be >= 3");
  if (!(spec.f1 > 0.0 && spec.f1 < 0.5))
    return invalid("band edge f1 must lie in (0, 0.5)");
  const bool two_edges =
      spec.kind == FilterKind::Bandpass || spec.kind == FilterKind::Bandstop;
  if (two_edges && !(spec.f2 > spec.f1 && spec.f2 < 0.5))
    return invalid("band edge f2 must lie in (f1, 0.5)");
  const bool zero_at_nyquist =
      spec.kind == FilterKind::Lowpass || spec.kind == FilterKind::Bandpass;
  if (spec.taps % 2 == 0 && !zero_at_nyquist)
    return invalid("even-length (type II) FIR cannot realize a response "
                   "that is nonzero at Nyquist (highpass/bandstop)");
  return {};
}

std::vector<double> ideal_impulse_response(const FirSpec& spec) {
  if (const auto ok = validate_fir_spec(spec); !ok)
    throw precondition_error(ok.error().message);
  const std::size_t n = spec.taps;
  const double center = (static_cast<double>(n) - 1.0) / 2.0;
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) - center;
    switch (spec.kind) {
    case FilterKind::Lowpass:
      h[i] = 2.0 * spec.f1 * sinc(2.0 * spec.f1 * t);
      break;
    case FilterKind::Highpass:
      // delta(t) - lowpass(f1); valid because validation forced odd length.
      h[i] = sinc(t) - 2.0 * spec.f1 * sinc(2.0 * spec.f1 * t);
      break;
    case FilterKind::Bandpass:
      h[i] = 2.0 * spec.f2 * sinc(2.0 * spec.f2 * t) -
             2.0 * spec.f1 * sinc(2.0 * spec.f1 * t);
      break;
    case FilterKind::Bandstop:
      h[i] = sinc(t) - (2.0 * spec.f2 * sinc(2.0 * spec.f2 * t) -
                        2.0 * spec.f1 * sinc(2.0 * spec.f1 * t));
      break;
    }
  }
  return h;
}

std::vector<double> design_fir(const FirSpec& spec) {
  auto h = ideal_impulse_response(spec);
  const auto w = make_window(WindowKind::Kaiser, spec.taps, spec.kaiser_beta);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] *= w[i];
  return h;
}

std::complex<double> freq_response(const std::vector<double>& h, double f) {
  std::complex<double> acc{0.0, 0.0};
  const double w = -2.0 * std::numbers::pi * f;
  for (std::size_t i = 0; i < h.size(); ++i)
    acc += h[i] * std::complex<double>{std::cos(w * static_cast<double>(i)),
                                       std::sin(w * static_cast<double>(i))};
  return acc;
}

double l1_norm(const std::vector<double>& h) {
  double s = 0.0;
  for (double v : h) s += std::abs(v);
  return s;
}

double energy(const std::vector<double>& h) {
  double s = 0.0;
  for (double v : h) s += v * v;
  return s;
}

} // namespace fdbist::dsp
