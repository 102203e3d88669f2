// Windowed-sinc FIR filter design (lowpass / highpass / bandpass /
// bandstop) and frequency-response evaluation.
//
// The paper's three CUTs were designed with FIRGEN [6]; we substitute a
// Kaiser-window design flow, which produces the same architecture class
// (linear-phase FIR tap cascades) — see DESIGN.md §2.
#pragma once

#include <complex>
#include <vector>

#include "common/error.hpp"

namespace fdbist::dsp {

enum class FilterKind { Lowpass, Highpass, Bandpass, Bandstop };

/// A FIR design request. Frequencies are normalized to the sample rate
/// (cycles/sample, Nyquist = 0.5).
struct FirSpec {
  FilterKind kind = FilterKind::Lowpass;
  std::size_t taps = 0; ///< filter length (number of coefficients)
  double f1 = 0.0;      ///< cutoff (LP/HP) or lower band edge (BP/BS)
  double f2 = 0.0;      ///< upper band edge (BP/BS only)
  double kaiser_beta = 8.0;
};

/// Check a design request: length >= 3, band edges inside (0, 0.5) and
/// ordered (f1 < f2 for bandpass/bandstop), and no even-length (type II)
/// highpass or bandstop, which is structurally zero at Nyquist.
/// InvalidArgument names the first violated rule.
Expected<void> validate_fir_spec(const FirSpec& spec);

/// Ideal (unwindowed) impulse response for the spec, length spec.taps.
std::vector<double> ideal_impulse_response(const FirSpec& spec);

/// Kaiser-windowed FIR design. Throws precondition_error for specs
/// validate_fir_spec refuses. ideal_impulse_response does the same.
std::vector<double> design_fir(const FirSpec& spec);

/// Complex frequency response H(e^{j 2 pi f}) of impulse response `h`.
std::complex<double> freq_response(const std::vector<double>& h, double f);

/// |H| sampled on `n` uniform frequencies in [0, 0.5].
std::vector<double> magnitude_response(const std::vector<double>& h,
                                       std::size_t n);

/// L1 norm of the impulse response: the filter's worst-case gain bound.
double l1_norm(const std::vector<double>& h);

/// L2 norm squared: sum h[i]^2 (white-noise variance gain, paper Eqn 1).
double energy(const std::vector<double>& h);

} // namespace fdbist::dsp
