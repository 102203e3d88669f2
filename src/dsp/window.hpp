// Window functions for FIR design and spectral estimation.
#pragma once

#include <vector>

namespace fdbist::dsp {

enum class WindowKind { Rectangular, Hann, Hamming, Blackman, Kaiser };

/// Symmetric window of length `n`. `beta` is used only by Kaiser.
std::vector<double> make_window(WindowKind kind, std::size_t n,
                                double beta = 0.0);

/// Zeroth-order modified Bessel function of the first kind (series
/// expansion), used by the Kaiser window.
double bessel_i0(double x);

} // namespace fdbist::dsp
