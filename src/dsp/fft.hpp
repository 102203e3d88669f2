// Discrete Fourier transforms.
//
// Radix-2 iterative in-place FFT for power-of-two lengths with a direct
// O(n^2) DFT fallback for other lengths (used only for small analytic
// grids). All transforms use the engineering sign convention
// X[k] = sum_n x[n] e^{-j 2 pi k n / N}.
#pragma once

#include <complex>
#include <vector>

namespace fdbist::dsp {

using cplx = std::complex<double>;

/// Forward DFT of `x` (any length; O(n log n) when the length is a power of
/// two, O(n^2) otherwise).
std::vector<cplx> fft(std::vector<cplx> x);

/// Inverse DFT (same length rules), normalized by 1/N.
std::vector<cplx> ifft(std::vector<cplx> x);

/// In-place radix-2 FFT; `x.size()` must be a power of two.
void fft_pow2_inplace(std::vector<cplx>& x, bool inverse);

} // namespace fdbist::dsp
