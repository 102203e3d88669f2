// Linear models of LFSR-generated test signals (paper Section 7.1).
//
// An N-bit Type 1 LFSR's word output can be modeled as 0/1 white noise
// (variance 0.25) driving a short FIR:
//
//   g[n] = -1 (n = 0),  2^-n (n = 1..N-1),  0 otherwise
//
// for MSB-to-LSB shifting; the LSB-to-MSB direction is the time reversal,
// which has the identical power spectrum. Cascading g with a subfilter's
// impulse response h_k predicts the variance and spectrum of the test
// signal at any internal adder.
#pragma once

#include <vector>

namespace fdbist::analysis {

/// The paper's impulse-response model g[n] of an N-bit Type 1 LFSR
/// (MSB-to-LSB shifting convention).
std::vector<double> lfsr1_impulse_model(int width);

/// Analytic power spectrum of the Type 1 LFSR word signal: the DFT of the
/// aperiodic autocorrelation of g[n], scaled by the 0/1-source variance
/// (0.25), sampled on `bins` frequencies in [0, 0.5].
std::vector<double> lfsr1_power_spectrum(int width, std::size_t bins);

} // namespace fdbist::analysis
