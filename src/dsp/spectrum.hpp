// Power spectral density estimation (Welch's method) and the analytic PSD
// helpers used to reproduce Figure 4 of the paper.
#pragma once

#include <cstddef>
#include <vector>

namespace fdbist::dsp {

/// Default Welch segment length (samples).
inline constexpr std::size_t kWelchSegment = 256;

/// One-sided Welch PSD estimate over Hann-windowed segments of `segment`
/// samples (a power of two >= 8) at half overlap, with `segment/2 + 1`
/// bins covering normalized frequencies [0, 0.5]. Normalized so that the
/// sum of all bins times the bin width equals the signal power (white
/// noise of variance v produces a flat estimate at level 2v for
/// 0 < f < 0.5).
std::vector<double> welch_psd(const std::vector<double>& x,
                              std::size_t segment = kWelchSegment);

/// Frequencies (cycles/sample) corresponding to welch_psd bins.
std::vector<double> welch_frequencies(std::size_t segment = kWelchSegment);

/// 10*log10 of each element, clamped at `floor_db`.
std::vector<double> to_db(const std::vector<double>& p,
                          double floor_db = -120.0);

} // namespace fdbist::dsp
