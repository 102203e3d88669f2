// Canonic-signed-digit (CSD) coefficient representation.
//
// The paper's filters (Section 3) realize fixed-coefficient multiplications
// as hardwired shift-and-add structures derived from a canonic-signed-digit
// recoding of each coefficient [6,7,8]. A CSD form writes an integer as a
// sum of signed powers of two with no two adjacent nonzero digits; it is
// the unique minimal-digit-count signed-digit form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fixedpoint/format.hpp"

namespace fdbist::csd {

/// One signed power-of-two term: sign * 2^shift (shift counted in raw
/// integer bits, i.e. value contribution is sign << shift).
struct Term {
  int shift = 0;
  int sign = 1; ///< +1 or -1
  friend constexpr bool operator==(const Term&, const Term&) = default;
};

/// CSD digit string for a signed integer, LSB-first terms.
std::vector<Term> encode(std::int64_t value);

/// Inverse of encode (works for any signed-digit term list).
std::int64_t decode(const std::vector<Term>& terms);

/// Number of nonzero digits in the CSD form of `value`.
int nonzero_digits(std::int64_t value);

/// Closest integer to `value` whose CSD form has at most `max_digits`
/// nonzero digits (greedy signed-power-of-two rounding, as in
/// powers-of-two coefficient search [7]).
std::int64_t round_to_digits(std::int64_t value, int max_digits);

/// A quantized filter coefficient: real target, fixed-point raw value and
/// its CSD terms.
struct Coefficient {
  double target = 0.0;        ///< ideal real coefficient
  std::int64_t raw = 0;       ///< quantized integer value
  fx::Format fmt;             ///< coefficient format (Q1.(w-1))
  std::vector<Term> terms;    ///< CSD terms of `raw`, LSB-first

  double real() const { return fmt.to_real(raw); }
  double quantization_error() const { return real() - target; }
  /// Adders/subtractors needed to realize this multiplication
  /// (nonzero digits minus one; zero coefficients cost nothing).
  int adder_cost() const {
    return terms.empty() ? 0 : static_cast<int>(terms.size()) - 1;
  }
  std::string to_string() const;
};

/// Options controlling coefficient quantization.
struct QuantizeOptions {
  int width = 15;       ///< coefficient word length (paper: 14–15 bits)
  int max_digits = 0;   ///< cap on nonzero CSD digits (0 = unlimited)
};

/// Quantize one real coefficient in [-1, 1) to CSD form.
Coefficient quantize(double target, const QuantizeOptions& opt);

/// Quantize a whole impulse response.
std::vector<Coefficient> quantize_all(const std::vector<double>& h,
                                      const QuantizeOptions& opt);

/// Total adder cost of a quantized coefficient set.
int total_adder_cost(const std::vector<Coefficient>& coefs);

} // namespace fdbist::csd
