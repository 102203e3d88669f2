#include "csd/csd.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace fdbist::csd {

std::vector<Term> encode(std::int64_t value) {
  // Classic LSB-first recoding: at each step, if the remaining value is
  // odd, emit the digit d in {-1, +1} that makes (value - d) divisible by
  // 4, guaranteeing the next digit is zero (the "no adjacent nonzero
  // digits" canonic property).
  std::vector<Term> terms;
  std::int64_t v = value;
  int shift = 0;
  while (v != 0) {
    if (v & 1) {
      const int d = 2 - static_cast<int>(((v % 4) + 4) % 4); // +1 or -1
      terms.push_back({shift, d});
      v -= d;
    }
    v >>= 1;
    ++shift;
  }
  return terms;
}

std::int64_t decode(const std::vector<Term>& terms) {
  std::int64_t v = 0;
  for (const auto& t : terms) {
    FDBIST_REQUIRE(t.shift >= 0 && t.shift < 62, "CSD term shift out of range");
    FDBIST_REQUIRE(t.sign == 1 || t.sign == -1, "CSD term sign must be ±1");
    v += static_cast<std::int64_t>(t.sign) * (std::int64_t{1} << t.shift);
  }
  return v;
}

int nonzero_digits(std::int64_t value) {
  return static_cast<int>(encode(value).size());
}

std::int64_t round_to_digits(std::int64_t value, int max_digits) {
  FDBIST_REQUIRE(max_digits >= 1, "max_digits must be >= 1");
  // Greedy residual rounding: repeatedly subtract the signed power of two
  // closest to the residual. This is the standard heuristic for
  // digit-limited powers-of-two coefficient rounding.
  std::int64_t approx = 0;
  std::int64_t residual = value;
  for (int d = 0; d < max_digits && residual != 0; ++d) {
    const double mag = std::abs(static_cast<double>(residual));
    const int shift = static_cast<int>(std::llround(std::log2(mag)));
    const std::int64_t p = std::int64_t{1} << std::max(shift, 0);
    const std::int64_t term = residual > 0 ? p : -p;
    approx += term;
    residual -= term;
  }
  // Greedy can leave a representable value approximated; if the exact CSD
  // form already fits the budget, prefer it.
  if (nonzero_digits(value) <= max_digits) return value;
  return approx;
}

std::string Coefficient::to_string() const {
  std::ostringstream os;
  os << target << " -> " << real() << " (raw " << raw << ", "
     << fmt.to_string() << ", digits";
  for (const auto& t : terms)
    os << ' ' << (t.sign > 0 ? '+' : '-') << "2^" << t.shift;
  os << ')';
  return os.str();
}

Coefficient quantize(double target, const QuantizeOptions& opt) {
  FDBIST_REQUIRE(opt.width >= 2 && opt.width <= 62,
                 "coefficient width out of range");
  Coefficient c;
  c.target = target;
  c.fmt = fx::Format::unit(opt.width);
  c.raw = fx::from_real(target, c.fmt);
  if (opt.max_digits > 0) c.raw = round_to_digits(c.raw, opt.max_digits);
  FDBIST_ASSERT(fx::representable(c.raw, c.fmt) ||
                    opt.max_digits > 0, // greedy rounding may hit raw_max+1
                "quantized coefficient does not fit its format");
  c.raw = fx::saturate(c.raw, c.fmt);
  c.terms = encode(c.raw);
  return c;
}

std::vector<Coefficient> quantize_all(const std::vector<double>& h,
                                      const QuantizeOptions& opt) {
  std::vector<Coefficient> out;
  out.reserve(h.size());
  for (double v : h) out.push_back(quantize(v, opt));
  return out;
}

int total_adder_cost(const std::vector<Coefficient>& coefs) {
  int total = 0;
  for (const auto& c : coefs) total += c.adder_cost();
  return total;
}

} // namespace fdbist::csd
