#include "tpg/lfsr.hpp"

#include <bit>

#include "common/bits.hpp"
#include "common/check.hpp"

namespace fdbist::tpg {

namespace {

// Primitive polynomials over GF(2), one per degree, as low-term masks
// (x^degree implicit). Standard table entries.
constexpr std::uint32_t kPrimitiveLowTerms[32] = {
    0,          0,          0x3,       0x3,        // -, -, 2, 3
    0x3,        0x5,        0x3,       0x3,        // 4..7
    0x1D,       0x11,       0x9,       0x5,        // 8..11
    0x53,       0x1B,       0x443,     0x3,        // 12..15
    0x100B,     0x9,        0x81,      0x27,       // 16..19
    0x9,        0x5,        0x3,       0x21,       // 20..23
    0x87,       0x9,        0x47,      0x27,       // 24..27
    0x9,        0x5,        0x800007,  0x9,        // 28..31
};

std::uint32_t bit_reverse(std::uint32_t v, int bits) {
  std::uint32_t out = 0;
  for (int i = 0; i < bits; ++i)
    if ((v >> i) & 1u) out |= 1u << (bits - 1 - i);
  return out;
}

std::uint32_t state_mask(int degree) {
  return degree >= 32 ? ~0u : ((1u << degree) - 1u);
}

} // namespace

Polynomial Polynomial::from_hex_with_top(std::uint32_t bits) {
  FDBIST_REQUIRE(bits > 1, "polynomial must have degree >= 1");
  const int degree = 31 - std::countl_zero(bits);
  Polynomial p;
  p.degree = degree;
  p.low_terms = bits & state_mask(degree);
  FDBIST_REQUIRE(p.low_terms & 1u,
                 "polynomial must include the x^0 term to be primitive");
  return p;
}

Polynomial default_polynomial(int degree) {
  FDBIST_REQUIRE(degree >= 2 && degree <= 31,
                 "supported LFSR degrees are 2..31");
  return Polynomial{degree, kPrimitiveLowTerms[degree]};
}

// ---------------------------------------------------------------------
// Type 1 (Fibonacci)

Lfsr1::Lfsr1(int width, std::uint32_t seed, ShiftDirection dir)
    : Lfsr1(default_polynomial(width), seed, dir) {}

Lfsr1::Lfsr1(Polynomial poly, std::uint32_t seed, ShiftDirection dir)
    : poly_(poly), seed_(seed & state_mask(poly.degree)),
      state_(seed_), dir_(dir) {
  FDBIST_REQUIRE(poly_.degree >= 2 && poly_.degree <= 31,
                 "supported LFSR degrees are 2..31");
  FDBIST_REQUIRE(seed_ != 0, "LFSR seed must be nonzero");
}

void Lfsr1::shift_once() {
  const std::uint32_t mask = state_mask(poly_.degree);
  if (dir_ == ShiftDirection::MsbToLsb) {
    // Newest bit lives at the MSB; the recurrence mask is the low-term
    // mask of the polynomial directly.
    const int fb = std::popcount(state_ & poly_.low_terms) & 1;
    state_ = ((state_ >> 1) |
              (static_cast<std::uint32_t>(fb) << (poly_.degree - 1))) &
             mask;
  } else {
    // Newest bit lives at the LSB; the mask is the bit-reversed low-term
    // mask (see the recurrence derivation in the unit tests).
    const std::uint32_t fib_mask =
        bit_reverse(poly_.low_terms, poly_.degree);
    const int fb = std::popcount(state_ & fib_mask) & 1;
    state_ = ((state_ << 1) | static_cast<std::uint32_t>(fb)) & mask;
  }
}

int Lfsr1::next_bit() {
  shift_once();
  return dir_ == ShiftDirection::MsbToLsb
             ? static_cast<int>((state_ >> (poly_.degree - 1)) & 1u)
             : static_cast<int>(state_ & 1u);
}

std::int64_t Lfsr1::next_raw() {
  shift_once();
  return sign_extend(state_, poly_.degree);
}

void Lfsr1::reset() { state_ = seed_; }

// ---------------------------------------------------------------------
// Type 2 (Galois)

Lfsr2::Lfsr2(int width, std::uint32_t seed, ShiftDirection dir)
    : Lfsr2(default_polynomial(width), seed, dir) {}

Lfsr2::Lfsr2(Polynomial poly, std::uint32_t seed, ShiftDirection dir)
    : poly_(poly), seed_(seed & state_mask(poly.degree)),
      state_(seed_), dir_(dir) {
  FDBIST_REQUIRE(poly_.degree >= 2 && poly_.degree <= 31,
                 "supported LFSR degrees are 2..31");
  FDBIST_REQUIRE(seed_ != 0, "LFSR seed must be nonzero");
}

std::int64_t Lfsr2::next_raw() {
  const std::uint32_t mask = state_mask(poly_.degree);
  if (dir_ == ShiftDirection::LsbToMsb) {
    // Multiply the state by x in GF(2)[x]/p(x).
    const bool carry = (state_ >> (poly_.degree - 1)) & 1u;
    state_ = (state_ << 1) & mask;
    if (carry) state_ ^= poly_.low_terms;
  } else {
    // Multiply by x^-1: if the constant term is set, add p(x) first.
    if (state_ & 1u) {
      state_ = ((state_ ^ poly_.low_terms) >> 1) |
               (1u << (poly_.degree - 1));
    } else {
      state_ >>= 1;
    }
  }
  return sign_extend(state_, poly_.degree);
}

void Lfsr2::reset() { state_ = seed_; }

} // namespace fdbist::tpg
