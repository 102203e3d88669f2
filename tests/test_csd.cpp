#include <cmath>
#include <gtest/gtest.h>

#include "common/xoshiro.hpp"
#include "csd/csd.hpp"

namespace fdbist::csd {
namespace {

TEST(CsdEncode, KnownValues) {
  // 7 = 8 - 1 in CSD (two digits, not three).
  const auto t7 = encode(7);
  ASSERT_EQ(t7.size(), 2u);
  EXPECT_EQ(decode(t7), 7);
  // 5 = 4 + 1.
  EXPECT_EQ(encode(5).size(), 2u);
  // 0 has no digits.
  EXPECT_TRUE(encode(0).empty());
  // -1 is a single digit.
  const auto tm1 = encode(-1);
  ASSERT_EQ(tm1.size(), 1u);
  EXPECT_EQ(tm1[0].sign, -1);
  EXPECT_EQ(tm1[0].shift, 0);
}

TEST(CsdEncode, PowersOfTwoAreSingleDigit) {
  for (int s = 0; s < 40; ++s) {
    EXPECT_EQ(encode(std::int64_t{1} << s).size(), 1u);
    EXPECT_EQ(encode(-(std::int64_t{1} << s)).size(), 1u);
  }
}

class CsdRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CsdRoundTrip, DecodeInvertsEncode) {
  const std::int64_t v = GetParam();
  EXPECT_EQ(decode(encode(v)), v);
}

TEST_P(CsdRoundTrip, NoAdjacentNonzeroDigits) {
  // The canonic property: CSD has no two adjacent nonzero digits.
  const auto terms = encode(GetParam());
  for (std::size_t i = 1; i < terms.size(); ++i)
    EXPECT_GE(terms[i].shift - terms[i - 1].shift, 2)
        << "value " << GetParam();
}

TEST_P(CsdRoundTrip, DigitCountAtMostBinaryOnes) {
  // CSD is minimal among signed-digit representations, so never worse
  // than plain binary.
  const std::int64_t v = GetParam();
  const auto bin_ones = __builtin_popcountll(static_cast<unsigned long long>(
      v < 0 ? -v : v));
  EXPECT_LE(static_cast<int>(encode(v).size()), bin_ones + 1);
}

INSTANTIATE_TEST_SUITE_P(Values, CsdRoundTrip,
                         ::testing::Values(0, 1, -1, 2, 3, -3, 7, -7, 11, 23,
                                           85, -86, 127, 128, -128, 255,
                                           5461, -5461, 16383, -16384,
                                           (1 << 20) - 3, -(1 << 20) + 5));

TEST(CsdEncode, ExhaustiveRoundTripSmallRange) {
  for (std::int64_t v = -4096; v <= 4096; ++v) {
    const auto t = encode(v);
    ASSERT_EQ(decode(t), v) << v;
    for (std::size_t i = 1; i < t.size(); ++i)
      ASSERT_GE(t[i].shift - t[i - 1].shift, 2) << v;
  }
}

TEST(CsdEncode, RandomRoundTrip) {
  Xoshiro256 rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::int64_t>(rng()) >> 20; // ~44-bit range
    EXPECT_EQ(decode(encode(v)), v);
  }
}

TEST(CsdDecode, RejectsBadTerms) {
  EXPECT_THROW(decode({{63, 1}}), precondition_error);
  EXPECT_THROW(decode({{-1, 1}}), precondition_error);
  EXPECT_THROW(decode({{3, 2}}), precondition_error);
}

TEST(NonzeroDigits, MatchesEncode) {
  EXPECT_EQ(nonzero_digits(0), 0);
  EXPECT_EQ(nonzero_digits(7), 2);
  EXPECT_EQ(nonzero_digits(0b101010101), 5);
}

TEST(RoundToDigits, ExactWhenBudgetSuffices) {
  EXPECT_EQ(round_to_digits(7, 2), 7);
  EXPECT_EQ(round_to_digits(5, 2), 5);
  EXPECT_EQ(round_to_digits(1, 1), 1);
  EXPECT_EQ(round_to_digits(0, 3), 0);
}

TEST(RoundToDigits, ApproximatesWhenConstrained) {
  // 0b10101 = 21: with one digit the closest signed power of two is 16.
  const std::int64_t r1 = round_to_digits(21, 1);
  EXPECT_EQ(r1, 16);
  // With two digits: 16 + 4 = 20 or 16+8-..: greedy gives 21-16=5 -> +4.
  const std::int64_t r2 = round_to_digits(21, 2);
  EXPECT_LE(std::abs(r2 - 21), 1);
}

TEST(RoundToDigits, ErrorBoundedByLastPower) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng() & 0xFFFF) - 0x8000;
    for (int d = 1; d <= 4; ++d) {
      const std::int64_t r = round_to_digits(v, d);
      // Greedy halves the residual each step (at worst ~2/3 per digit);
      // a loose but meaningful bound: |err| <= |v| / 2^(d-1) + 1.
      EXPECT_LE(std::abs(r - v),
                std::abs(v) / (std::int64_t{1} << (d - 1)) + 1)
          << "v=" << v << " d=" << d;
    }
  }
}

TEST(RoundToDigits, RejectsZeroBudget) {
  EXPECT_THROW(round_to_digits(5, 0), precondition_error);
}

TEST(Quantize, RepresentsTargetWithinHalfLsb) {
  const QuantizeOptions opt{15, 0};
  for (double t = -0.95; t < 0.95; t += 0.0173) {
    const Coefficient c = quantize(t, opt);
    EXPECT_NEAR(c.real(), t, c.fmt.lsb() / 2 + 1e-12);
    EXPECT_EQ(decode(c.terms), c.raw);
  }
}

TEST(Quantize, DigitLimitRespected) {
  QuantizeOptions opt{15, 3};
  Xoshiro256 rng(55);
  for (int i = 0; i < 300; ++i) {
    const double t = 2.0 * rng.uniform() - 1.0;
    const Coefficient c = quantize(t * 0.99, opt);
    EXPECT_LE(c.terms.size(), 3u) << t;
  }
}

TEST(Quantize, AdderCost) {
  QuantizeOptions opt{15, 0};
  const Coefficient zero = quantize(0.0, opt);
  EXPECT_EQ(zero.adder_cost(), 0);
  const Coefficient pow2 = quantize(0.25, opt);
  EXPECT_EQ(pow2.adder_cost(), 0); // single digit: wiring only
  const Coefficient c = quantize(0.4375, opt); // 0.5 - 0.0625: 2 digits
  EXPECT_EQ(c.adder_cost(), 1);
}

TEST(Quantize, RejectsBadWidth) {
  EXPECT_THROW(quantize(0.5, {1, 0}), precondition_error);
  EXPECT_THROW(quantize(0.5, {63, 0}), precondition_error);
}

TEST(Quantize, AllAndCounters) {
  const std::vector<double> h{0.5, 0.4375, 0.0, -0.375};
  const auto coefs = quantize_all(h, {15, 0});
  ASSERT_EQ(coefs.size(), 4u);
  EXPECT_GE(total_adder_cost(coefs), 1);
  EXPECT_EQ(coefs[2].adder_cost(), 0);
}

TEST(Quantize, ToStringMentionsDigits) {
  const auto c = quantize(0.4375, {15, 0});
  const std::string s = c.to_string();
  EXPECT_NE(s.find("2^"), std::string::npos);
}

} // namespace
} // namespace fdbist::csd
