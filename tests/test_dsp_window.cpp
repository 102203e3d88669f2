#include <cmath>
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "dsp/window.hpp"

namespace fdbist::dsp {
namespace {

class WindowShape
    : public ::testing::TestWithParam<std::pair<WindowKind, double>> {};

TEST_P(WindowShape, SymmetricAboutCenter) {
  const auto [kind, beta] = GetParam();
  for (const std::size_t n : {5u, 8u, 33u, 64u}) {
    const auto w = make_window(kind, n, beta);
    ASSERT_EQ(w.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(w[i], w[n - 1 - i], 1e-12) << "n=" << n << " i=" << i;
  }
}

TEST_P(WindowShape, PeaksAtCenterAndBounded) {
  const auto [kind, beta] = GetParam();
  const auto w = make_window(kind, 65, beta);
  const double peak = w[32];
  for (const double v : w) {
    EXPECT_LE(v, peak + 1e-12);
    EXPECT_GE(v, -0.01); // Blackman dips barely below 0 at edges? no: >= 0
  }
  EXPECT_NEAR(peak, 1.0, 1e-9); // all these windows peak at 1
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WindowShape,
    ::testing::Values(std::pair{WindowKind::Rectangular, 0.0},
                      std::pair{WindowKind::Hann, 0.0},
                      std::pair{WindowKind::Hamming, 0.0},
                      std::pair{WindowKind::Blackman, 0.0},
                      std::pair{WindowKind::Kaiser, 5.0},
                      std::pair{WindowKind::Kaiser, 9.0}));

TEST(Window, RectangularIsAllOnes) {
  for (const double v : make_window(WindowKind::Rectangular, 17))
    EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndpointsAreZero) {
  const auto w = make_window(WindowKind::Hann, 21);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
}

TEST(Window, KaiserBetaZeroIsRectangular) {
  const auto w = make_window(WindowKind::Kaiser, 15, 0.0);
  for (const double v : w) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Window, KaiserLargerBetaNarrower) {
  const auto w5 = make_window(WindowKind::Kaiser, 33, 5.0);
  const auto w9 = make_window(WindowKind::Kaiser, 33, 9.0);
  // Edges decay faster with larger beta.
  EXPECT_LT(w9.front(), w5.front());
  EXPECT_LT(w9[4], w5[4]);
}

TEST(Window, LengthOneIsUnity) {
  const auto w = make_window(WindowKind::Hann, 1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Window, RejectsEmpty) {
  EXPECT_THROW(make_window(WindowKind::Hann, 0), precondition_error);
}

TEST(BesselI0, KnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-15);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(2.0), 2.2795853023360673, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-9);
}

TEST(BesselI0, EvenFunction) {
  EXPECT_NEAR(bessel_i0(-3.0), bessel_i0(3.0), 1e-12);
}

} // namespace
} // namespace fdbist::dsp
