// Reference-design tests: the Table 1 CUTs as the registry builds them.
#include <cmath>
#include <gtest/gtest.h>

#include "designs/registry.hpp"
#include "dsp/fir_design.hpp"

namespace fdbist::designs {
namespace {

/// The ideal (L1-normalized, unquantized) coefficients a design was
/// quantized from.
std::vector<double> targets(const rtl::FilterDesign& d) {
  std::vector<double> h;
  for (const auto& c : d.coefs) h.push_back(c.target);
  return h;
}

TEST(Table1Specs, NamesAndWidths) {
  // Table 1 widths: 12-bit input, 15/14/15-bit coefficients, 16-bit out.
  const struct {
    const char* name;
    int coef_width;
  } kRows[] = {{"LP", 15}, {"BP", 14}, {"HP", 15}};
  for (const auto& row : kRows) {
    const auto d = make_design(row.name);
    EXPECT_EQ(d.name, row.name);
    EXPECT_EQ(d.family, rtl::DesignFamily::Fir) << row.name;
    const auto s = d.stats();
    EXPECT_EQ(s.width_in, 12) << row.name;
    EXPECT_EQ(s.width_coef, row.coef_width) << row.name;
    EXPECT_EQ(s.width_out, 16) << row.name;
  }
}

TEST(Table1Specs, TapCountsNearSixty) {
  EXPECT_EQ(make_design("LP").coefs.size(), 60u);
  EXPECT_EQ(make_design("BP").coefs.size(), 58u);
  // Highpass is odd-length by necessity (documented substitution).
  EXPECT_EQ(make_design("HP").coefs.size(), 61u);
}

TEST(ReferenceCoefficients, L1NormHitsTarget) {
  for (const char* name : {"LP", "BP", "HP"})
    EXPECT_NEAR(dsp::l1_norm(targets(make_design(name))), 0.98, 1e-9)
        << name;
}

TEST(ReferenceCoefficients, Deterministic) {
  const auto a = targets(make_design("HP"));
  const auto b = targets(make_design("HP"));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ReferenceCoefficients, LowpassIsNarrowBand) {
  // The LP's passband must sit inside the LFSR-1 rolloff region for the
  // paper's Section 5 phenomenon to appear: its band edge lies at or
  // below 0.06, so the response there is already down from DC.
  const auto h = targets(make_design("LP"));
  const double dc = std::abs(dsp::freq_response(h, 0.0));
  EXPECT_LT(std::abs(dsp::freq_response(h, 0.06)), 0.5 * dc);
  EXPECT_GT(std::abs(dsp::freq_response(h, 0.02)), 0.9 * dc);
}

TEST(MakeAll, ReturnsThreeInTableOrder) {
  const auto& reg = design_registry();
  ASSERT_GE(reg.size(), 3u);
  EXPECT_EQ(reg[0].name, "LP");
  EXPECT_EQ(reg[1].name, "BP");
  EXPECT_EQ(reg[2].name, "HP");
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(make_design(reg[i].name).name, reg[i].name);
}

TEST(MakeReference, TapAccumulatorsMatchTapCount) {
  for (const char* name : {"LP", "BP", "HP"}) {
    const auto d = make_design(name);
    EXPECT_EQ(d.tap_accumulators.size(), d.coefs.size()) << name;
  }
}

TEST(MakeReference, QuantizationErrorWithinLsb) {
  const auto d = make_design("LP");
  for (std::size_t i = 0; i < d.coefs.size(); ++i)
    EXPECT_LE(std::abs(d.coefs[i].quantization_error()),
              d.coefs[i].fmt.lsb()) << i;
}

} // namespace
} // namespace fdbist::designs
