#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/binfile.hpp"
#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/xoshiro.hpp"

namespace fdbist {
namespace {

TEST(Expected, HoldsValueOrError) {
  Expected<int> ok(42);
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, 42);

  Expected<int> bad(Error{ErrorCode::Io, "disk on fire"});
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, ErrorCode::Io);
  EXPECT_EQ(bad.error().to_string(), "io: disk on fire");
  EXPECT_THROW((void)bad.value(), invariant_error);

  Expected<void> none;
  EXPECT_TRUE(none);
  Expected<void> failed(Error{ErrorCode::Cancelled, ""});
  ASSERT_FALSE(failed);
  EXPECT_STREQ(error_code_name(failed.error().code), "cancelled");
}

TEST(Parse, SizeAcceptsPlainIntegers) {
  EXPECT_EQ(*common::parse_size("0", "n"), 0u);
  EXPECT_EQ(*common::parse_size("4096", "n"), 4096u);
  EXPECT_EQ(*common::parse_size("7", "n", 1, 10), 7u);
}

TEST(Parse, SizeRejectsGarbageSignsAndRange) {
  for (const char* bad : {"", "abc", "12abc", "-3", "+4", " 5", "1e3",
                          "99999999999999999999999999"}) {
    const auto v = common::parse_size(bad, "n");
    ASSERT_FALSE(v) << '"' << bad << '"';
    EXPECT_EQ(v.error().code, ErrorCode::InvalidArgument) << bad;
  }
  EXPECT_FALSE(common::parse_size("11", "n", 0, 10));
  EXPECT_FALSE(common::parse_size("1", "n", 2, 10));
  // The error message names the offending parameter and value.
  const auto v = common::parse_size("oops", "--threads");
  EXPECT_NE(v.error().message.find("--threads"), std::string::npos);
  EXPECT_NE(v.error().message.find("oops"), std::string::npos);
}

TEST(Parse, DoubleAcceptsRealsRejectsGarbage) {
  EXPECT_DOUBLE_EQ(*common::parse_double("0.25", "f"), 0.25);
  EXPECT_DOUBLE_EQ(*common::parse_double("1e-3", "f"), 1e-3);
  for (const char* bad : {"", "abc", "0.5x", "nanx"})
    EXPECT_FALSE(common::parse_double(bad, "f")) << '"' << bad << '"';
  EXPECT_FALSE(common::parse_double("0.7", "f", 0.0, 0.5));
  EXPECT_FALSE(common::parse_double("-0.1", "f", 0.0, 0.5));
}

TEST(CancelToken, ExplicitCancelAndReason) {
  common::CancelToken t;
  EXPECT_FALSE(t.cancelled());
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), ErrorCode::Cancelled);
}

TEST(CancelToken, DeadlineFires) {
  common::CancelToken t;
  t.set_deadline_after(0.0);
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), ErrorCode::DeadlineExceeded);

  common::CancelToken far;
  far.set_deadline_after(3600.0);
  EXPECT_FALSE(far.cancelled());
}

TEST(CancelToken, ChainsToParent) {
  common::CancelToken parent;
  common::CancelToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), ErrorCode::Cancelled);
}

TEST(ParallelFor, CancelledTokenStopsClaiming) {
  common::CancelToken t;
  t.cancel();
  std::atomic<std::size_t> ran{0};
  common::parallel_for(1000, 4, &t,
                       [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 0u);
}

TEST(Bits, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(12), 0xFFFu);
  EXPECT_EQ(low_mask(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Bits, SignExtendPositive) {
  EXPECT_EQ(sign_extend(0x5, 4), 5);
  EXPECT_EQ(sign_extend(0x7FF, 12), 2047);
  EXPECT_EQ(sign_extend(0, 16), 0);
}

TEST(Bits, SignExtendNegative) {
  EXPECT_EQ(sign_extend(0x8, 4), -8);
  EXPECT_EQ(sign_extend(0xF, 4), -1);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0xFFF, 12), -1);
}

TEST(Bits, SignExtendIgnoresHighGarbage) {
  EXPECT_EQ(sign_extend(0xABCD0005ull, 4), 5);
  EXPECT_EQ(sign_extend(0xFFFFFFFFFFFFFFF8ull, 4), -8);
}

TEST(Bits, WrapToWidth) {
  EXPECT_EQ(wrap_to_width(8, 4), -8);   // overflow wraps
  EXPECT_EQ(wrap_to_width(-9, 4), 7);   // underflow wraps
  EXPECT_EQ(wrap_to_width(7, 4), 7);
  EXPECT_EQ(wrap_to_width(-8, 4), -8);
  EXPECT_EQ(wrap_to_width(16, 4), 0);
}

class WrapRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WrapRoundTrip, InRangeValuesAreFixedPoints) {
  const int w = GetParam();
  const std::int64_t lo = -(std::int64_t{1} << (w - 1));
  const std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
  for (std::int64_t v = lo; v <= hi; v += std::max<std::int64_t>(1, (hi - lo) / 97))
    EXPECT_EQ(wrap_to_width(v, w), v) << "width " << w << " value " << v;
  EXPECT_EQ(wrap_to_width(lo, w), lo);
  EXPECT_EQ(wrap_to_width(hi, w), hi);
}

TEST_P(WrapRoundTrip, WrapIsPeriodic) {
  const int w = GetParam();
  const std::int64_t period = std::int64_t{1} << w;
  for (std::int64_t v = -5; v <= 5; ++v) {
    EXPECT_EQ(wrap_to_width(v + period, w), wrap_to_width(v, w));
    EXPECT_EQ(wrap_to_width(v - period, w), wrap_to_width(v, w));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WrapRoundTrip,
                         ::testing::Values(2, 3, 4, 8, 12, 16, 24, 32, 48));

TEST(Bits, SignedBitWidth) {
  EXPECT_EQ(signed_bit_width(0), 1);
  EXPECT_EQ(signed_bit_width(1), 2);
  EXPECT_EQ(signed_bit_width(-1), 1);
  EXPECT_EQ(signed_bit_width(-2), 2);
  EXPECT_EQ(signed_bit_width(7), 4);
  EXPECT_EQ(signed_bit_width(8), 5);
  EXPECT_EQ(signed_bit_width(-8), 4);
  EXPECT_EQ(signed_bit_width(-9), 5);
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(7, 4));
  EXPECT_FALSE(fits_signed(8, 4));
  EXPECT_TRUE(fits_signed(-8, 4));
  EXPECT_FALSE(fits_signed(-9, 4));
}

TEST(Bits, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(2), 2u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(1000), 1024u);
}

TEST(Check, RequireThrowsPrecondition) {
  EXPECT_THROW(FDBIST_REQUIRE(false, "boom"), precondition_error);
  EXPECT_NO_THROW(FDBIST_REQUIRE(true, "fine"));
}

TEST(Check, AssertThrowsInvariant) {
  EXPECT_THROW(FDBIST_ASSERT(false, "bug"), invariant_error);
  EXPECT_NO_THROW(FDBIST_ASSERT(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    FDBIST_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  double mn = 1.0;
  double mx = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    mn = std::min(mn, u);
    mx = std::max(mx, u);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
}

TEST(Xoshiro, BelowStaysInRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

/// A small framed file: magic "TEST", version 3, a u32, a u64 and a
/// three-element i32 array.
std::vector<std::uint8_t> small_file() {
  common::ByteWriter w = common::start_file({'T', 'E', 'S', 'T'}, 3);
  w.put_u32(0x01020304);
  w.put_u64(0x1122334455667788ULL);
  w.put_array(std::vector<std::int32_t>{-1, 0, 7});
  common::seal_file(w);
  return w.take();
}

Expected<common::ByteReader> open_small(
    const std::vector<std::uint8_t>& bytes,
    ErrorCode code = ErrorCode::CorruptCheckpoint) {
  return common::open_file(bytes, {'T', 'E', 'S', 'T'}, 3, code);
}

TEST(BinFile, RoundTripsLittleEndian) {
  const auto bytes = small_file();
  ASSERT_EQ(bytes.size(), 8u + 4 + 8 + 12 + 8);
  EXPECT_EQ(bytes[4], 3); // version, low byte first
  EXPECT_EQ(bytes[8], 0x04);
  EXPECT_EQ(bytes[11], 0x01);
  auto r = open_small(bytes);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_EQ(r->take_u32(), 0x01020304u);
  EXPECT_EQ(r->take_u64(), 0x1122334455667788ULL);
  std::vector<std::int32_t> values;
  ASSERT_TRUE(r->take_array(3, values));
  EXPECT_EQ(values, (std::vector<std::int32_t>{-1, 0, 7}));
  EXPECT_EQ(r->remaining(), 0u);
  EXPECT_FALSE(r->failed());
}

TEST(BinFile, EveryPrefixIsRefusedWithTheCallersCode) {
  const auto bytes = small_file();
  for (const ErrorCode code :
       {ErrorCode::CorruptCheckpoint, ErrorCode::InvalidArgument}) {
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      const std::vector<std::uint8_t> cut(bytes.begin(),
                                          bytes.begin() + std::ptrdiff_t(keep));
      auto r = open_small(cut, code);
      ASSERT_FALSE(r) << "accepted a " << keep << "-byte prefix";
      EXPECT_EQ(r.error().code, code) << keep;
    }
  }
}

TEST(BinFile, BadMagicIsRefused) {
  auto bytes = small_file();
  bytes[0] = 'X';
  auto r = open_small(bytes);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(BinFile, FutureVersionIsRefusedByNumber) {
  // The trailer is left stale on purpose: the version check comes
  // first, so the message names the version rather than the checksum.
  auto bytes = small_file();
  bytes[4] = 42;
  auto r = open_small(bytes, ErrorCode::CorruptCheckpoint);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, ErrorCode::CorruptCheckpoint);
  EXPECT_NE(r.error().message.find("version 42"), std::string::npos)
      << r.error().message;
  EXPECT_NE(r.error().message.find("expected 3"), std::string::npos)
      << r.error().message;
}

TEST(BinFile, FlippedTrailerByteIsRefused) {
  auto bytes = small_file();
  bytes.back() ^= 0x01;
  auto r = open_small(bytes);
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("checksum"), std::string::npos);
}

TEST(BinFile, TrailingBytesAreRefusedOrLeftForTheFormat) {
  // Bytes appended after the seal break the checksum.
  auto appended = small_file();
  appended.push_back(0);
  auto r = open_small(appended);
  ASSERT_FALSE(r);
  EXPECT_NE(r.error().message.find("checksum"), std::string::npos);

  // Bytes sealed inside the payload past what a format reads stay in
  // the reader, where the format refuses them.
  common::ByteWriter w = common::start_file({'T', 'E', 'S', 'T'}, 3);
  w.put_u32(5);
  w.put_u8(0xAA);
  common::seal_file(w);
  const auto bytes = w.take();
  auto padded = open_small(bytes);
  ASSERT_TRUE(padded) << padded.error().to_string();
  EXPECT_EQ(padded->take_u32(), 5u);
  EXPECT_EQ(padded->remaining(), 1u);
}

TEST(BinFile, ReaderFailureIsSticky) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  common::ByteReader r(bytes);
  EXPECT_EQ(r.take_u32(), 0x04030201u);
  EXPECT_EQ(r.take_u32(), 0u); // one byte left: past the end
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.take_u8(), 0u) << "a failed reader reads nothing more";
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinFile, CountLargerThanTheBytesLeftIsRefused) {
  const std::vector<std::uint8_t> bytes(12, 0xFF);
  common::ByteReader r(bytes);
  EXPECT_TRUE(r.count_fits(3, 4));
  EXPECT_FALSE(r.count_fits(4, 4));
  // 2^62 + 1 four-byte elements: the byte count wraps to 4 in 64 bits,
  // which an overflowing size check would accept.
  std::vector<std::int32_t> out;
  EXPECT_FALSE(r.take_array((std::uint64_t{1} << 62) + 1, out));
  EXPECT_TRUE(out.empty()) << "nothing is allocated for a refused count";
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.take_array(0, out)) << "the failure is sticky";
}

} // namespace
} // namespace fdbist
