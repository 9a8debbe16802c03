#include <cmath>

#include <gtest/gtest.h>

#include "lowprec/fixed_point.hpp"
#include "util/rng.hpp"

namespace problp::lowprec {
namespace {

TEST(FixedFormat, Accessors) {
  const FixedFormat fmt{1, 15};
  EXPECT_EQ(fmt.total_bits(), 16);
  EXPECT_DOUBLE_EQ(fmt.resolution(), std::ldexp(1.0, -15));
  EXPECT_DOUBLE_EQ(fmt.max_value(), 2.0 - std::ldexp(1.0, -15));
  EXPECT_DOUBLE_EQ(fmt.quantization_bound(), std::ldexp(1.0, -16));
}

TEST(FixedFormat, Validation) {
  EXPECT_NO_THROW((FixedFormat{1, 61}.validate()));
  EXPECT_THROW((FixedFormat{-1, 8}.validate()), InvalidArgument);
  EXPECT_THROW((FixedFormat{1, 62}.validate()), InvalidArgument);
  EXPECT_THROW((FixedFormat{0, 0}.validate()), InvalidArgument);
}

TEST(RoundShiftRight, NearestEvenBasics) {
  // 0b1011 >> 2: value 2.75 -> 3
  EXPECT_EQ((round_shift_right(11, 2, RoundingMode::kNearestEven)), 3u);
  // 0b1010 >> 2: value 2.5 (tie) -> 2 (even)
  EXPECT_EQ((round_shift_right(10, 2, RoundingMode::kNearestEven)), 2u);
  // 0b1110 >> 2: value 3.5 (tie) -> 4 (even)
  EXPECT_EQ((round_shift_right(14, 2, RoundingMode::kNearestEven)), 4u);
  // shift <= 0 is an exact left shift
  EXPECT_EQ((round_shift_right(3, -2, RoundingMode::kNearestEven)), 12u);
}

TEST(RoundShiftRight, Truncate) {
  EXPECT_EQ((round_shift_right(11, 2, RoundingMode::kTruncate)), 2u);
  EXPECT_EQ((round_shift_right(15, 2, RoundingMode::kTruncate)), 3u);
}

TEST(FixedPoint, ConversionErrorWithinBound) {
  Rng rng(11);
  for (int f : {2, 5, 8, 16, 30}) {
    const FixedFormat fmt{2, f};
    for (int i = 0; i < 500; ++i) {
      // Stay below max_value() even for the coarsest format (F=2 -> 3.75).
      const double v = rng.uniform(0.0, 3.6);
      ArithFlags flags;
      const FixedPoint x = FixedPoint::from_double(v, fmt, flags);
      EXPECT_FALSE(flags.any());
      EXPECT_LE(std::abs(x.to_double() - v), fmt.quantization_bound());
    }
  }
}

TEST(FixedPoint, TruncationErrorWithinResolution) {
  Rng rng(12);
  const FixedFormat fmt{1, 10};
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.0, 1.9);
    ArithFlags flags;
    const FixedPoint x = FixedPoint::from_double(v, fmt, flags, RoundingMode::kTruncate);
    EXPECT_LE(x.to_double(), v);  // truncation rounds toward zero
    EXPECT_LT(v - x.to_double(), fmt.resolution());
  }
}

TEST(FixedPoint, ZeroAndOneExact) {
  for (int f : {2, 8, 40}) {
    const FixedFormat fmt{1, f};
    ArithFlags flags;
    EXPECT_DOUBLE_EQ(FixedPoint::from_double(0.0, fmt, flags).to_double(), 0.0);
    EXPECT_DOUBLE_EQ(FixedPoint::from_double(1.0, fmt, flags).to_double(), 1.0);
    EXPECT_FALSE(flags.any());
  }
}

TEST(FixedPoint, InvalidInputsFlagged) {
  const FixedFormat fmt{1, 8};
  {
    ArithFlags flags;
    FixedPoint::from_double(-0.25, fmt, flags);
    EXPECT_TRUE(flags.invalid_input);
  }
  {
    ArithFlags flags;
    FixedPoint::from_double(std::nan(""), fmt, flags);
    EXPECT_TRUE(flags.invalid_input);
  }
  {
    ArithFlags flags;
    const FixedPoint x =
        FixedPoint::from_double(std::numeric_limits<double>::infinity(), fmt, flags);
    EXPECT_TRUE(flags.invalid_input);
    EXPECT_DOUBLE_EQ(x.to_double(), fmt.max_value());
  }
}

TEST(FixedPoint, ConversionOverflowSaturates) {
  const FixedFormat fmt{1, 8};
  ArithFlags flags;
  const FixedPoint x = FixedPoint::from_double(5.0, fmt, flags);
  EXPECT_TRUE(flags.overflow);
  EXPECT_DOUBLE_EQ(x.to_double(), fmt.max_value());
}

TEST(FixedPoint, AdditionIsExact) {
  // Eq. 3: the adder adds no error of its own.
  Rng rng(13);
  const FixedFormat fmt{3, 20};
  for (int i = 0; i < 1000; ++i) {
    ArithFlags flags;
    const FixedPoint a = FixedPoint::from_double(rng.uniform(0.0, 3.0), fmt, flags);
    const FixedPoint b = FixedPoint::from_double(rng.uniform(0.0, 3.0), fmt, flags);
    const FixedPoint s = fx_add(a, b, flags);
    EXPECT_FALSE(flags.overflow);
    EXPECT_DOUBLE_EQ(s.to_double(), a.to_double() + b.to_double());
  }
}

TEST(FixedPoint, AdditionOverflowSaturatesAndFlags) {
  const FixedFormat fmt{1, 4};
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(1.5, fmt, flags);
  const FixedPoint b = FixedPoint::from_double(1.0, fmt, flags);
  ASSERT_FALSE(flags.any());
  const FixedPoint s = fx_add(a, b, flags);
  EXPECT_TRUE(flags.overflow);
  EXPECT_DOUBLE_EQ(s.to_double(), fmt.max_value());
}

TEST(FixedPoint, MultiplicationHalfUlpBound) {
  // Eq. 4: |rounding| <= 2^-(F+1) beyond the exact product of the operands.
  Rng rng(14);
  for (int f : {4, 8, 16, 24}) {
    const FixedFormat fmt{1, f};
    for (int i = 0; i < 500; ++i) {
      ArithFlags flags;
      const FixedPoint a = FixedPoint::from_double(rng.uniform(0.0, 1.0), fmt, flags);
      const FixedPoint b = FixedPoint::from_double(rng.uniform(0.0, 1.0), fmt, flags);
      const FixedPoint p = fx_mul(a, b, flags);
      EXPECT_FALSE(flags.overflow);
      const double exact = a.to_double() * b.to_double();
      EXPECT_LE(std::abs(p.to_double() - exact), fmt.quantization_bound());
    }
  }
}

TEST(FixedPoint, MultiplicationTiesToEven) {
  // With F=2, 0.25 * 0.5 = 0.125 sits exactly between 0.0 ulp grid points
  // {0.0, 0.25}... actually 0.125 = half of resolution 0.25: tie.
  const FixedFormat fmt{1, 2};
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(0.25, fmt, flags);
  const FixedPoint b = FixedPoint::from_double(0.5, fmt, flags);
  const FixedPoint p = fx_mul(a, b, flags);
  EXPECT_DOUBLE_EQ(p.to_double(), 0.0);  // ties to even: 0 is even, 0.25 is odd
  // 0.75 * 0.5 = 0.375: tie between 0.25 (odd) and 0.5 (even) -> 0.5.
  const FixedPoint c = FixedPoint::from_double(0.75, fmt, flags);
  const FixedPoint q = fx_mul(c, b, flags);
  EXPECT_DOUBLE_EQ(q.to_double(), 0.5);
}

TEST(FixedPoint, MultiplicationTruncation) {
  const FixedFormat fmt{1, 2};
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(0.75, fmt, flags);
  const FixedPoint b = FixedPoint::from_double(0.75, fmt, flags);
  // 0.5625 truncates to 0.5.
  const FixedPoint p = fx_mul(a, b, flags, RoundingMode::kTruncate);
  EXPECT_DOUBLE_EQ(p.to_double(), 0.5);
}

TEST(FixedPoint, WideFormatsExact) {
  // Near the emulation limit: products of 60-bit operands must be exact.
  const FixedFormat fmt{1, 60};
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(0.5, fmt, flags);
  const FixedPoint b = FixedPoint::from_double(0.25, fmt, flags);
  EXPECT_DOUBLE_EQ(fx_mul(a, b, flags).to_double(), 0.125);
  EXPECT_FALSE(flags.any());
}

TEST(FixedPoint, MinMax) {
  const FixedFormat fmt{1, 8};
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(0.5, fmt, flags);
  const FixedPoint b = FixedPoint::from_double(0.75, fmt, flags);
  EXPECT_DOUBLE_EQ(fx_min(a, b).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(fx_max(a, b).to_double(), 0.75);
}

TEST(FixedPoint, MixedFormatsRejected) {
  ArithFlags flags;
  const FixedPoint a = FixedPoint::from_double(0.5, FixedFormat{1, 8}, flags);
  const FixedPoint b = FixedPoint::from_double(0.5, FixedFormat{1, 9}, flags);
  EXPECT_THROW(fx_add(a, b, flags), InvalidArgument);
  EXPECT_THROW(fx_mul(a, b, flags), InvalidArgument);
}

// Property sweep: conversion + one multiply stays within the eq. 4/5 model
// across formats.
class FixedFormatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FixedFormatSweep, MulAccumulatedErrorWithinModel) {
  const int f = GetParam();
  const FixedFormat fmt{1, f};
  Rng rng(100 + f);
  const double q = fmt.quantization_bound();
  for (int i = 0; i < 200; ++i) {
    const double av = rng.uniform(0.0, 1.0);
    const double bv = rng.uniform(0.0, 1.0);
    ArithFlags flags;
    const FixedPoint a = FixedPoint::from_double(av, fmt, flags);
    const FixedPoint b = FixedPoint::from_double(bv, fmt, flags);
    const FixedPoint p = fx_mul(a, b, flags);
    // Eq. 5 with a_max = b_max = 1, Δa = Δb = q.
    const double bound = q + q + q * q + q;
    EXPECT_LE(std::abs(p.to_double() - av * bv), bound) << "F=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FixedFormatSweep, ::testing::Values(2, 4, 8, 12, 16, 24, 32, 40));

TEST(FixedFormat, NarrowWordClassification) {
  // The narrow lane-kernel eligibility cutoff sits exactly at 30 total bits.
  EXPECT_TRUE((FixedFormat{2, 28}.fits_narrow_word()));   // 30
  EXPECT_TRUE((FixedFormat{0, 30}.fits_narrow_word()));   // 30
  EXPECT_TRUE((FixedFormat{2, 22}.fits_narrow_word()));   // 24
  EXPECT_FALSE((FixedFormat{2, 29}.fits_narrow_word()));  // 31
  EXPECT_FALSE((FixedFormat{0, 31}.fits_narrow_word()));  // 31
  EXPECT_FALSE((FixedFormat{2, 30}.fits_narrow_word()));  // 32
  EXPECT_EQ(FixedFormat::kNarrowWordBits, 30);
}

// The u32 lane kernels against their u128 siblings, one word pair at a
// time: values AND overflow verdicts must agree bit for bit.  The u32
// kernels are what the batched narrow datapath stores and executes; the
// multiply mirrors the executor's instantiation rule (truncate also serves
// F == 0, where a shift-0 truncation is the exact product).
void expect_word_kernel_parity(const FixedFormat& fmt, RoundingMode mode, std::uint64_t a,
                               std::uint64_t b) {
  ArithFlags add_flags;
  const u128 want_add = fx_add_raw(a, b, fmt, add_flags);
  ArithFlags mul_flags;
  const u128 want_mul = fx_mul_raw(a, b, fmt, mul_flags, mode);

  // Narrow raw words are < 2^30, so the casts below are lossless and the
  // wide results must re-narrow exactly.
  const std::uint32_t a32 = static_cast<std::uint32_t>(a);
  const std::uint32_t b32 = static_cast<std::uint32_t>(b);
  const std::uint32_t max32 = static_cast<std::uint32_t>(fmt.max_raw());
  const std::uint32_t half32 =
      fmt.fraction_bits > 0 ? std::uint32_t{1} << (fmt.fraction_bits - 1) : 0;
  std::uint32_t add32_ovf = 0;
  const std::uint32_t got_add32 = fx_add_raw_u32(a32, b32, max32, add32_ovf);
  ASSERT_EQ(got_add32, static_cast<std::uint32_t>(want_add))
      << fmt.to_string() << " add32 a=" << a << " b=" << b;
  ASSERT_EQ(add32_ovf != 0, add_flags.overflow) << fmt.to_string() << " add32 flag";
  std::uint32_t mul32_ovf = 0;
  const std::uint32_t got_mul32 =
      mode == RoundingMode::kNearestEven && fmt.fraction_bits > 0
          ? fx_mul_raw_u32<RoundingMode::kNearestEven>(a32, b32, fmt.fraction_bits, half32,
                                                       max32, mul32_ovf)
          : fx_mul_raw_u32<RoundingMode::kTruncate>(a32, b32, fmt.fraction_bits, half32,
                                                    max32, mul32_ovf);
  ASSERT_EQ(got_mul32, static_cast<std::uint32_t>(want_mul))
      << fmt.to_string() << " mul32 a=" << a << " b=" << b
      << " mode=" << (mode == RoundingMode::kTruncate ? "trunc" : "nearest");
  ASSERT_EQ(mul32_ovf != 0, mul_flags.overflow) << fmt.to_string() << " mul32 flag";
  ASSERT_EQ(fx_max_raw_u32(a32, b32), static_cast<std::uint32_t>(fx_max_raw(a, b)));
}

TEST(FixedPoint, NarrowWordKernelsExhaustiveAtSmallWidths) {
  // Every (a, b) raw pair of a handful of tiny formats, both rounding
  // modes — including F == 0 (pure integer, the truncate-instantiation
  // special case) and I == 0 (everything near saturation).
  for (const FixedFormat fmt :
       {FixedFormat{1, 3}, FixedFormat{0, 4}, FixedFormat{4, 0}, FixedFormat{2, 2}}) {
    const std::uint64_t max_raw = static_cast<std::uint64_t>(fmt.max_raw());
    for (const auto mode : {RoundingMode::kNearestEven, RoundingMode::kTruncate}) {
      for (std::uint64_t a = 0; a <= max_raw; ++a) {
        for (std::uint64_t b = 0; b <= max_raw; ++b) {
          expect_word_kernel_parity(fmt, mode, a, b);
        }
      }
    }
  }
}

TEST(FixedPoint, NarrowWordKernelsMatchWideAtBoundary) {
  // Randomised words at the widest narrow formats (29/30 total bits,
  // comfortable and saturating), plus the extreme corners — the regime
  // where the widened u64 product uses all 60 bits.
  Rng rng(59);
  for (const FixedFormat fmt :
       {FixedFormat{2, 27}, FixedFormat{2, 28}, FixedFormat{0, 30}, FixedFormat{30, 0}}) {
    const std::uint64_t max_raw = static_cast<std::uint64_t>(fmt.max_raw());
    for (const auto mode : {RoundingMode::kNearestEven, RoundingMode::kTruncate}) {
      for (const std::uint64_t corner : {std::uint64_t{0}, std::uint64_t{1}, max_raw - 1,
                                         max_raw}) {
        expect_word_kernel_parity(fmt, mode, corner, max_raw);
        expect_word_kernel_parity(fmt, mode, max_raw, corner);
      }
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t a =
            static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<int>(max_raw)));
        const std::uint64_t b =
            static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<int>(max_raw)));
        expect_word_kernel_parity(fmt, mode, a, b);
      }
    }
  }
}

}  // namespace
}  // namespace problp::lowprec
