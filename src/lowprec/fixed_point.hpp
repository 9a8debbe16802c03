// Bit-exact emulation of the unsigned fixed-point operators that ProbLP's
// generated hardware instantiates (paper §3.1.1).
//
// A FixedPoint stores the scaled integer raw = round(value * 2^F) in a
// 128-bit word, so:
//
//  * conversion from double rounds to the nearest grid point
//    (|error| <= 2^-(F+1), eq. 2),
//  * addition is exact as long as the sum stays in range (eq. 3: the adder
//    adds no error of its own),
//  * multiplication computes the exact 2(I+F)-bit product and rounds the low
//    F bits away (the 2^-(F+1) term of eq. 4).
//
// Overflow saturates to the format maximum and raises ArithFlags::overflow.
// The framework's max-value analysis chooses I so that this never happens;
// the flag lets tests prove it.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>

#include "lowprec/format.hpp"

namespace problp::lowprec {

class FixedPoint {
 public:
  /// Zero in the given format.
  explicit FixedPoint(FixedFormat fmt) : fmt_(fmt), raw_(0) {}

  /// Converts a non-negative double, rounding per `mode`.  Negative, NaN or
  /// infinite inputs clamp to 0 / max and set invalid_input.
  static FixedPoint from_double(double v, FixedFormat fmt, ArithFlags& flags,
                                RoundingMode mode = RoundingMode::kNearestEven);

  /// Wraps an already-scaled integer (raw must fit I+F bits).
  static FixedPoint from_raw(u128 raw, FixedFormat fmt);

  double to_double() const;
  u128 raw() const { return raw_; }
  const FixedFormat& format() const { return fmt_; }

  bool is_zero() const { return raw_ == 0; }

  friend bool operator==(const FixedPoint& a, const FixedPoint& b) {
    return a.raw_ == b.raw_;  // formats assumed equal (checked in ops)
  }

 private:
  FixedFormat fmt_;
  u128 raw_;
};

/// a + b; exact unless the sum overflows the format (then saturates + flags).
FixedPoint fx_add(const FixedPoint& a, const FixedPoint& b, ArithFlags& flags);

/// a * b with the low F bits of the exact product rounded away per `mode`.
FixedPoint fx_mul(const FixedPoint& a, const FixedPoint& b, ArithFlags& flags,
                  RoundingMode mode = RoundingMode::kNearestEven);

/// Exact min / max (no rounding; used for MPE max nodes and min-value
/// analysis).
FixedPoint fx_min(const FixedPoint& a, const FixedPoint& b);
FixedPoint fx_max(const FixedPoint& a, const FixedPoint& b);

// ---- raw-word kernels -------------------------------------------------------
// The same operators on bare raw words of one shared (pre-validated) format.
// fx_add / fx_mul are thin wrappers over these, so any consumer holding raw
// words — the batched SoA low-precision engine in ac/batch_lowprec.hpp — is
// bit-identical to the FixedPoint object level by construction.
//
// Inline on purpose: the batched raw-word sweep executes one of these per
// node per lane, and a cross-TU call per lane used to dominate its per-op
// cost.  Inlined, a saturating add is an u128 add plus one compare.

namespace detail {
/// Saturates `raw` into the format and flags overflow when it did not fit.
inline u128 fx_clamp_raw(u128 raw, const FixedFormat& fmt, ArithFlags& flags) {
  const u128 max_raw = fmt.max_raw();
  if (raw > max_raw) {
    flags.overflow = true;
    return max_raw;
  }
  return raw;
}
}  // namespace detail

/// Raw word of a + b, saturated into `fmt` (overflow flagged).
inline u128 fx_add_raw(u128 a, u128 b, const FixedFormat& fmt, ArithFlags& flags) {
  return detail::fx_clamp_raw(a + b, fmt, flags);
}

/// Raw word of a * b with the low F bits rounded away per `mode`.
inline u128 fx_mul_raw(u128 a, u128 b, const FixedFormat& fmt, ArithFlags& flags,
                       RoundingMode mode = RoundingMode::kNearestEven) {
  // Exact double-width product: value a*b scaled by 2^(2F).  Both operands
  // are <= 62 bits so the product fits u128.
  const u128 prod = a * b;
  return detail::fx_clamp_raw(round_shift_right(prod, fmt.fraction_bits, mode), fmt, flags);
}

/// Exact max on raw words (raw order == value order: same scale).
constexpr u128 fx_max_raw(u128 a, u128 b) { return a > b ? a : b; }

/// Widens a raw word back to double — identical to FixedPoint::to_double.
inline double fx_raw_to_double(u128 raw, const FixedFormat& fmt) {
  // raw < 2^62 so the uint64 narrowing below is lossless.
  return std::ldexp(static_cast<double>(static_cast<std::uint64_t>(raw)),
                    -fmt.fraction_bits);
}

// ---- narrow-word (u32) lane kernels ----------------------------------------
// For formats with fits_narrow_word() (total width <= 30 bits) every
// saturated raw word is < 2^30, so the *stored* lanes fit u32 exactly, a sum
// cannot wrap (a + b < 2^31) and an exact product is <= 60 bits: add/mul/
// round/saturate all close over u32 storage with one u64 intermediate per
// multiply, and the u128 emulation above is pure overhead.  These kernels
// are the per-word semantics of the lane-parallel datapath
// (ac/simd_sweep_impl.hpp executes them over contiguous SoA lane arrays
// inside the per-ISA translation units, 16 lanes per AVX-512 zmm); they are
// written branch-free — overflow is reported as a nonzero value OR-ed into a
// per-lane mask accumulator, never a sticky bool store — so the surrounding
// lane loops vectorise.  Each kernel is bit-identical to its u128 sibling by
// construction (same rounding arithmetic, same saturation point);
// tests/fixed_point_test.cpp proves it exhaustively at small widths and at
// the 29/30-bit narrow boundary.

namespace detail {
/// Saturates an unclamped narrow word at `max_raw` (an unsigned min, one
/// vector op) and ORs a nonzero value into `ovf_mask` exactly when the lane
/// saturated: v ^ min(v, max_raw) is 0 iff v was in range.
inline std::uint32_t fx_sat_raw_u32(std::uint32_t v, std::uint32_t max_raw,
                                    std::uint32_t& ovf_mask) {
  const std::uint32_t sat = v < max_raw ? v : max_raw;
  ovf_mask |= v ^ sat;
  return sat;
}
}  // namespace detail

/// u32 word of a + b, saturated at `max_raw`.  Operands are saturated narrow
/// words (< 2^30), so the u32 sum is exact — no wrap to account for.
inline std::uint32_t fx_add_raw_u32(std::uint32_t a, std::uint32_t b, std::uint32_t max_raw,
                                    std::uint32_t& ovf_mask) {
  return detail::fx_sat_raw_u32(a + b, max_raw, ovf_mask);
}

/// u32 word of a * b with the low `fraction_bits` bits rounded away per
/// `Mode`, saturated at `max_raw`.  `half` is the rounding midpoint
/// 2^(fraction_bits - 1).  Instantiate with kTruncate when fraction_bits ==
/// 0: a shift-0 truncation IS the exact product, while the nearest bias
/// below requires half >= 1.  The exact product widens to u64 per lane (one
/// 32x32->64 multiply on every vector ISA — AVX2/AVX-512F/NEON have no
/// 64x64 lane multiply), and the rounded result re-narrows through a u32
/// clamp that cannot change the saturation outcome.
template <RoundingMode Mode>
inline std::uint32_t fx_mul_raw_u32(std::uint32_t a, std::uint32_t b, int fraction_bits,
                                    [[maybe_unused]] std::uint32_t half,
                                    std::uint32_t max_raw, std::uint32_t& ovf_mask) {
  const std::uint64_t prod = static_cast<std::uint64_t>(a) * b;
  std::uint64_t kept;
  if constexpr (Mode == RoundingMode::kNearestEven) {
    // round_shift_right's nearest-even via the carry bias: adding
    // half - 1 + lsb(kept) carries into the kept bits exactly when the
    // remainder is above the midpoint, or on it with kept odd — no
    // compares, so the lane loop needs no mask registers.  The bias cannot
    // wrap: prod <= 2^60 and half <= 2^29.
    kept = (prod + (half - std::uint64_t{1}) + ((prod >> fraction_bits) & 1)) >>
           fraction_bits;
  } else {
    kept = prod >> fraction_bits;
  }
  // `kept` may exceed 32 bits when fraction_bits is small; clamp into u32
  // before the lane-width saturation compare.  max_raw < 2^30, so the clamp
  // saturates to the same value and the same verdict as an unclamped compare.
  const std::uint32_t kept32 =
      kept > 0xffffffffull ? 0xffffffffu : static_cast<std::uint32_t>(kept);
  return detail::fx_sat_raw_u32(kept32, max_raw, ovf_mask);
}

/// Exact max on u32 narrow words (raw order == value order: same scale).
constexpr std::uint32_t fx_max_raw_u32(std::uint32_t a, std::uint32_t b) {
  return a > b ? a : b;
}

}  // namespace problp::lowprec
