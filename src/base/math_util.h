// Small integer math helpers shared by the sizing rules (Equation 2 of the
// paper), the PDM bound computations, and the merge-order arithmetic.
#pragma once

#include <numeric>
#include <span>
#include <stdexcept>

#include "base/contracts.h"
#include "base/types.h"

namespace paladin {

/// ceil(a / b) for non-negative integers.
constexpr u64 ceil_div(u64 a, u64 b) {
  PALADIN_EXPECTS(b != 0);
  return (a + b - 1) / b;
}

/// Smallest multiple of `m` that is >= `a`.
constexpr u64 round_up(u64 a, u64 m) {
  PALADIN_EXPECTS(m != 0);
  return ceil_div(a, m) * m;
}

constexpr bool is_pow2(u64 x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)); x must be positive.
constexpr u32 ilog2_floor(u64 x) {
  PALADIN_EXPECTS(x != 0);
  u32 r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)); x must be positive.  ilog2_ceil(1) == 0.
constexpr u32 ilog2_ceil(u64 x) {
  PALADIN_EXPECTS(x != 0);
  return is_pow2(x) ? ilog2_floor(x) : ilog2_floor(x) + 1;
}

/// ceil(log_base(x)) computed with exact integer arithmetic (no floating
/// point drift): the smallest e with base^e >= x.  Used for the
/// log_m(n) terms of the PDM sorting bound and the merge pass counts.
constexpr u32 ilog_ceil(u64 x, u64 base) {
  PALADIN_EXPECTS(x != 0);
  PALADIN_EXPECTS(base >= 2);
  u32 e = 0;
  u64 pow = 1;
  while (pow < x) {
    // Guard against overflow of pow * base.
    if (pow > (~u64{0}) / base) return e + 1;
    pow *= base;
    ++e;
  }
  return e;
}

/// a·b, throwing std::overflow_error (naming `what`) instead of wrapping.
constexpr u64 checked_mul(u64 a, u64 b, const char* what) {
  u64 product = 0;
  if (__builtin_mul_overflow(a, b, &product)) throw std::overflow_error(what);
  return product;
}

/// Least common multiple of a non-empty span of positive integers, as used
/// by Equation 2 to define admissible input sizes: lcm(perf, p).  Throws
/// std::overflow_error when it does not fit in 64 bits.
constexpr u64 lcm_of(std::span<const u32> values) {
  PALADIN_EXPECTS(!values.empty());
  u64 acc = 1;
  for (u32 v : values) {
    PALADIN_EXPECTS(v != 0);
    acc = checked_mul(acc, v / std::gcd(acc, u64{v}),
                      "lcm of the perf factors exceeds 64 bits");
  }
  return acc;
}

/// Sum of a span of u32 widened to u64.
constexpr u64 sum_of(std::span<const u32> values) {
  u64 s = 0;
  for (u32 v : values) s += v;
  return s;
}

}  // namespace paladin
