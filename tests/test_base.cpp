// Tests of the base utilities: contracts, integer math, RNG determinism,
// running statistics, multiset checksums and scratch directories.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "base/checksum.h"
#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/temp_dir.h"

namespace paladin {
namespace {

// ---------------------------------------------------------------------
// Contracts
// ---------------------------------------------------------------------

TEST(Contracts, ViolationThrowsWithLocation) {
  try {
    PALADIN_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_base.cpp"), std::string::npos);
  }
}

TEST(Contracts, MessageVariantCarriesNote) {
  try {
    PALADIN_EXPECTS_MSG(false, "the note");
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the note"), std::string::npos);
  }
}

TEST(Contracts, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PALADIN_EXPECTS(2 + 2 == 4));
  EXPECT_NO_THROW(PALADIN_ENSURES(true));
  EXPECT_NO_THROW(PALADIN_ASSERT(true));
}

// ---------------------------------------------------------------------
// Integer math
// ---------------------------------------------------------------------

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_THROW(ceil_div(1, 0), ContractViolation);
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2_floor(1), 0u);
  EXPECT_EQ(ilog2_floor(2), 1u);
  EXPECT_EQ(ilog2_floor(3), 1u);
  EXPECT_EQ(ilog2_floor(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1), 0u);
  EXPECT_EQ(ilog2_ceil(3), 2u);
  EXPECT_EQ(ilog2_ceil(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(MathUtil, IlogCeilArbitraryBase) {
  EXPECT_EQ(ilog_ceil(1, 10), 0u);
  EXPECT_EQ(ilog_ceil(10, 10), 1u);
  EXPECT_EQ(ilog_ceil(11, 10), 2u);
  EXPECT_EQ(ilog_ceil(100, 10), 2u);
  EXPECT_EQ(ilog_ceil(101, 10), 3u);
  // The PDM log_m n term: 1000 blocks with m=32 → 2 levels.
  EXPECT_EQ(ilog_ceil(1000, 32), 2u);
}

TEST(MathUtil, LcmOfVectors) {
  const u32 a[] = {8, 5, 3, 1};
  EXPECT_EQ(lcm_of(a), 120u);  // the paper's worked example
  const u32 b[] = {1, 1, 4, 4};
  EXPECT_EQ(lcm_of(b), 4u);    // the paper's testbed
  const u32 c[] = {1, 1, 1, 1};
  EXPECT_EQ(lcm_of(c), 1u);
  const u32 d[] = {6, 10, 15};
  EXPECT_EQ(lcm_of(d), 30u);
}

TEST(MathUtil, LcmOfThrowsInsteadOfWrapping) {
  // Three 32-bit primes: their lcm is their product, about 2^96.
  const u32 big[] = {4294967291u, 4294967279u, 4294967231u};
  EXPECT_THROW(lcm_of(big), std::overflow_error);
  // Two of them still fit, exactly.
  const u32 two[] = {4294967291u, 4294967279u};
  EXPECT_EQ(lcm_of(two), u64{4294967291u} * 4294967279u);
  EXPECT_THROW(checked_mul(u64{1} << 32, u64{1} << 32, "x"),
               std::overflow_error);
  EXPECT_EQ(checked_mul(u64{1} << 31, u64{1} << 32, "x"), u64{1} << 63);
}

TEST(MathUtil, SumOf) {
  const u32 a[] = {8, 5, 3, 1};
  EXPECT_EQ(sum_of(a), 17u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(65));
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextInInclusiveRange) {
  Xoshiro256 rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.next_in(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Xoshiro256 rng(12);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, Mix64IsAPermutationLikeMixer) {
  // Sanity: no trivial fixed points among small inputs, stable values.
  EXPECT_NE(mix64(0), 0u);
  EXPECT_NE(mix64(1), 1u);
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

// ---------------------------------------------------------------------
// RunningStats
// ---------------------------------------------------------------------

TEST(RunningStats, MeanAndStddevMatchClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, SingleSampleHasZeroDeviation) {
  RunningStats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, EmptyStatsRefuseQueries) {
  RunningStats s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.stddev(), ContractViolation);
}

// ---------------------------------------------------------------------
// MultisetChecksum
// ---------------------------------------------------------------------

TEST(MultisetChecksum, OrderIndependent) {
  MultisetChecksum a, b;
  for (u32 v : {5u, 1u, 9u, 1u}) a.add(v);
  for (u32 v : {1u, 1u, 5u, 9u}) b.add(v);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(MultisetChecksum, DetectsMultiplicityChange) {
  MultisetChecksum a, b;
  for (u32 v : {5u, 1u, 9u}) a.add(v);
  for (u32 v : {5u, 1u, 9u, 1u}) b.add(v);
  EXPECT_NE(a, b);
}

TEST(MultisetChecksum, DetectsSwapTamper) {
  // Dropping x and adding y with x+y preserved must still be caught.
  MultisetChecksum a, b;
  a.add(u32{10});
  a.add(u32{20});
  b.add(u32{15});
  b.add(u32{15});
  EXPECT_NE(a, b);
}

TEST(MultisetChecksum, MergeEqualsConcatenation) {
  MultisetChecksum left, right, whole;
  for (u32 v : {1u, 2u, 3u}) left.add(v);
  for (u32 v : {4u, 5u}) right.add(v);
  for (u32 v : {1u, 2u, 3u, 4u, 5u}) whole.add(v);
  left.merge(right);
  EXPECT_EQ(left, whole);
  EXPECT_EQ(left.count(), 5u);
}

TEST(MultisetChecksum, WorksForWiderRecords) {
  struct Rec {
    u64 k;
    u32 payload;
    u32 pad;
  };
  MultisetChecksum a, b;
  a.add(Rec{1, 2, 0});
  b.add(Rec{1, 3, 0});
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// Meter
// ---------------------------------------------------------------------

TEST(Meter, CountingMeterAccumulates) {
  CountingMeter m;
  m.on_compares(5);
  m.on_compares(7);
  m.on_moves(3);
  m.on_seconds(1.5);
  EXPECT_EQ(m.compares, 12u);
  EXPECT_EQ(m.moves, 3u);
  EXPECT_DOUBLE_EQ(m.seconds, 1.5);
}

// ---------------------------------------------------------------------
// ScopedTempDir
// ---------------------------------------------------------------------

TEST(ScopedTempDir, CreatesAndRemoves) {
  std::filesystem::path p;
  {
    ScopedTempDir dir("paladin-test");
    p = dir.path();
    EXPECT_TRUE(std::filesystem::is_directory(p));
    std::filesystem::create_directories(p / "sub");
  }
  EXPECT_FALSE(std::filesystem::exists(p));
}

TEST(ScopedTempDir, ReleasePreventsCleanup) {
  std::filesystem::path p;
  {
    ScopedTempDir dir("paladin-test");
    p = dir.release();
  }
  EXPECT_TRUE(std::filesystem::exists(p));
  std::filesystem::remove_all(p);
}

TEST(ScopedTempDir, UniqueAcrossInstances) {
  ScopedTempDir a("x"), b("x");
  EXPECT_NE(a.path(), b.path());
}

}  // namespace
}  // namespace paladin
