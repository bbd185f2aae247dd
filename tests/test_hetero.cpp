// Tests of the heterogeneity layer: the perf vector arithmetic
// (Equation 2, shares, sampling parameters) and the calibration protocol.
#include <gtest/gtest.h>

#include <stdexcept>

#include "base/rng.h"
#include "hetero/calibration.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"

namespace paladin::hetero {
namespace {

// ---------------------------------------------------------------------
// PerfVector basics
// ---------------------------------------------------------------------

TEST(PerfVector, PaperWorkedExample) {
  // perf = {8,5,3,1}: lcm = 120, and with k=1 the admissible size is
  // 120 + 3*120 + 5*120 + 8*120 = 2040 (paper §4).
  PerfVector perf({8, 5, 3, 1});
  EXPECT_EQ(perf.lcm(), 120u);
  EXPECT_EQ(perf.sum(), 17u);
  EXPECT_EQ(perf.admissible_size(1), 2040u);
  EXPECT_TRUE(perf.is_admissible(2040));
  EXPECT_FALSE(perf.is_admissible(2041));
  EXPECT_EQ(perf.shares(2040), (std::vector<u64>{960, 600, 360, 120}));
}

TEST(PerfVector, PaperTestbed) {
  PerfVector perf({4, 4, 1, 1});
  EXPECT_EQ(perf.lcm(), 4u);
  EXPECT_EQ(perf.sum(), 10u);
  // "Since the lcm of {1,1,4,4} is 4, we are able to choose 16777220":
  EXPECT_TRUE(perf.is_admissible(16777220));
  // "optimal size on the two slowest is 1677722, on the two fastest
  //  6710888":
  EXPECT_EQ(perf.share(0, 16777220), 6710888u);
  EXPECT_EQ(perf.share(2, 16777220), 1677722u);
}

TEST(PerfVector, HomogeneousDetection) {
  EXPECT_TRUE(PerfVector({1, 1, 1}).homogeneous());
  EXPECT_TRUE(PerfVector({3, 3}).homogeneous());
  EXPECT_FALSE(PerfVector({1, 2}).homogeneous());
}

TEST(PerfVector, RejectsZeroAndEmpty) {
  EXPECT_THROW(PerfVector({1, 0, 2}), ContractViolation);
  EXPECT_THROW(PerfVector({}), ContractViolation);
}

TEST(PerfVector, RoundUpAdmissible) {
  PerfVector perf({4, 4, 1, 1});  // shares need n % 10 == 0
  EXPECT_EQ(perf.round_up_admissible(1), 10u);
  EXPECT_EQ(perf.round_up_admissible(40), 40u);
  EXPECT_EQ(perf.round_up_admissible(41), 50u);
  EXPECT_EQ(perf.round_up_admissible(0), 10u);
  // Canonical Equation-2 sizes are always admissible.
  EXPECT_TRUE(perf.is_admissible(perf.admissible_size(7)));
}

TEST(PerfVector, SharesSumToN) {
  for (auto perf_values :
       {std::vector<u32>{1, 1, 1, 1}, std::vector<u32>{4, 4, 1, 1},
        std::vector<u32>{8, 5, 3, 1}, std::vector<u32>{2, 3},
        std::vector<u32>{7}}) {
    PerfVector perf(perf_values);
    const u64 n = perf.admissible_size(3);
    const auto shares = perf.shares(n);
    u64 total = 0;
    for (u64 s : shares) total += s;
    EXPECT_EQ(total, n) << perf.to_string();
    // Shares proportional to perf.
    for (u32 i = 0; i < perf.node_count(); ++i) {
      EXPECT_EQ(shares[i] * perf.sum(), n * perf[i]);
    }
  }
}

TEST(PerfVector, ShareOffsetsArePrefixSums) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(2);
  u64 expected = 0;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    EXPECT_EQ(perf.share_offset(i, n), expected);
    expected += perf.share(i, n);
  }
}

TEST(PerfVector, ShareRequiresDivisibleN) {
  PerfVector perf({2, 1});
  EXPECT_THROW(perf.share(0, 7), ContractViolation);
}

// ---------------------------------------------------------------------
// Sampling parameters (Step 2 arithmetic)
// ---------------------------------------------------------------------

TEST(PerfVector, SampleStrideIsGlobal) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(100);  // 40*100 = 4000
  // off = n / (p * sum) = 4000 / 40 = 100.
  EXPECT_EQ(perf.sample_stride(n), 100u);
}

TEST(PerfVector, SampleCountsFollowPerf) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(100);  // divides p·Σperf evenly
  EXPECT_EQ(perf.sample_count(0, n), 15u);  // p*perf - 1 = 4*4-1
  EXPECT_EQ(perf.sample_count(2, n), 3u);   // 4*1-1
  // Total = p*sum - p.
  u64 total = 0;
  for (u32 i = 0; i < 4; ++i) total += perf.sample_count(i, n);
  EXPECT_EQ(total, 4 * perf.sum() - 4);
}

TEST(PerfVector, SampleCountsWithFlooredStride) {
  // The paper's own size: n = 16777220 on {4,4,1,1} has stride
  // floor(16777220/40) = 419430 (not exact) — counts follow the loop.
  PerfVector perf({4, 4, 1, 1});
  const u64 n = 16777220;
  const u64 off = perf.sample_stride(n);
  EXPECT_EQ(off, 419430u);
  EXPECT_EQ(perf.sample_count(0, n), perf.share(0, n) / off - 1);
  u64 total = 0;
  for (u32 i = 0; i < 4; ++i) total += perf.sample_count(i, n);
  EXPECT_GE(total, 4u);  // always enough for pivot selection
}

TEST(PerfVector, SampleStrideClampedBoundaries) {
  // p = 1: unit = Σperf·p·oversample = perf[0]·oversample; any n at or
  // above it strides normally, anything below clamps to the densest
  // regular sample (off = 1) instead of tripping a contract.
  PerfVector solo({3});
  EXPECT_EQ(solo.sample_stride_clamped(3), 1u);
  EXPECT_EQ(solo.sample_stride_clamped(2), 1u);   // n < unit → clamp
  EXPECT_EQ(solo.sample_stride_clamped(0), 1u);   // even n = 0 survives
  EXPECT_EQ(solo.sample_stride_clamped(12), 4u);
  EXPECT_EQ(solo.sample_stride_clamped(12, 4), 1u);  // oversample eats n

  // All-equal perf: the clamped stride agrees with the classic PSRS
  // stride n/p² whenever n is large enough, and clamps below it.
  PerfVector equal({1, 1, 1, 1});
  const u64 n = equal.admissible_size(64);  // 256
  EXPECT_EQ(equal.sample_stride_clamped(n), equal.sample_stride(n));
  EXPECT_EQ(equal.sample_stride_clamped(15), 1u);  // 15 < 16 = p·Σperf
  EXPECT_EQ(equal.sample_stride_clamped(16), 1u);  // exactly the unit
}

TEST(PerfVector, AdmissibleSizeBoundaries) {
  // p = 1: Equation 2 collapses to k·perf[0]² and every multiple of
  // perf[0] is admissible.
  PerfVector solo({5});
  EXPECT_EQ(solo.admissible_size(1), 25u);
  EXPECT_TRUE(solo.is_admissible(5));
  EXPECT_FALSE(solo.is_admissible(7));
  EXPECT_EQ(solo.round_up_admissible(1), 5u);

  // All-equal perf: lcm = 1, so Equation 2 is just k·p.
  PerfVector equal({1, 1, 1, 1});
  EXPECT_EQ(equal.lcm(), 1u);
  EXPECT_EQ(equal.admissible_size(1), 4u);
  EXPECT_EQ(equal.admissible_size(96), 384u);
  EXPECT_TRUE(equal.is_admissible(4));
  EXPECT_FALSE(equal.is_admissible(2));

  // k = 0 violates the Equation-2 contract (k ≥ 1).
  EXPECT_THROW(equal.admissible_size(0), ContractViolation);
}

TEST(PerfVector, ZeroPerfEntryViolatesContract) {
  // A zero entry would make Equation 2 divide by zero downstream; the
  // constructor is the contract boundary and must reject it up front —
  // wherever the zero sits.
  EXPECT_THROW(PerfVector({0}), ContractViolation);
  EXPECT_THROW(PerfVector({0, 1, 1}), ContractViolation);
  EXPECT_THROW(PerfVector({1, 1, 0}), ContractViolation);
  EXPECT_THROW(PerfVector(std::vector<u32>(16, 0)), ContractViolation);
}

TEST(PerfVector, FuzzedVectorsHaveAnExactLcmOrReportOverflow) {
  // Seeded vectors mixing the paper's small factors, 32-bit primes and
  // random 32-bit factors.  Each one either reports an lcm overflow, or has
  // an lcm every factor divides; its shares of a rounded-up size sum to
  // that size either way.
  constexpr u32 kPrimes[] = {4294967291u, 4294967279u, 4294967231u,
                             4294967197u};
  Xoshiro256 rng(0x1c3);
  u64 overflowed = 0;
  u64 exact = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<u32> values(1 + rng.next_below(8));
    for (u32& v : values) {
      switch (rng.next_below(3)) {
        case 0: v = static_cast<u32>(1 + rng.next_below(16)); break;
        case 1: v = kPrimes[rng.next_below(4)]; break;
        default: v = static_cast<u32>(1 + rng.next_below(0xffffffffu));
      }
    }
    const PerfVector perf(values);
    SCOPED_TRACE(perf.to_string());
    const u64 n = perf.round_up_admissible(1 + rng.next_below(u64{1} << 20));
    u64 total = 0;
    for (const u64 share : perf.shares(n)) total += share;
    EXPECT_EQ(total, n);

    u64 lcm = 0;
    try {
      lcm = perf.lcm();
    } catch (const std::overflow_error&) {
      ++overflowed;
      EXPECT_THROW(perf.admissible_size(1), std::overflow_error);
      continue;
    }
    ++exact;
    for (const u32 v : values) EXPECT_EQ(lcm % v, 0u) << v;
    try {
      const u64 size = perf.admissible_size(1);
      EXPECT_TRUE(perf.is_admissible(size));
      EXPECT_EQ(size % lcm, 0u);
    } catch (const std::overflow_error&) {
      // lcm fits but Σperf·lcm does not.
    }
  }
  EXPECT_GT(overflowed, 0u);
  EXPECT_GT(exact, 0u);
}

TEST(PerfVector, HomogeneousSamplingMatchesClassicPsrs) {
  PerfVector perf({1, 1, 1, 1});
  // Classic PSRS: each node contributes p-1 samples at stride n/p².
  const u64 n = perf.admissible_size(64);  // 4*64 = 256
  EXPECT_EQ(perf.sample_count(0, n), 3u);
  EXPECT_EQ(perf.sample_stride(n), 16u);   // 256/(4*4)
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

TEST(Calibration, TimesToPerfRoundsNoisyRatios) {
  // Noisy measurements around the paper's 4:1 conclusion still snap to
  // integer factors.
  const PerfVector perf = times_to_perf({103.0, 98.0, 401.0, 399.0});
  EXPECT_EQ(std::vector<u32>(perf.values().begin(), perf.values().end()),
            (std::vector<u32>{4, 4, 1, 1}));
}

TEST(Calibration, TimesToPerfExactRatios) {
  const PerfVector perf = times_to_perf({250.0, 250.0, 1000.0, 1000.0});
  EXPECT_EQ(std::vector<u32>(perf.values().begin(), perf.values().end()),
            (std::vector<u32>{4, 4, 1, 1}));
}

TEST(Calibration, UniformTimesReduceToOnes) {
  const PerfVector perf = times_to_perf({100.0, 100.0, 100.0});
  EXPECT_TRUE(perf.homogeneous());
  EXPECT_EQ(perf.values()[0], 1u);
}

TEST(Calibration, RejectsNonPositiveTimes) {
  EXPECT_THROW(times_to_perf({1.0, 0.0}), ContractViolation);
  EXPECT_THROW(times_to_perf({}), ContractViolation);
}

TEST(Calibration, ClusterProtocolRecoversConfiguredSpeeds) {
  // A cluster whose true speeds are {4,4,1,1} must calibrate to exactly
  // that perf vector via the paper's N/p-sequential-sort protocol.
  net::ClusterConfig config = net::ClusterConfig::paper_testbed();
  config.disk.block_bytes = 256;

  seq::ExternalSortConfig sort_config;
  sort_config.memory_records = 512;
  sort_config.tape_count = 4;
  sort_config.allow_in_memory = false;

  const CalibrationResult result = calibrate(config, 4 * 8192, sort_config);
  ASSERT_EQ(result.seconds.size(), 4u);
  // Same work everywhere: times inversely proportional to speed.
  EXPECT_NEAR(result.seconds[2] / result.seconds[0], 4.0, 0.01);
  EXPECT_EQ(std::vector<u32>(result.perf.values().begin(),
                             result.perf.values().end()),
            (std::vector<u32>{4, 4, 1, 1}));
}

}  // namespace
}  // namespace paladin::hetero
