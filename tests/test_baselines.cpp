// Tests of the comparison algorithms: in-core heterogeneous PSRS, Li–Sevcik
// overpartitioning and the DeWitt-style external distribution sort.  Each
// must produce a sorted permutation; PSRS must additionally obey its
// deterministic balance bound.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/checksum.h"
#include "base/stats.h"
#include "core/ext_distribution.h"
#include "core/ext_overpartition.h"
#include "core/overpartition.h"
#include "core/psrs_incore.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::core {
namespace {

using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

pdm::DiskParams tiny_blocks() {
  pdm::DiskParams p;
  p.block_bytes = 64;
  return p;
}

struct Case {
  std::vector<u32> perf;
  Dist dist;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << workload::to_string(c.dist) << "_p" << c.perf.size();
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const auto& perf :
       {std::vector<u32>{1, 1, 1, 1}, std::vector<u32>{4, 4, 1, 1},
        std::vector<u32>{3, 2, 1}}) {
    for (Dist dist : {Dist::kUniform, Dist::kGaussian, Dist::kZero,
                      Dist::kStaggered, Dist::kSorted}) {
      out.push_back(Case{perf, dist});
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// In-core heterogeneous PSRS
// ---------------------------------------------------------------------

class InCorePsrs : public ::testing::TestWithParam<Case> {};

TEST_P(InCorePsrs, SortsPermutesAndBalances) {
  const Case& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.round_up_admissible(6000);

  ClusterConfig config;
  config.perf = param.perf;
  Cluster cluster(config);
  WorkloadSpec spec{param.dist, n, perf.node_count(), 5};

  struct R {
    std::vector<u32> data;
    InCorePsrsReport report;
    MultisetChecksum before;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    R r;
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    r.before.add_span(std::span<const u32>(local));
    r.data = psrs_incore_sort<u32>(ctx, perf, std::move(local), &r.report);
    return r;
  });

  // Globally sorted in rank order and a permutation of the input.
  MultisetChecksum before, after;
  std::vector<u64> finals, shares;
  u32 last_nonempty = 0;
  bool have_prev = false;
  u32 prev_last = 0;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const R& r = outcome.results[i];
    EXPECT_TRUE(std::is_sorted(r.data.begin(), r.data.end()));
    if (!r.data.empty()) {
      if (have_prev) EXPECT_LE(prev_last, r.data.front());
      prev_last = r.data.back();
      have_prev = true;
      last_nonempty = i;
    }
    before.merge(r.before);
    after.add_span(std::span<const u32>(r.data));
    finals.push_back(r.report.final_records);
    shares.push_back(perf.share(i, n));
    EXPECT_EQ(r.report.final_records, r.data.size());
  }
  (void)last_nonempty;
  EXPECT_EQ(before, after);

  u64 slack = param.dist == Dist::kZero ? n : 0;
  EXPECT_TRUE(metrics::within_psrs_bound(finals, shares, slack));
}

INSTANTIATE_TEST_SUITE_P(Sweep, InCorePsrs, ::testing::ValuesIn(cases()),
                         test_params::printed_name);

TEST(InCorePsrsBalance, UniformExpansionNearOne) {
  // The paper's S(max) column is measured over the *fastest* nodes (whose
  // relative sampling error is smallest); it observes 1.003–1.094.  The
  // slow nodes see the same absolute pivot error on a 4x smaller share, so
  // their expansion is noisier; the deterministic bound of 2 still holds.
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(20000);
  RunningStats fast_expansion, overall_expansion;
  for (u64 seed : {17u, 18u, 19u, 20u, 21u}) {
    ClusterConfig config;
    config.perf = {4, 4, 1, 1};
    config.seed = seed;
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kUniform, n, 4, seed};
    auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
      std::vector<u32> local = workload::generate_share(
          spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
          perf.share(ctx.rank(), n));
      return psrs_incore_sort<u32>(ctx, perf, std::move(local)).size();
    });
    const double fast_opt = static_cast<double>(n) * 4 / 10;
    fast_expansion.add(
        std::max(static_cast<double>(outcome.results[0]),
                 static_cast<double>(outcome.results[1])) /
        fast_opt);
    overall_expansion.add(metrics::sublist_expansion(
        std::span<const u64>(outcome.results), perf));
  }
  EXPECT_LT(fast_expansion.mean(), 1.12);   // paper: 1.094
  EXPECT_LT(overall_expansion.mean(), 1.5);
  EXPECT_LT(overall_expansion.max(), 2.0);  // the theorem's hard bound
}

// ---------------------------------------------------------------------
// Overpartitioning
// ---------------------------------------------------------------------

class Overpartition : public ::testing::TestWithParam<Case> {};

TEST_P(Overpartition, SublistsSortedDisjointAndComplete) {
  const Case& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.round_up_admissible(6000);
  const u32 p = perf.node_count();

  ClusterConfig config;
  config.perf = param.perf;
  Cluster cluster(config);
  WorkloadSpec spec{param.dist, n, p, 6};

  struct R {
    std::vector<std::vector<u32>> sublists;
    OverpartitionReport report;
    MultisetChecksum before;
  };
  OverpartitionConfig op;
  op.s = 4;
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    R r;
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    r.before.add_span(std::span<const u32>(local));
    r.sublists =
        overpartition_sort<u32>(ctx, perf, std::move(local), op, &r.report);
    return r;
  });

  MultisetChecksum before, after;
  u64 total = 0, total_sublists = 0;
  for (u32 i = 0; i < p; ++i) {
    const R& r = outcome.results[i];
    before.merge(r.before);
    for (const auto& sub : r.sublists) {
      EXPECT_TRUE(std::is_sorted(sub.begin(), sub.end()));
      after.add_span(std::span<const u32>(sub));
      total += sub.size();
    }
    total_sublists += r.sublists.size();
    EXPECT_EQ(r.report.sublists_owned, r.sublists.size());
  }
  EXPECT_EQ(before, after);
  EXPECT_EQ(total, n);
  EXPECT_EQ(total_sublists, u64{p} * op.s);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Overpartition, ::testing::ValuesIn(cases()),
                         test_params::printed_name);

TEST(OverpartitionDetail, LptAssignmentBalancesWeightedLoad) {
  PerfVector perf({2, 1});
  // Sizes 8,4,4,2,1,1 → weighted LPT should give the fast node about
  // twice the slow node's records.
  const std::vector<u64> sizes = {8, 4, 4, 2, 1, 1};
  const auto owner = detail::assign_sublists(sizes, perf);
  ASSERT_EQ(owner.size(), sizes.size());
  u64 fast = 0, slow = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    (owner[i] == 0 ? fast : slow) += sizes[i];
  }
  EXPECT_EQ(fast + slow, 20u);
  const double ratio = static_cast<double>(fast) / static_cast<double>(slow);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.6);
}

TEST(OverpartitionDetail, AssignmentDeterministic) {
  PerfVector perf({4, 4, 1, 1});
  const std::vector<u64> sizes = {5, 9, 2, 2, 7, 7, 1, 0};
  EXPECT_EQ(detail::assign_sublists(sizes, perf),
            detail::assign_sublists(sizes, perf));
}

// ---------------------------------------------------------------------
// External distribution sort (DeWitt baseline)
// ---------------------------------------------------------------------

class ExtDistribution : public ::testing::TestWithParam<Case> {};

TEST_P(ExtDistribution, SortsAndPermutes) {
  const Case& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.round_up_admissible(5000);

  ClusterConfig config;
  config.perf = param.perf;
  config.disk = tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec{param.dist, n, perf.node_count(), 8};

  struct R {
    bool sorted;
    bool permuted;
    u64 final_records;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    workload::write_share(spec, ctx.rank(),
                          perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        file_checksum<DefaultKey>(ctx.disk(), "input");
    ExtDistributionConfig cfg;
    cfg.sequential.memory_records = 512;
    cfg.sequential.tape_count = 5;
    cfg.sequential.allow_in_memory = false;
    cfg.message_records = 64;
    const auto report = ext_distribution_sort<DefaultKey>(ctx, perf, cfg);
    R r;
    r.sorted = verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted = verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    r.final_records = report.final_records;
    return r;
  });

  u64 total = 0;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    EXPECT_TRUE(outcome.results[i].sorted) << "node " << i;
    EXPECT_TRUE(outcome.results[i].permuted) << "node " << i;
    total += outcome.results[i].final_records;
  }
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtDistribution,
                         ::testing::ValuesIn(cases()),
                         test_params::printed_name);


// ---------------------------------------------------------------------
// External overpartitioning (Li–Sevcik at out-of-core scale)
// ---------------------------------------------------------------------

class ExtOverpartition : public ::testing::TestWithParam<Case> {};

TEST_P(ExtOverpartition, BucketsSortedCompleteAndOwnedOnce) {
  const Case& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.round_up_admissible(5000);
  const u32 p = perf.node_count();

  ClusterConfig config;
  config.perf = param.perf;
  config.disk = tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec{param.dist, n, p, 13};

  struct R {
    ExtOverpartitionReport report;
    MultisetChecksum before;
    MultisetChecksum after;
    bool buckets_sorted = true;
  };
  ExtOverpartitionConfig op;
  op.sequential.memory_records = 512;
  op.sequential.tape_count = 4;
  op.sequential.allow_in_memory = false;
  op.message_records = 64;
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    workload::write_share(spec, ctx.rank(),
                          perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    R r;
    r.before = file_checksum<DefaultKey>(ctx.disk(), "input");
    r.report = ext_overpartition_sort<DefaultKey>(ctx, perf, op);
    for (u64 b : r.report.owned_buckets) {
      const std::string name = "sorted.bucket" + std::to_string(b);
      r.buckets_sorted =
          r.buckets_sorted && is_sorted_file<DefaultKey>(ctx.disk(), name);
      r.after.merge(file_checksum<DefaultKey>(ctx.disk(), name));
    }
    return r;
  });

  MultisetChecksum before, after;
  u64 total = 0;
  std::vector<u64> seen_buckets;
  for (u32 i = 0; i < p; ++i) {
    const R& r = outcome.results[i];
    EXPECT_TRUE(r.buckets_sorted) << "node " << i;
    before.merge(r.before);
    after.merge(r.after);
    total += r.report.final_records;
    for (u64 b : r.report.owned_buckets) seen_buckets.push_back(b);
  }
  EXPECT_EQ(before, after);
  EXPECT_EQ(total, n);
  // Every bucket owned exactly once.
  std::sort(seen_buckets.begin(), seen_buckets.end());
  ASSERT_EQ(seen_buckets.size(), u64{p} * op.s);
  for (u64 b = 0; b < seen_buckets.size(); ++b) {
    EXPECT_EQ(seen_buckets[b], b);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtOverpartition,
                         ::testing::ValuesIn(cases()),
                         test_params::printed_name);

TEST(ExtOverpartitionOrder, BucketsFormAGlobalOrder) {
  // Concatenating all buckets in bucket order (regardless of owner) must
  // yield the globally sorted sequence.
  PerfVector perf({2, 1});
  const u64 n = perf.round_up_admissible(3000);
  ClusterConfig config;
  config.perf = {2, 1};
  config.disk = tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kUniform, n, 2, 31};
  ExtOverpartitionConfig op;
  op.sequential.memory_records = 512;
  op.sequential.allow_in_memory = false;

  struct R {
    std::vector<u64> owned;
    std::vector<std::vector<u32>> data;
    std::vector<u32> input;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    R r;
    r.input = workload::generate_share(spec, ctx.rank(),
                                       perf.share_offset(ctx.rank(), n),
                                       perf.share(ctx.rank(), n));
    pdm::write_file<u32>(ctx.disk(), "input", std::span<const u32>(r.input));
    const auto report = ext_overpartition_sort<u32>(ctx, perf, op);
    r.owned = report.owned_buckets;
    for (u64 b : r.owned) {
      r.data.push_back(pdm::read_file<u32>(
          ctx.disk(), "sorted.bucket" + std::to_string(b)));
    }
    return r;
  });

  std::vector<std::vector<u32>> by_bucket(2 * 4);
  std::vector<u32> expected;
  for (const R& r : outcome.results) {
    expected.insert(expected.end(), r.input.begin(), r.input.end());
    for (std::size_t i = 0; i < r.owned.size(); ++i) {
      by_bucket[r.owned[i]] = r.data[i];
    }
  }
  std::sort(expected.begin(), expected.end());
  std::vector<u32> assembled;
  for (const auto& b : by_bucket) {
    assembled.insert(assembled.end(), b.begin(), b.end());
  }
  EXPECT_EQ(assembled, expected);
}

}  // namespace
}  // namespace paladin::core
