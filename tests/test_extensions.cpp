// Tests of the extensions beyond the paper's baseline algorithm:
// sampling oversampling (denser regular samples) and exact splitter
// selection by distributed bisection.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/checksum.h"
#include "base/stats.h"
#include "core/exact_splitters.h"
#include "core/ext_psrs.h"
#include "core/psrs_incore.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin {
namespace {

using core::psrs_exact_incore_sort;
using core::psrs_incore_sort;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------
// Sampling oversampling
// ---------------------------------------------------------------------

TEST(Oversample, StrideShrinksByTheFactor) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(400);
  EXPECT_EQ(perf.sample_stride(n, 1), 4 * perf.sample_stride(n, 4));
  EXPECT_GT(perf.sample_count(0, n, 4), perf.sample_count(0, n, 1));
}

TEST(Oversample, PivotRanksScaleWithDensity) {
  // With oversample o and exact divisibility, pivot j moves to rank
  // o·p·cum_j; on the same value ladder the selected pivots agree.
  PerfVector perf({1, 1});
  NullMeter meter;
  std::vector<u32> s1 = {10, 20};            // o=1: 2·2−2 = 2 samples
  std::vector<u32> s2 = {5, 10, 15, 20, 25, 30};  // o=2: 6 samples
  const auto p1 = core::select_pivots<u32>(s1, perf, meter, {}, 1);
  const auto p2 = core::select_pivots<u32>(s2, perf, meter, {}, 2);
  EXPECT_EQ(p1, std::vector<u32>{20});  // rank 1·2·1 = 2 → index 1
  EXPECT_EQ(p2, std::vector<u32>{20});  // rank 2·2·1 = 4 → index 3: same cut
}

TEST(Oversample, ImprovesSlowNodeBalance) {
  // The structural quantisation error of the paper's sampling rate is
  // off/l_i; densifying the sample by o shrinks it o-fold.  Measure the
  // overall perf-weighted expansion at o=1 vs o=8 across seeds.
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(40000);
  auto expansion_at = [&](u64 oversample) {
    RunningStats acc;
    for (u64 seed = 50; seed < 58; ++seed) {
      ClusterConfig config;
      config.perf = {4, 4, 1, 1};
      config.seed = seed;
      Cluster cluster(config);
      WorkloadSpec spec{Dist::kUniform, n, 4, seed};
      auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
        std::vector<u32> local = workload::generate_share(
            spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
            perf.share(ctx.rank(), n));
        return psrs_incore_sort<u32>(ctx, perf, std::move(local), nullptr, {},
                                     oversample)
            .size();
      });
      acc.add(metrics::sublist_expansion(
          std::span<const u64>(outcome.results), perf));
    }
    return acc.mean();
  };
  const double base = expansion_at(1);
  const double dense = expansion_at(8);
  EXPECT_LT(dense, base);
  EXPECT_LT(dense, 1.1);
}

TEST(Oversample, ExtPsrsStillSortsCorrectly) {
  PerfVector perf({3, 2, 1});
  const u64 n = perf.round_up_admissible(6000);
  ClusterConfig config;
  config.perf = {3, 2, 1};
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kGaussian, n, 3, 3};
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    psrs.sampling_oversample = 4;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return core::verify_global_order<DefaultKey>(ctx, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------
// Exact splitters
// ---------------------------------------------------------------------

TEST(ExactSplitters, TargetRanksAreCumulativeShares) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(10);  // 400
  EXPECT_EQ(core::exact_target_ranks(perf, n),
            (std::vector<u64>{160, 320, 360}));
}

struct ExactCase {
  std::vector<u32> perf;
  Dist dist;
};

void PrintTo(const ExactCase& c, std::ostream* os) {
  *os << workload::to_string(c.dist) << "_p" << c.perf.size();
}

class ExactSplit : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExactSplit, FinalPartitionsAreExactlyProportional) {
  const ExactCase& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.round_up_admissible(6000);

  ClusterConfig config;
  config.perf = param.perf;
  Cluster cluster(config);
  WorkloadSpec spec{param.dist, n, perf.node_count(), 4};

  struct R {
    std::vector<u32> data;
    core::ExactPsrsReport report;
    MultisetChecksum before;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    R r;
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    r.before.add_span(std::span<const u32>(local));
    r.data = psrs_exact_incore_sort<u32>(ctx, perf, std::move(local),
                                         &r.report);
    return r;
  });

  MultisetChecksum before, after;
  bool have_prev = false;
  u32 prev_last = 0;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const R& r = outcome.results[i];
    // EXACT proportionality — the whole point of the extension.
    EXPECT_EQ(r.data.size(), perf.share(i, n)) << "node " << i;
    EXPECT_TRUE(std::is_sorted(r.data.begin(), r.data.end()));
    if (!r.data.empty()) {
      if (have_prev) EXPECT_LE(prev_last, r.data.front());
      prev_last = r.data.back();
      have_prev = true;
    }
    EXPECT_LE(r.report.bisection_rounds, 33u);
    before.merge(r.before);
    after.add_span(std::span<const u32>(r.data));
  }
  EXPECT_EQ(before, after);
}

std::vector<ExactCase> exact_cases() {
  std::vector<ExactCase> out;
  for (const auto& perf :
       {std::vector<u32>{1, 1, 1, 1}, std::vector<u32>{4, 4, 1, 1},
        std::vector<u32>{3, 2, 1}, std::vector<u32>{2, 1}}) {
    for (Dist dist :
         {Dist::kUniform, Dist::kZero, Dist::kSorted, Dist::kStaggered,
          Dist::kDuplicates}) {
      out.push_back(ExactCase{perf, dist});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExactSplit,
                         ::testing::ValuesIn(exact_cases()),
                         test_params::printed_name);

TEST(ExactSplitters, ExpansionIsExactlyOneEvenOnAllDuplicates) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(8000);
  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kZero, n, 4, 5};
  auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    return psrs_exact_incore_sort<u32>(ctx, perf, std::move(local)).size();
  });
  EXPECT_DOUBLE_EQ(metrics::sublist_expansion(
                       std::span<const u64>(outcome.results), perf),
                   1.0);
}

TEST(ExactSplitters, CostsManyMoreMessageRoundsThanOneStepSampling) {
  // The trade the paper §3 design dodges: on a high-latency network the
  // bisection rounds dominate.  Compare simulated times with compute and
  // disk free, network = Fast Ethernet.
  PerfVector perf({1, 1, 1, 1});
  const u64 n = perf.round_up_admissible(20000);
  auto time_of = [&](bool exact) {
    ClusterConfig config;
    config.perf = {1, 1, 1, 1};
    config.cost = net::CostModel::free_compute();
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kUniform, n, 4, 9};
    auto outcome = cluster.run([&](NodeContext& ctx) -> int {
      std::vector<u32> local = workload::generate_share(
          spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
          perf.share(ctx.rank(), n));
      if (exact) {
        psrs_exact_incore_sort<u32>(ctx, perf, std::move(local));
      } else {
        psrs_incore_sort<u32>(ctx, perf, std::move(local));
      }
      return 0;
    });
    return outcome.makespan;
  };
  EXPECT_GT(time_of(true), time_of(false));
}

}  // namespace
}  // namespace paladin
