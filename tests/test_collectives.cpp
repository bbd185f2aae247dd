// Tests of the linear collectives across cluster sizes, including
// non-powers of two and roots ≠ 0: broadcast, allreduce and barrier must
// deliver the same result on every node at every p.
#include <gtest/gtest.h>

#include "net/cluster.h"
#include "test_params.h"

namespace paladin::net {
namespace {

ClusterConfig free_compute(u32 p) {
  ClusterConfig c = ClusterConfig::homogeneous(p);
  c.cost = CostModel::free_compute();
  return c;
}

class Collectives : public ::testing::TestWithParam<u32> {};

TEST_P(Collectives, BcastValueFromEveryThirdRoot) {
  const u32 p = GetParam();
  for (u32 root = 0; root < p; root += (p > 3 ? 3 : 1)) {
    Cluster cluster(free_compute(p));
    auto out = cluster.run([&](NodeContext& ctx) -> u64 {
      const u64 v = ctx.rank() == root ? 4242 : 0;
      return ctx.comm().bcast_value<u64>(v, root);
    });
    for (u64 v : out.results) EXPECT_EQ(v, 4242u) << "p=" << p;
  }
}

TEST_P(Collectives, BcastRecordsDeliversFullPayload) {
  const u32 p = GetParam();
  Cluster cluster(free_compute(p));
  auto out = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> payload;
    if (ctx.rank() == 0) {
      for (u32 i = 0; i < 1000; ++i) payload.push_back(i * 3);
    }
    return ctx.comm().bcast_records<u32>(std::move(payload), 0);
  });
  for (const auto& v : out.results) {
    ASSERT_EQ(v.size(), 1000u);
    EXPECT_EQ(v[999], 2997u);
  }
}

TEST_P(Collectives, AllReduceSumAndMax) {
  const u32 p = GetParam();
  Cluster cluster(free_compute(p));
  auto out = cluster.run([&](NodeContext& ctx) -> std::pair<u64, double> {
    const u64 sum = ctx.comm().allreduce_sum(ctx.rank() + 1ull);
    const double mx =
        ctx.comm().allreduce_max(static_cast<double>(ctx.rank()));
    return {sum, mx};
  });
  const u64 expected_sum = u64{p} * (p + 1) / 2;
  for (const auto& [sum, mx] : out.results) {
    EXPECT_EQ(sum, expected_sum);
    EXPECT_DOUBLE_EQ(mx, static_cast<double>(p - 1));
  }
}

TEST_P(Collectives, BarrierSynchronisesClocks) {
  const u32 p = GetParam();
  Cluster cluster(free_compute(p));
  auto out = cluster.run([&](NodeContext& ctx) -> double {
    ctx.clock().advance(static_cast<double>(ctx.rank()));
    ctx.comm().barrier();
    return ctx.clock().now();
  });
  for (double t : out.results) {
    EXPECT_GE(t, static_cast<double>(p - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16),
                         test_params::printed_name);

TEST(CollectivesInSpmdBody, MixedTrafficComposes) {
  Cluster cluster(ClusterConfig::homogeneous(8));
  auto out = cluster.run([](NodeContext& ctx) -> u64 {
    // The collectives ext_psrs composes (allreduce_sum for n, the
    // all-to-all exchange, a barrier) back to back in one SPMD body.
    const u64 n = ctx.comm().allreduce_sum(100);
    std::vector<std::vector<u32>> outgoing(8);
    for (u32 j = 0; j < 8; ++j) outgoing[j] = {ctx.rank() + j};
    auto incoming = ctx.comm().alltoall_records<u32>(std::move(outgoing));
    ctx.comm().barrier();
    u64 sum = n;
    for (const auto& v : incoming) sum += v.at(0);
    return sum;
  });
  // n = 800, plus Σ_i (i + rank) over the eight senders.
  for (u32 r = 0; r < 8; ++r) EXPECT_EQ(out.results[r], 828u + 8 * r);
}

}  // namespace
}  // namespace paladin::net
