// Property tests: every sort in the library, against the std::sort oracle,
// across every input generator — sequential external sorts (both
// strategies × both run formations) and the full scatter → parallel-sort →
// gather round trip.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/meter.h"
#include "base/rng.h"
#include "core/ext_psrs.h"
#include "core/psrs_incore.h"
#include "core/verify.h"
#include "core/scatter_gather.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin {
namespace {

using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

std::vector<u32> make_input(Dist dist, u64 n, u64 seed) {
  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = 4;  // shapes the partitioned distributions
  spec.seed = seed;
  std::vector<u32> all;
  for (u32 node = 0; node < 4; ++node) {
    const auto part =
        workload::generate_share(spec, node, node * (n / 4), n / 4);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

// ---------------------------------------------------------------------
// Sequential external sorts vs oracle
// ---------------------------------------------------------------------

struct SeqCase {
  Dist dist;
  seq::SortStrategy strategy;
  seq::RunFormation rf;
};

void PrintTo(const SeqCase& c, std::ostream* os) {
  *os << workload::to_string(c.dist) << "_" << seq::to_string(c.strategy)
      << "_" << seq::to_string(c.rf);
}

class SeqOracle : public ::testing::TestWithParam<SeqCase> {};

TEST_P(SeqOracle, MatchesStdSort) {
  const SeqCase& param = GetParam();
  const u64 n = 8192;
  pdm::DiskParams params;
  params.block_bytes = 128;  // 32 records/block
  pdm::Disk disk = pdm::Disk::in_memory(params);

  const auto input = make_input(param.dist, n, 1234);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  seq::ExternalSortConfig config;
  config.strategy = param.strategy;
  config.run_formation = param.rf;
  config.memory_records = 512;
  config.allow_in_memory = false;
  NullMeter meter;
  seq::external_sort<u32>(disk, "in", "out", config, meter);

  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
}

std::vector<SeqCase> seq_cases() {
  std::vector<SeqCase> out;
  for (Dist dist : workload::kAllDists) {
    for (auto strategy :
         {seq::SortStrategy::kPolyphase, seq::SortStrategy::kBalancedKWay}) {
      for (auto rf : {seq::RunFormation::kLoadSortStore,
                      seq::RunFormation::kReplacementSelection}) {
        out.push_back(SeqCase{dist, strategy, rf});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, SeqOracle,
                         ::testing::ValuesIn(seq_cases()));

// ---------------------------------------------------------------------
// Scatter → parallel external PSRS → gather, vs oracle
// ---------------------------------------------------------------------

class EndToEndOracle : public ::testing::TestWithParam<Dist> {};

TEST_P(EndToEndOracle, ScatterSortGatherEqualsStdSort) {
  const Dist dist = GetParam();
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(12000);

  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk.block_bytes = 256;
  Cluster cluster(config);

  const auto input = make_input(dist, n, 4321);

  auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    if (ctx.rank() == 0) {
      pdm::write_file<u32>(ctx.disk(), "all.in",
                           std::span<const u32>(input));
    }
    core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0, 256);

    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<u32>(ctx, perf, psrs);

    core::gather_shares<u32>(ctx, "sorted", "all.out", 0, 256);
    if (ctx.rank() == 0) {
      return pdm::read_file<u32>(ctx.disk(), "all.out");
    }
    return {};
  });

  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(outcome.results[0], expected);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, EndToEndOracle,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// ---------------------------------------------------------------------
// Scatter/gather unit behaviour
// ---------------------------------------------------------------------

TEST(ScatterGather, SharesAreContiguousAndProportional) {
  PerfVector perf({3, 2, 1});
  const u64 n = perf.admissible_size(10);  // 60 records
  ClusterConfig config;
  config.perf = {3, 2, 1};
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    if (ctx.rank() == 0) {
      std::vector<u32> all(n);
      for (u32 i = 0; i < n; ++i) all[i] = 1000 + i;
      pdm::write_file<u32>(ctx.disk(), "src", std::span<const u32>(all));
    }
    const u64 share = core::scatter_shares<u32>(ctx, perf, "src", "dst", 0, 7);
    EXPECT_EQ(share, perf.share(ctx.rank(), n));
    return pdm::read_file<u32>(ctx.disk(), "dst");
  });
  // Node i holds records [offset_i, offset_i + share_i) of the source.
  u64 offset = 0;
  for (u32 i = 0; i < 3; ++i) {
    ASSERT_EQ(outcome.results[i].size(), perf.share(i, n));
    for (u64 k = 0; k < outcome.results[i].size(); ++k) {
      EXPECT_EQ(outcome.results[i][k], 1000 + offset + k);
    }
    offset += perf.share(i, n);
  }
}

TEST(ScatterGather, GatherPreservesRankOrder) {
  ClusterConfig config = ClusterConfig::homogeneous(3);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> mine(5);
    for (u32 k = 0; k < 5; ++k) mine[k] = 100 * ctx.rank() + k;
    pdm::write_file<u32>(ctx.disk(), "part", std::span<const u32>(mine));
    const u64 total = core::gather_shares<u32>(ctx, "part", "whole", 0, 2);
    EXPECT_EQ(total, 15u);
    if (ctx.rank() == 0) return pdm::read_file<u32>(ctx.disk(), "whole");
    return {};
  });
  std::vector<u32> expected;
  for (u32 i = 0; i < 3; ++i) {
    for (u32 k = 0; k < 5; ++k) expected.push_back(100 * i + k);
  }
  EXPECT_EQ(outcome.results[0], expected);
}

TEST(ScatterGather, NonzeroRootWorks) {
  PerfVector perf({1, 1});
  const u64 n = 20;
  ClusterConfig config = ClusterConfig::homogeneous(2);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
    if (ctx.rank() == 1) {
      std::vector<u32> all(n, 9u);
      pdm::write_file<u32>(ctx.disk(), "src", std::span<const u32>(all));
    }
    return core::scatter_shares<u32>(ctx, perf, "src", "dst", 1, 4);
  });
  EXPECT_EQ(outcome.results[0], 10u);
  EXPECT_EQ(outcome.results[1], 10u);
}

TEST(ScatterGather, ScatterAfterASortInTheSameRun) {
  // Staging sends on its own wire tags (core/wire_tags.h), so a scatter
  // later in the same run never receives a packet of the sort's exchange
  // as a data chunk.
  PerfVector perf({1, 1});
  const u64 n = u64{1} << 14;
  Cluster cluster(ClusterConfig::homogeneous(2));
  const auto input = make_input(Dist::kUniform, n, 2024);

  auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    if (ctx.rank() == 0) {
      pdm::write_file<u32>(ctx.disk(), "all.in",
                           std::span<const u32>(input));
    }
    core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0, 256);
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 1024;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 256;
    core::ext_psrs_sort<u32>(ctx, perf, psrs);
    core::scatter_shares<u32>(ctx, perf, "all.in", "again", 0, 256);
    return pdm::read_file<u32>(ctx.disk(), "again");
  });

  std::vector<u32> rescattered = outcome.results[0];
  rescattered.insert(rescattered.end(), outcome.results[1].begin(),
                     outcome.results[1].end());
  EXPECT_EQ(rescattered, input);
}


// ---------------------------------------------------------------------
// Cross-implementation agreement: the external algorithm and the in-core
// algorithm sample the same positions of the same sorted data, so their
// per-node outputs must be byte-identical.
// ---------------------------------------------------------------------

class ExternalInCoreAgreement : public ::testing::TestWithParam<Dist> {};

TEST_P(ExternalInCoreAgreement, IdenticalPerNodeSlices) {
  const Dist dist = GetParam();
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(10000);
  WorkloadSpec spec{dist, n, 4, 23};

  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk.block_bytes = 256;

  Cluster ext_cluster(config);
  auto external = ext_cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.tape_count = 4;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<u32>(ctx, perf, psrs);
    return pdm::read_file<u32>(ctx.disk(), "sorted");
  });

  Cluster inc_cluster(config);
  auto incore = inc_cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    return core::psrs_incore_sort<u32>(ctx, perf, std::move(local));
  });

  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(external.results[i], incore.results[i]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, ExternalInCoreAgreement,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// ---------------------------------------------------------------------
// Randomized (seed, p, perf, B, m) sweep.  Each drawn configuration runs
// ext_psrs once and must (a) match the std::sort oracle on the
// concatenated output, (b) conserve the input multiset exactly, and (c)
// produce byte-identical per-node slices to the in-core PSRS on the same
// data: block size and message size move records in different chunks,
// never to a different node.
// ---------------------------------------------------------------------

TEST(PsrsProperty, RandomConfigsMatchOracleAndInCoreSlices) {
  SplitMix64 gen(0xfeed'beef'0001ULL);
  for (int trial = 0; trial < 10; ++trial) {
    const u32 p = 2 + static_cast<u32>(gen.next() % 3);
    std::vector<u32> perf_values;
    for (u32 i = 0; i < p; ++i) {
      perf_values.push_back(1 + static_cast<u32>(gen.next() % 8));
    }
    const u64 block_bytes = (gen.next() % 2) ? 128 : 256;
    const u64 message_records = 16ull << (gen.next() % 5);  // 16..256
    const Dist dist = workload::kAllBenchmarks[gen.next() % 8];
    const u64 seed = gen.next();
    SCOPED_TRACE(::testing::Message()
                 << "trial=" << trial << " p=" << p
                 << " B=" << block_bytes << " m=" << message_records
                 << " dist=" << workload::to_string(dist)
                 << " seed=" << seed);

    PerfVector perf(perf_values);
    const u64 n = perf.admissible_size(18 + gen.next() % 10);
    WorkloadSpec spec{dist, n, p, seed};

    ClusterConfig config;
    config.perf = perf_values;
    config.disk.block_bytes = block_bytes;

    struct Slice {
      std::vector<u32> input;
      std::vector<u32> output;
      std::vector<u32> incore;
    };
    Cluster cluster(config);
    auto run = cluster.run([&](NodeContext& ctx) -> Slice {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      Slice s;
      s.input = pdm::read_file<u32>(ctx.disk(), "input");
      core::ExtPsrsConfig psrs;
      psrs.sequential.memory_records = 512;
      psrs.sequential.allow_in_memory = false;
      psrs.message_records = message_records;
      core::ext_psrs_sort<u32>(ctx, perf, psrs);
      s.output = pdm::read_file<u32>(ctx.disk(), "sorted");
      s.incore = core::psrs_incore_sort<u32>(ctx, perf, s.input);
      return s;
    });

    std::vector<u32> all_in, all_out;
    for (u32 i = 0; i < p; ++i) {
      // (c) the external and in-core slices agree, node by node.
      EXPECT_EQ(run.results[i].output, run.results[i].incore) << "node " << i;
      all_in.insert(all_in.end(), run.results[i].input.begin(),
                    run.results[i].input.end());
      all_out.insert(all_out.end(), run.results[i].output.begin(),
                     run.results[i].output.end());
    }
    // (a) + (b): the concatenated output is exactly the sorted input —
    // ordered, and neither losing nor duplicating a single record.
    std::sort(all_in.begin(), all_in.end());
    EXPECT_EQ(all_out, all_in);
  }
}

TEST(WideCluster, SixteenHeterogeneousNodesEndToEnd) {
  std::vector<u32> perf_values = {4, 4, 4, 4, 2, 2, 2, 2,
                                  1, 1, 1, 1, 1, 1, 1, 1};
  PerfVector perf(perf_values);
  const u64 n = perf.round_up_admissible(32000);
  ClusterConfig config;
  config.perf = perf_values;
  config.disk.block_bytes = 256;
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kUniform, n, 16, 3};
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.tape_count = 4;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 64;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return core::verify_global_order<DefaultKey>(ctx, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace paladin
