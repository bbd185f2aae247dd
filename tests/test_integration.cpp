// Cross-module integration tests: the full pipeline on real (POSIX)
// disks, the calibrate→sort workflow, record-type genericity, report
// consistency, scratch hygiene, algorithm agreement, and negative
// verification cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "base/checksum.h"
#include "base/math_util.h"
#include "base/temp_dir.h"
#include "core/ext_distribution.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/calibration.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "workload/generators.h"

namespace paladin {
namespace {

using core::ExtPsrsConfig;
using core::ExtPsrsReport;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------
// Full pipeline on real files
// ---------------------------------------------------------------------

TEST(Integration, FullPipelineOnPosixDisks) {
  ScopedTempDir dir("paladin-integration");
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(20000);

  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.workdir = dir.path();
  config.disk.block_bytes = 4096;
  Cluster cluster(config);

  WorkloadSpec spec{Dist::kUniform, n, 4, 99};
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        core::file_checksum<DefaultKey>(ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 2048;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return core::verify_global_order<DefaultKey>(ctx, "sorted") &&
           core::verify_global_permutation<DefaultKey>(ctx, before, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);

  // Real output files exist on disk and are readable after the run.
  for (u32 i = 0; i < 4; ++i) {
    const auto path = dir.path() / ("node" + std::to_string(i)) / "sorted";
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_EQ(std::filesystem::file_size(path) % sizeof(DefaultKey), 0u);
  }
}

TEST(Integration, ScratchFilesAreCleanedUp) {
  PerfVector perf({2, 1});
  const u64 n = perf.round_up_admissible(3000);
  ClusterConfig config;
  config.perf = {2, 1};
  config.disk.block_bytes = 256;
  WorkloadSpec spec{Dist::kUniform, n, 2, 3};
  std::vector<u64> files_created[2];
  for (const bool pipelined : {true, false}) {
    Cluster cluster(config);
    auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      ExtPsrsConfig psrs;
      psrs.sequential.memory_records = 256;
      psrs.sequential.allow_in_memory = false;
      psrs.pipelined = pipelined;
      core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
      // Only "input" and "sorted" should remain.
      u64 leftovers = 0;
      for (const char* name : {"sorted.step1", "sorted.step4.from0",
                               "sorted.step4.from1", "sorted.step1.runs"}) {
        if (ctx.disk().exists(name)) ++leftovers;
      }
      return leftovers;
    });
    for (u64 leftovers : outcome.results) EXPECT_EQ(leftovers, 0u);
    for (const auto& node : outcome.nodes) {
      files_created[pipelined].push_back(node.io.files_created);
    }
  }
  // Phased Step 3 cuts the sorted file in place: beyond what the fused
  // pipeline creates, a phased node creates only the p − 1 files its
  // peers' partitions land in.
  for (u32 i = 0; i < 2; ++i) {
    EXPECT_EQ(files_created[false][i], files_created[true][i] + 1) << i;
  }
}

// ---------------------------------------------------------------------
// Calibrate → sort end-to-end
// ---------------------------------------------------------------------

TEST(Integration, CalibrateThenSortRecoversProportionalLayout) {
  ClusterConfig machine;
  machine.perf = {6, 3, 3, 1};
  machine.disk.block_bytes = 1024;

  seq::ExternalSortConfig sort_config;
  sort_config.memory_records = 1024;
  sort_config.allow_in_memory = false;

  const auto calib = hetero::calibrate(machine, 4 * 4096, sort_config);
  EXPECT_EQ(std::vector<u32>(calib.perf.values().begin(),
                             calib.perf.values().end()),
            (std::vector<u32>{6, 3, 3, 1}));

  const u64 n = calib.perf.round_up_admissible(10000);
  Cluster cluster(machine);
  WorkloadSpec spec{Dist::kGaussian, n, 4, 8};
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    workload::write_share(spec, ctx.rank(),
                          calib.perf.share_offset(ctx.rank(), n),
                          calib.perf.share(ctx.rank(), n), ctx.disk(),
                          "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 1024;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<DefaultKey>(ctx, calib.perf, psrs);
    return core::verify_global_order<DefaultKey>(ctx, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------
// Record-type genericity of the full external algorithm
// ---------------------------------------------------------------------

TEST(Integration, ExtPsrsSortsWideRecordsWithCustomComparator) {
  struct Order {
    u64 amount_cents;
    u32 customer;
    u32 flags;
  };
  struct ByAmountDesc {  // descending by amount, ties by customer
    bool operator()(const Order& a, const Order& b) const {
      if (a.amount_cents != b.amount_cents) {
        return a.amount_cents > b.amount_cents;
      }
      return a.customer < b.customer;
    }
  };

  PerfVector perf({3, 1});
  const u64 n = perf.round_up_admissible(4000);
  ClusterConfig config;
  config.perf = {3, 1};
  config.disk.block_bytes = 256;
  Cluster cluster(config);

  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    {
      pdm::BlockFile f = ctx.disk().create("orders");
      pdm::BlockWriter<Order> w(f);
      for (u64 i = 0; i < perf.share(ctx.rank(), n); ++i) {
        w.push(Order{ctx.rng().next_below(1'000'000),
                     static_cast<u32>(ctx.rng().next_below(10'000)), 0});
      }
      w.flush();
    }
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    psrs.input = "orders";
    core::ext_psrs_sort<Order, ByAmountDesc>(ctx, perf, psrs);
    return core::verify_global_order<Order, ByAmountDesc>(ctx, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

TEST(Integration, ExtPsrsSortsU64Keys) {
  PerfVector perf({1, 1, 1});
  const u64 n = perf.round_up_admissible(6000);
  ClusterConfig config;
  config.perf = {1, 1, 1};
  config.disk.block_bytes = 512;
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    {
      pdm::BlockFile f = ctx.disk().create("input");
      pdm::BlockWriter<u64> w(f);
      for (u64 i = 0; i < perf.share(ctx.rank(), n); ++i) {
        w.push(ctx.rng().next());
      }
      w.flush();
    }
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<u64>(ctx, perf, psrs);
    return core::verify_global_order<u64>(ctx, "sorted");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------
// Per-step report consistency
// ---------------------------------------------------------------------

TEST(Integration, StepTimesAndIosAreConsistent) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(8000);
  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk.block_bytes = 256;
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kUniform, n, 4, 12};
  auto outcome = cluster.run([&](NodeContext& ctx) -> ExtPsrsReport {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 64;
    psrs.pipelined = false;  // this test pins the phased per-step breakdown
    return core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
  });

  const u64 rpb = 256 / sizeof(DefaultKey);
  u64 total_final = 0;
  for (u32 i = 0; i < 4; ++i) {
    const ExtPsrsReport& r = outcome.results[i];
    EXPECT_EQ(r.local_records, perf.share(i, n)) << i;
    total_final += r.final_records;

    // Step times are non-negative and sum to (approximately) the total.
    const double step_sum = r.t_seq_sort + r.t_sampling + r.t_partition +
                            r.t_redistribute + r.t_final_merge;
    EXPECT_GE(r.t_seq_sort, 0.0);
    EXPECT_NEAR(step_sum, r.t_total, 1e-9 + 0.01 * r.t_total);

    // Per-step I/O bounds (with one partial block per file of slack):
    // Step 3 is binary partitioning, at most ⌈log2(Q/B + 1)⌉ + 1 block
    // reads per pivot; Step 4 <= 2 l_i/B of disk traffic.
    const u64 q_blocks = ceil_div(r.local_records, rpb);
    EXPECT_LE(r.io_partition, 3 * (ilog2_ceil(q_blocks + 1) + 1)) << i;
    const u64 recv_blocks = ceil_div(r.final_records, rpb);
    EXPECT_LE(r.io_redistribute, q_blocks + recv_blocks + 2 * 4 + 2) << i;

    // Step 2 reads one block per sample at most.
    EXPECT_LE(r.io_sampling, r.samples_contributed + 1) << i;
  }
  EXPECT_EQ(total_final, n);
}

// ---------------------------------------------------------------------
// Algorithm agreement: PSRS and distribution sort produce the same split
// ---------------------------------------------------------------------

TEST(Integration, PsrsAndDistributionSortProduceIdenticalGlobalOrder) {
  PerfVector perf({2, 1, 1});
  const u64 n = perf.round_up_admissible(6000);
  ClusterConfig config;
  config.perf = {2, 1, 1};
  config.disk.block_bytes = 256;
  WorkloadSpec spec{Dist::kGGroup, n, 3, 77};

  auto run_and_collect = [&](bool use_psrs) {
    Cluster cluster(config);
    auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      if (use_psrs) {
        ExtPsrsConfig psrs;
        psrs.sequential.memory_records = 512;
        psrs.sequential.allow_in_memory = false;
        core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
      } else {
        core::ExtDistributionConfig dist;
        dist.sequential.memory_records = 512;
        dist.sequential.allow_in_memory = false;
        core::ext_distribution_sort<DefaultKey>(ctx, perf, dist);
      }
      return pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    });
    std::vector<u32> all;
    for (const auto& part : outcome.results) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  };

  const auto a = run_and_collect(true);
  const auto b = run_and_collect(false);
  // Same input ⇒ the concatenated global orders are identical sequences
  // (both are the sorted multiset), though the node boundaries differ.
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.size(), n);
}

// ---------------------------------------------------------------------
// Verification helpers: negative cases
// ---------------------------------------------------------------------

TEST(Integration, VerifyGlobalOrderCatchesLocalDisorder) {
  ClusterConfig config = ClusterConfig::homogeneous(2);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    std::vector<u32> data = ctx.rank() == 0 ? std::vector<u32>{1, 3, 2}
                                            : std::vector<u32>{10, 11};
    pdm::write_file<u32>(ctx.disk(), "out", std::span<const u32>(data));
    return core::verify_global_order<u32>(ctx, "out");
  });
  for (bool ok : outcome.results) EXPECT_FALSE(ok);
}

TEST(Integration, VerifyGlobalOrderCatchesBoundaryViolation) {
  ClusterConfig config = ClusterConfig::homogeneous(2);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    // Each file sorted, but node 1 starts below node 0's last key.
    std::vector<u32> data = ctx.rank() == 0 ? std::vector<u32>{1, 5}
                                            : std::vector<u32>{4, 9};
    pdm::write_file<u32>(ctx.disk(), "out", std::span<const u32>(data));
    return core::verify_global_order<u32>(ctx, "out");
  });
  for (bool ok : outcome.results) EXPECT_FALSE(ok);
}

TEST(Integration, VerifyGlobalOrderSkipsEmptyFiles) {
  ClusterConfig config = ClusterConfig::homogeneous(3);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    std::vector<u32> data;
    if (ctx.rank() == 0) data = {1, 2};
    if (ctx.rank() == 2) data = {3, 4};
    pdm::write_file<u32>(ctx.disk(), "out", std::span<const u32>(data));
    return core::verify_global_order<u32>(ctx, "out");
  });
  for (bool ok : outcome.results) EXPECT_TRUE(ok);
}

TEST(Integration, VerifyPermutationCatchesLostRecord) {
  ClusterConfig config = ClusterConfig::homogeneous(2);
  Cluster cluster(config);
  auto outcome = cluster.run([&](NodeContext& ctx) -> bool {
    std::vector<u32> input = {1, 2, 3};
    MultisetChecksum before;
    before.add_span(std::span<const u32>(input));
    std::vector<u32> output = {1, 2};  // record lost
    pdm::write_file<u32>(ctx.disk(), "out", std::span<const u32>(output));
    return core::verify_global_permutation<u32>(ctx, before, "out");
  });
  for (bool ok : outcome.results) EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------------
// Determinism of the full external pipeline
// ---------------------------------------------------------------------

TEST(Integration, FullPipelineDeterministicAcrossRuns) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(8000);
  auto run_once = [&] {
    ClusterConfig config;
    config.perf = {4, 4, 1, 1};
    config.disk.block_bytes = 256;
    config.seed = 5;
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kStaggered, n, 4, 5};
    auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      ExtPsrsConfig psrs;
      psrs.sequential.memory_records = 512;
      psrs.sequential.allow_in_memory = false;
      core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
      return core::file_checksum<DefaultKey>(ctx.disk(), "sorted").digest();
    });
    return std::make_pair(outcome.makespan, outcome.results);
  };
  const auto first = run_once();
  for (int i = 0; i < 3; ++i) {
    const auto again = run_once();
    EXPECT_DOUBLE_EQ(again.first, first.first);
    EXPECT_EQ(again.second, first.second);  // identical per-node outputs
  }
}


// ---------------------------------------------------------------------
// The unified parallel-sort driver
// ---------------------------------------------------------------------

TEST(SortDriver, DispatchesAllThreeAlgorithms) {
  PerfVector perf({2, 1, 1});
  const u64 n = perf.round_up_admissible(4000);
  for (auto algo : {core::ParallelSortAlgorithm::kExtPsrs,
                    core::ParallelSortAlgorithm::kExtDistribution,
                    core::ParallelSortAlgorithm::kExtOverpartition}) {
    ClusterConfig config;
    config.perf = {2, 1, 1};
    config.disk.block_bytes = 256;
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kUniform, n, 3, 19};
    auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      core::ParallelSortConfig pc;
      pc.algorithm = algo;
      pc.sequential.memory_records = 512;
      pc.sequential.tape_count = 4;
      pc.sequential.allow_in_memory = false;
      pc.message_records = 64;
      return core::parallel_external_sort<DefaultKey>(ctx, perf, pc)
          .final_records;
    });
    u64 total = 0;
    for (u64 f : outcome.results) total += f;
    EXPECT_EQ(total, n) << core::to_string(algo);
  }
}

}  // namespace
}  // namespace paladin
