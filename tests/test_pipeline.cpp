// Tests of the fused steps 3–5 pipeline: output bit-identical to the
// phased mode on every workload distribution, the revised ≈ Q/B + l_i/B
// I/O bound, deterministic virtual makespan across repeated runs, edge
// cases (all-duplicate inputs → empty partitions, p = 1), the
// message_records block clamping, and the flow-controlled legacy exchange.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/checksum.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "core/ext_psrs.h"
#include "core/pipeline.h"
#include "core/redistribute.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::core {
namespace {

using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using test_params::tiny_blocks;
using workload::Dist;
using workload::WorkloadSpec;

struct SortRun {
  std::vector<std::vector<DefaultKey>> outputs;  ///< per-node final slice
  std::vector<ExtPsrsReport> reports;
  std::vector<bool> sorted;
  std::vector<bool> permuted;
  double makespan = 0.0;
  std::vector<double> finish_times;
  std::vector<std::shared_ptr<const obs::NodeTrace>> traces;  ///< observed only
};

SortRun run_sort(const std::vector<u32>& perf_values, Dist dist, u64 k,
                 bool pipelined,
                 u64 message_records = test_params::kMessageRecords,
                 bool observe = false) {
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(k);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = tiny_blocks();
  config.seed = 1000 + k;
  config.observe = observe;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 77;

  struct NodeResult {
    ExtPsrsReport report;
    std::vector<DefaultKey> output;
    bool sorted;
    bool permuted;
  };

  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        file_checksum<DefaultKey>(ctx.disk(), "input");

    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = message_records;
    psrs.pipelined = pipelined;
    NodeResult r;
    r.report = ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    r.sorted = verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted = verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    r.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return r;
  });

  SortRun run;
  run.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    run.outputs.push_back(std::move(outcome.results[i].output));
    run.reports.push_back(outcome.results[i].report);
    run.sorted.push_back(outcome.results[i].sorted);
    run.permuted.push_back(outcome.results[i].permuted);
    run.finish_times.push_back(outcome.nodes[i].finish_time);
    run.traces.push_back(outcome.nodes[i].trace);
  }
  return run;
}

u64 trace_counter(const obs::NodeTrace& node, std::string_view name) {
  for (const auto& [k, v] : node.counters) {
    if (k == name) return v;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Bit-identical output + I/O bound, across every input distribution
// ---------------------------------------------------------------------

class PipelineVsPhased : public ::testing::TestWithParam<Dist> {};

TEST_P(PipelineVsPhased, OutputBitIdenticalAndIoBounded) {
  const Dist dist = GetParam();
  const std::vector<u32> perf = {4, 4, 1, 1};
  const SortRun phased = run_sort(perf, dist, 25, /*pipelined=*/false);
  const SortRun piped = run_sort(perf, dist, 25, /*pipelined=*/true);

  const u64 rpb = tiny_blocks().records_per_block(sizeof(DefaultKey));
  for (u32 i = 0; i < perf.size(); ++i) {
    EXPECT_TRUE(piped.sorted[i]) << "node " << i;
    EXPECT_TRUE(piped.permuted[i]) << "node " << i;
    // Bit-identical final slice, node by node.
    EXPECT_EQ(piped.outputs[i], phased.outputs[i]) << "node " << i;
    // Fused steps 3–5 read the sorted run once and write the final slice
    // once: ≈ Q/B + l_i/B block I/Os.
    const ExtPsrsReport& r = piped.reports[i];
    const u64 bound =
        ceil_div(r.local_records, rpb) + ceil_div(r.final_records, rpb);
    EXPECT_LE(r.io_pipeline, bound + 2) << "node " << i;
    EXPECT_GT(r.io_pipeline, 0u) << "node " << i;
    // And strictly less disk traffic than the phased steps 3–5.
    const ExtPsrsReport& ph = phased.reports[i];
    EXPECT_LT(r.io_pipeline,
              ph.io_partition + ph.io_redistribute + ph.io_final_merge)
        << "node " << i;
  }
  EXPECT_GT(piped.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, PipelineVsPhased,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// kZero routes every record to partition 0 (ties go low), so partitions
// 1..p−1 are empty on every node — the zero-size-partition edge case rides
// the sweep above; this pins it explicitly.
TEST(Pipeline, AllDuplicatesMeansEmptyPartitions) {
  const SortRun piped = run_sort({1, 1, 1, 1}, Dist::kZero, 25, true);
  EXPECT_GT(piped.reports[0].final_records, 0u);
  for (u32 i = 1; i < 4; ++i) {
    EXPECT_EQ(piped.reports[i].final_records, 0u) << "node " << i;
    EXPECT_TRUE(piped.sorted[i]);
  }
}

// Both modes move the same data: per node, the observed counters for
// records entering (the node's share) and records leaving steps 3–5 (the
// final slice) must agree exactly between phased and pipelined runs.
TEST(Pipeline, CounterTotalsForRecordsMovedMatchPhased) {
  const std::vector<u32> perf = {4, 4, 1, 1};
  const SortRun phased =
      run_sort(perf, Dist::kUniform, 25, /*pipelined=*/false, 64, true);
  const SortRun piped =
      run_sort(perf, Dist::kUniform, 25, /*pipelined=*/true, 64, true);
  u64 total_in = 0, total_out = 0;
  for (u32 i = 0; i < perf.size(); ++i) {
    ASSERT_NE(phased.traces[i], nullptr);
    ASSERT_NE(piped.traces[i], nullptr);
    EXPECT_EQ(trace_counter(*piped.traces[i], "psrs.records_in"),
              trace_counter(*phased.traces[i], "psrs.records_in"))
        << "node " << i;
    EXPECT_EQ(trace_counter(*piped.traces[i], "psrs.records_out"),
              trace_counter(*phased.traces[i], "psrs.records_out"))
        << "node " << i;
    total_in += trace_counter(*piped.traces[i], "psrs.records_in");
    total_out += trace_counter(*piped.traces[i], "psrs.records_out");
  }
  // And cluster-wide, nothing is created or lost: in == out == N.
  EXPECT_EQ(total_in, total_out);
  EXPECT_EQ(total_in, PerfVector(perf).admissible_size(25));
}

// ---------------------------------------------------------------------
// Determinism: the virtual makespan is a pure function of (seed, config)
// ---------------------------------------------------------------------

TEST(Pipeline, MakespanBitwiseDeterministicAcrossRuns) {
  const std::vector<u32> perf = {8, 5, 3, 1};
  const SortRun first = run_sort(perf, Dist::kUniform, 25, true);
  for (int rep = 0; rep < 3; ++rep) {
    const SortRun again = run_sort(perf, Dist::kUniform, 25, true);
    EXPECT_EQ(again.makespan, first.makespan) << "rep " << rep;
    for (u32 i = 0; i < perf.size(); ++i) {
      EXPECT_EQ(again.finish_times[i], first.finish_times[i])
          << "rep " << rep << " node " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Degenerate clusters
// ---------------------------------------------------------------------

TEST(Pipeline, SingleNodeClusterCollapsesToSequentialSort) {
  const SortRun piped = run_sort({3}, Dist::kUniform, 25, true);
  const SortRun phased = run_sort({3}, Dist::kUniform, 25, false);
  EXPECT_EQ(piped.outputs[0], phased.outputs[0]);
  EXPECT_TRUE(piped.sorted[0]);
  EXPECT_TRUE(piped.permuted[0]);
}

TEST(Pipeline, TwoNodeClusterMatchesPhased) {
  const SortRun piped = run_sort({2, 1}, Dist::kStaggered, 25, true);
  const SortRun phased = run_sort({2, 1}, Dist::kStaggered, 25, false);
  for (u32 i = 0; i < 2; ++i) {
    EXPECT_EQ(piped.outputs[i], phased.outputs[i]) << "node " << i;
  }
}

// ---------------------------------------------------------------------
// message_records block clamping
// ---------------------------------------------------------------------

TEST(Redistribute, ClampedMessageRecordsRoundsUpToBlockMultiples) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  // 64-byte blocks, 4-byte keys → 16 records per block.
  EXPECT_EQ(clamped_message_records<DefaultKey>(disk, 1), 16u);
  EXPECT_EQ(clamped_message_records<DefaultKey>(disk, 15), 16u);
  EXPECT_EQ(clamped_message_records<DefaultKey>(disk, 16), 16u);
  EXPECT_EQ(clamped_message_records<DefaultKey>(disk, 17), 32u);
  EXPECT_EQ(clamped_message_records<DefaultKey>(disk, 100), 112u);
  EXPECT_THROW(clamped_message_records<DefaultKey>(disk, 0),
               ContractViolation);
}

TEST(Redistribute, SubBlockMessageSizeStillSortsIdentically) {
  // message_records = 3 clamps to one block (16 records); both modes must
  // accept it and agree.
  const SortRun piped = run_sort({1, 1, 1, 1}, Dist::kGaussian, 25, true, 3);
  const SortRun phased =
      run_sort({1, 1, 1, 1}, Dist::kGaussian, 25, false, 3);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(piped.outputs[i], phased.outputs[i]) << "node " << i;
    EXPECT_EQ(piped.reports[i].effective_message_records, 16u);
    EXPECT_EQ(phased.reports[i].effective_message_records, 16u);
  }
}

}  // namespace
}  // namespace paladin::core
