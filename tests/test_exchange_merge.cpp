// Tests of ext-psrs Steps 3–5 (cut in place, piece exchange, spill merge):
// perfbench's one-call form of the three steps against the backend, bit
// for bit on every workload distribution; edge cases (all-duplicate inputs
// → empty partitions, p = 1, p = 2); deterministic virtual makespans; and
// the message_records block clamping.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/checksum.h"
#include "core/ext_psrs.h"
#include "core/psrs_incore.h"
#include "core/redistribute.h"
#include "core/sampling.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
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

ExtPsrsConfig test_config(u64 message_records) {
  ExtPsrsConfig psrs;
  psrs.sequential.memory_records = test_params::kMemoryRecords;
  psrs.sequential.tape_count = test_params::kTapeCount;
  psrs.sequential.allow_in_memory = false;
  psrs.message_records = message_records;
  return psrs;
}

/// Steps 1 and 2 of ext_psrs_sort's flat-splitter path, then Steps 3–5
/// through pipelined_exchange_merge: what perfbench's composed run does.
u64 composed_sort(NodeContext& ctx, const PerfVector& perf,
                  const ExtPsrsConfig& psrs) {
  net::Communicator& comm = ctx.comm();
  const u64 n = comm.allreduce_sum(
      ctx.disk().file_records<DefaultKey>(psrs.input));
  const std::string sorted_local = psrs.output + ".step1";
  seq::external_sort<DefaultKey>(ctx.disk(), psrs.input, sorted_local,
                                 psrs.sequential, ctx,
                                 std::less<DefaultKey>{}, ctx.obs());
  std::vector<DefaultKey> samples;
  {
    pdm::BlockFile f = ctx.disk().open(sorted_local);
    pdm::BlockReader<DefaultKey> reader(f);
    samples = draw_regular_sample<DefaultKey>(
        reader, perf.sample_stride(n, psrs.sampling_oversample));
  }
  const u32 root = psrs.designated_node;
  std::vector<DefaultKey> gathered = comm.gather_records<DefaultKey>(
      std::span<const DefaultKey>(samples), root);
  std::vector<DefaultKey> pivots;
  if (comm.rank() == root) {
    pivots = select_pivots<DefaultKey>(gathered, perf, ctx,
                                       std::less<DefaultKey>{},
                                       psrs.sampling_oversample);
  }
  pivots = comm.bcast_records<DefaultKey>(std::move(pivots), root);
  const u64 msg =
      clamped_message_records<DefaultKey>(ctx.disk(), psrs.message_records);
  const PipelineOutcome out = pipelined_exchange_merge<DefaultKey>(
      ctx, sorted_local, psrs.output, std::span<const DefaultKey>(pivots),
      msg, psrs.flow_window_chunks);
  ctx.disk().remove(sorted_local);
  return out.merged;
}

struct SortRun {
  std::vector<std::vector<DefaultKey>> outputs;  ///< per-node final slice
  std::vector<u64> final_records;
  std::vector<ExtPsrsReport> reports;  ///< empty for a composed run
  std::vector<bool> sorted;
  std::vector<bool> permuted;
  std::vector<pdm::IoStats> io;
  double makespan = 0.0;
  std::vector<double> finish_times;
  std::vector<std::shared_ptr<const obs::NodeTrace>> traces;  ///< observed only
};

SortRun run_sort(const std::vector<u32>& perf_values, Dist dist, u64 k,
                 u64 message_records = test_params::kMessageRecords,
                 bool observe = false, bool composed = false) {
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
    u64 final_records = 0;
    std::vector<DefaultKey> output;
    bool sorted;
    bool permuted;
  };

  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        file_checksum<DefaultKey>(ctx.disk(), "input");
    const ExtPsrsConfig psrs = test_config(message_records);
    NodeResult r;
    if (composed) {
      r.final_records = composed_sort(ctx, perf, psrs);
    } else {
      r.report = ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
      r.final_records = r.report.final_records;
    }
    r.sorted = verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted = verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    r.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return r;
  });

  SortRun run;
  run.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    run.outputs.push_back(std::move(outcome.results[i].output));
    run.final_records.push_back(outcome.results[i].final_records);
    if (!composed) run.reports.push_back(outcome.results[i].report);
    run.sorted.push_back(outcome.results[i].sorted);
    run.permuted.push_back(outcome.results[i].permuted);
    run.io.push_back(outcome.nodes[i].io);
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
// perfbench's one-call Steps 3–5 is the backend, bit for bit
// ---------------------------------------------------------------------

// Steps 1 and 2 plus pipelined_exchange_merge must reproduce ext_psrs_sort
// exactly: the output, every node's finish time and its IoStats, the
// removed files included.  perfbench's traced run relies on it.
class ForwarderVsExtPsrs : public ::testing::TestWithParam<Dist> {};

TEST_P(ForwarderVsExtPsrs, BitIdenticalToTheBackend) {
  const Dist dist = GetParam();
  const std::vector<u32> perf = {4, 4, 1, 1};
  const SortRun direct = run_sort(perf, dist, 25);
  const SortRun composed = run_sort(perf, dist, 25,
                                    test_params::kMessageRecords,
                                    /*observe=*/false, /*composed=*/true);
  EXPECT_EQ(composed.makespan, direct.makespan);
  for (u32 i = 0; i < perf.size(); ++i) {
    EXPECT_TRUE(composed.sorted[i]) << "node " << i;
    EXPECT_TRUE(composed.permuted[i]) << "node " << i;
    EXPECT_EQ(composed.outputs[i], direct.outputs[i]) << "node " << i;
    EXPECT_EQ(composed.final_records[i], direct.final_records[i])
        << "node " << i;
    EXPECT_EQ(composed.finish_times[i], direct.finish_times[i])
        << "node " << i;
    EXPECT_EQ(composed.io[i], direct.io[i]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, ForwarderVsExtPsrs,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// kZero routes every record to partition 0 (ties go low), so partitions
// 1..p−1 are empty on every node — the zero-size-partition edge case rides
// the sweep above; this pins it explicitly.
TEST(ExchangeMerge, AllDuplicatesMeansEmptyPartitions) {
  const SortRun run = run_sort({1, 1, 1, 1}, Dist::kZero, 25);
  EXPECT_GT(run.final_records[0], 0u);
  for (u32 i = 1; i < 4; ++i) {
    EXPECT_EQ(run.final_records[i], 0u) << "node " << i;
    EXPECT_TRUE(run.sorted[i]);
  }
}

// The observed counters for records entering (the node's share) and
// leaving Steps 3–5 (the final slice) match the report, and cluster-wide
// nothing is created or lost: in == out == N.
TEST(ExchangeMerge, CounterTotalsForRecordsMovedConserveTheInput) {
  const std::vector<u32> perf = {4, 4, 1, 1};
  const SortRun run = run_sort(perf, Dist::kUniform, 25, 64, true);
  u64 total_in = 0, total_out = 0;
  for (u32 i = 0; i < perf.size(); ++i) {
    ASSERT_NE(run.traces[i], nullptr);
    EXPECT_EQ(trace_counter(*run.traces[i], "psrs.records_in"),
              run.reports[i].local_records)
        << "node " << i;
    EXPECT_EQ(trace_counter(*run.traces[i], "psrs.records_out"),
              run.reports[i].final_records)
        << "node " << i;
    total_in += trace_counter(*run.traces[i], "psrs.records_in");
    total_out += trace_counter(*run.traces[i], "psrs.records_out");
  }
  EXPECT_EQ(total_in, total_out);
  EXPECT_EQ(total_in, PerfVector(perf).admissible_size(25));
}

// ---------------------------------------------------------------------
// Determinism: the virtual makespan is a pure function of (seed, config)
// ---------------------------------------------------------------------

TEST(ExchangeMerge, MakespanBitwiseDeterministicAcrossRuns) {
  const std::vector<u32> perf = {8, 5, 3, 1};
  const SortRun first = run_sort(perf, Dist::kUniform, 25);
  for (int rep = 0; rep < 3; ++rep) {
    const SortRun again = run_sort(perf, Dist::kUniform, 25);
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

TEST(ExchangeMerge, SingleNodeClusterCollapsesToSequentialSort) {
  const SortRun run = run_sort({3}, Dist::kUniform, 25);
  EXPECT_TRUE(run.sorted[0]);
  EXPECT_TRUE(run.permuted[0]);
  const ExtPsrsReport& r = run.reports[0];
  EXPECT_EQ(r.t_total, r.t_seq_sort);
  EXPECT_EQ(r.io_partition + r.io_redistribute + r.io_final_merge, 0u);
  EXPECT_EQ(r.messages_sent, 0u);
}

TEST(ExchangeMerge, TwoNodeClusterMatchesInCorePsrs) {
  const std::vector<u32> perf_values = {2, 1};
  const SortRun run = run_sort(perf_values, Dist::kStaggered, 25);
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(25);
  const WorkloadSpec spec{Dist::kStaggered, n, 2, 77};
  ClusterConfig config;
  config.perf = perf_values;
  Cluster cluster(config);
  auto incore = cluster.run([&](NodeContext& ctx) -> std::vector<DefaultKey> {
    return psrs_incore_sort<DefaultKey>(
        ctx, perf,
        workload::generate_share(spec, ctx.rank(),
                                 perf.share_offset(ctx.rank(), n),
                                 perf.share(ctx.rank(), n)));
  });
  for (u32 i = 0; i < 2; ++i) {
    EXPECT_EQ(run.outputs[i], incore.results[i]) << "node " << i;
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

TEST(Redistribute, SubBlockMessageSizeRunsAsOneBlock) {
  // message_records = 3 clamps to one block (16 records): the run is the
  // 16-record run, bit for bit.
  const SortRun sub = run_sort({1, 1, 1, 1}, Dist::kGaussian, 25, 3);
  const SortRun block = run_sort({1, 1, 1, 1}, Dist::kGaussian, 25, 16);
  EXPECT_EQ(sub.makespan, block.makespan);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(sub.outputs[i], block.outputs[i]) << "node " << i;
    EXPECT_EQ(sub.io[i], block.io[i]) << "node " << i;
    EXPECT_EQ(sub.reports[i].effective_message_records, 16u);
    EXPECT_EQ(block.reports[i].effective_message_records, 16u);
  }
}

}  // namespace
}  // namespace paladin::core
