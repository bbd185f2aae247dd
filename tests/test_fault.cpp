// Tests of the deterministic fault-injection & recovery subsystem
// (src/fault, docs/ROBUSTNESS.md): injector decision determinism and
// bounds, the empty-plan no-op guarantee (bit-identical makespans,
// IoStats and exported traces), disk retry/re-read recovery with IoStats
// invariance, net retransmission / duplicate suppression / delay, and
// bitwise determinism of fully faulted end-to-end sorts.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "base/temp_dir.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "fault/fault.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/typed_io.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::fault {
namespace {

using core::ExtPsrsConfig;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

FaultPlan disk_plan(u64 seed, double fail = 0.3, double corrupt = 0.0) {
  FaultPlan plan;
  plan.seed = seed;
  plan.disk.read_fail_prob = fail;
  plan.disk.write_fail_prob = fail;
  plan.disk.corrupt_prob = corrupt;
  return plan;
}

FaultPlan net_plan(u64 seed, double drop = 0.0, double dup = 0.0,
                   double delay = 0.0) {
  FaultPlan plan;
  plan.seed = seed;
  plan.net.drop_prob = drop;
  plan.net.duplicate_prob = dup;
  plan.net.delay_prob = delay;
  return plan;
}

FaultCounters total_faults(const std::vector<net::NodeReport>& nodes) {
  FaultCounters sum;
  for (const net::NodeReport& n : nodes) sum += n.faults;
  return sum;
}

// ---------------------------------------------------------------------
// The injector itself: pure, seeded, bounded
// ---------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicPerIdentity) {
  const FaultPlan plan = disk_plan(99, 0.4, 0.4);
  FaultInjector a(plan, 2);
  FaultInjector b(plan, 2);
  for (u64 off = 0; off < 4096; off += 64) {
    EXPECT_EQ(a.read_faults(123, off), b.read_faults(123, off));
    EXPECT_EQ(a.write_faults(123, off), b.write_faults(123, off));
    EXPECT_EQ(a.corrupts(123, off / 64, 0), b.corrupts(123, off / 64, 0));
  }
  // Another rank (or another plan seed) draws an independent stream.
  FaultInjector other_rank(plan, 3);
  FaultPlan reseeded = plan;
  reseeded.seed = 100;
  FaultInjector other_seed(reseeded, 2);
  u64 rank_diffs = 0, seed_diffs = 0;
  for (u64 off = 0; off < 64 * 256; off += 64) {
    if (a.read_faults(123, off) != other_rank.read_faults(123, off)) {
      ++rank_diffs;
    }
    if (a.read_faults(123, off) != other_seed.read_faults(123, off)) {
      ++seed_diffs;
    }
  }
  EXPECT_GT(rank_diffs, 0u);
  EXPECT_GT(seed_diffs, 0u);
}

TEST(FaultInjector, ConsecutiveFaultsAreBoundedByThePlan) {
  FaultPlan plan = disk_plan(7, /*fail=*/0.95, /*corrupt=*/0.95);
  plan.disk.max_consecutive_faults = 2;
  plan.net.drop_prob = 0.95;
  plan.net.max_consecutive_drops = 4;
  FaultInjector fi(plan, 0);
  u32 max_read = 0, max_drop = 0;
  for (u64 i = 0; i < 1000; ++i) {
    max_read = std::max(max_read, fi.read_faults(1, i * 64));
    max_drop = std::max(max_drop, fi.frame_drops(1, 40, i));
    EXPECT_FALSE(fi.corrupts(1, i, plan.disk.max_consecutive_faults));
  }
  EXPECT_LE(max_read, 2u);
  EXPECT_LE(max_drop, 4u);
  // At 95% the caps are actually reached, so the bound is tight.
  EXPECT_EQ(max_read, 2u);
  EXPECT_EQ(max_drop, 4u);
}

TEST(FaultInjector, EmptyPlanIsInactive) {
  EXPECT_FALSE(FaultPlan{}.active());
  FaultPlan seeded;
  seeded.seed = 12345;  // a seed alone arms nothing
  EXPECT_FALSE(seeded.active());
  EXPECT_TRUE(disk_plan(1).active());
  EXPECT_TRUE(net_plan(1, 0.1).active());
}

// ---------------------------------------------------------------------
// Disk recovery: retry-with-backoff and fingerprint-verified re-reads
// ---------------------------------------------------------------------

TEST(FaultDisk, TransientFaultsAreRetriedDataIntactIoStatsUnchanged) {
  auto roundtrip = [](const FaultPlan& plan) {
    ClusterConfig config = ClusterConfig::homogeneous(1);
    config.disk = test_params::tiny_blocks();
    config.fault_plan = plan;
    Cluster cluster(config);
    struct Out {
      std::vector<u32> data;
      pdm::IoStats io;
      double t;
    };
    auto outcome = cluster.run([](NodeContext& ctx) -> Out {
      std::vector<u32> data(1000);
      for (u32 i = 0; i < 1000; ++i) data[i] = i * 7;
      pdm::write_file<u32>(ctx.disk(), "f", std::span<const u32>(data));
      Out out;
      out.data = pdm::read_file<u32>(ctx.disk(), "f");
      out.io = ctx.disk().stats();
      out.t = ctx.clock().now();
      return out;
    });
    return std::pair(outcome.results[0], total_faults(outcome.nodes));
  };

  const auto [clean, clean_faults] = roundtrip(FaultPlan{});
  const auto [faulted, faults] = roundtrip(disk_plan(11, 0.3));

  EXPECT_EQ(clean_faults.total_injected(), 0u);
  EXPECT_GT(faults.disk_read_faults + faults.disk_write_faults, 0u);
  // Every transient fault was matched by a retry.
  EXPECT_EQ(faults.disk_read_faults, faults.disk_read_retries);
  EXPECT_EQ(faults.disk_write_faults, faults.disk_write_retries);
  // The data survived and the logical I/O accounting did not move...
  EXPECT_EQ(faulted.data, clean.data);
  EXPECT_EQ(faulted.io.blocks_read, clean.io.blocks_read);
  EXPECT_EQ(faulted.io.blocks_written, clean.io.blocks_written);
  EXPECT_EQ(faulted.io.bytes_read, clean.io.bytes_read);
  EXPECT_EQ(faulted.io.bytes_written, clean.io.bytes_written);
  // ...but the retries cost virtual time.
  EXPECT_GT(faulted.t, clean.t);
}

TEST(FaultDisk, CorruptionIsDetectedAndRereadRestoresTheBlock) {
  ClusterConfig config = ClusterConfig::homogeneous(1);
  config.disk = test_params::tiny_blocks();
  config.fault_plan = disk_plan(3, /*fail=*/0.0, /*corrupt=*/0.4);
  Cluster cluster(config);
  auto outcome = cluster.run([](NodeContext& ctx) -> bool {
    std::vector<u32> data(4096);
    for (u32 i = 0; i < 4096; ++i) data[i] = i ^ 0xbeef;
    pdm::write_file<u32>(ctx.disk(), "f", std::span<const u32>(data));
    // Read it back several times: corruption decisions are per (block,
    // attempt), so repeated reads replay the same injected pattern.
    for (int round = 0; round < 3; ++round) {
      if (pdm::read_file<u32>(ctx.disk(), "f") != data) return false;
    }
    return true;
  });
  EXPECT_TRUE(outcome.results[0]);
  const FaultCounters f = total_faults(outcome.nodes);
  EXPECT_GT(f.disk_corruptions, 0u);
  // Every corruption was caught by the fingerprint check and re-read.
  EXPECT_EQ(f.disk_corruptions, f.disk_rereads);
}

// ---------------------------------------------------------------------
// Net recovery: retransmission, duplicate suppression, delay
// ---------------------------------------------------------------------

TEST(FaultNet, DropsAreRetransmittedStreamsStayIntactAndFifo) {
  auto exchange = [](const FaultPlan& plan) {
    ClusterConfig config = ClusterConfig::homogeneous(2);
    config.fault_plan = plan;
    Cluster cluster(config);
    struct Out {
      u64 violations;
      double t;
    };
    auto outcome = cluster.run([](NodeContext& ctx) -> Out {
      constexpr u64 kCount = 600;
      if (ctx.rank() == 0) {
        for (u64 i = 0; i < kCount; ++i) ctx.comm().send_value<u64>(1, 3, i);
        return {0, ctx.clock().now()};
      }
      u64 violations = 0;
      for (u64 i = 0; i < kCount; ++i) {
        if (ctx.comm().recv_value<u64>(0, 3) != i) ++violations;
      }
      return {violations, ctx.clock().now()};
    });
    return std::pair(outcome, total_faults(outcome.nodes));
  };

  const auto [clean, cf] = exchange(FaultPlan{});
  const auto [faulted, ff] = exchange(net_plan(21, /*drop=*/0.2));
  EXPECT_EQ(cf.total_injected(), 0u);
  EXPECT_EQ(faulted.results[1].violations, 0u);
  EXPECT_GT(ff.net_frames_dropped, 0u);
  EXPECT_EQ(ff.net_frames_dropped, ff.net_retransmits);
  // Timeout + resend charges make the faulted sender strictly later.
  EXPECT_GT(faulted.results[0].t, clean.results[0].t);
}

TEST(FaultNet, DuplicatesAreDiscardedByTheSequenceCheck) {
  ClusterConfig config = ClusterConfig::homogeneous(2);
  config.fault_plan = net_plan(5, /*drop=*/0.0, /*dup=*/0.3);
  Cluster cluster(config);
  auto outcome = cluster.run([](NodeContext& ctx) -> u64 {
    constexpr u64 kCount = 600;
    if (ctx.rank() == 0) {
      for (u64 i = 0; i < kCount; ++i) ctx.comm().send_value<u64>(1, 3, i);
      // A round-trip so rank 0 also receives on a faulted stream.
      return ctx.comm().recv_value<u64>(1, 4);
    }
    u64 violations = 0;
    for (u64 i = 0; i < kCount; ++i) {
      if (ctx.comm().recv_value<u64>(0, 3) != i) ++violations;
    }
    ctx.comm().send_value<u64>(0, 4, violations);
    return violations;
  });
  EXPECT_EQ(outcome.results[1], 0u);
  const FaultCounters f = total_faults(outcome.nodes);
  EXPECT_GT(f.net_frames_duplicated, 0u);
  // Every injected duplicate met its discarding receiver (the harvest
  // sweep catches duplicates trailing the last consumed message).
  EXPECT_EQ(f.net_frames_duplicated, f.net_dups_discarded);
}

TEST(FaultNet, DelaysPushArrivalTimes) {
  auto receiver_time = [](const FaultPlan& plan) {
    ClusterConfig config = ClusterConfig::homogeneous(2);
    config.fault_plan = plan;
    Cluster cluster(config);
    auto outcome = cluster.run([](NodeContext& ctx) -> double {
      if (ctx.rank() == 0) {
        for (u64 i = 0; i < 50; ++i) ctx.comm().send_value<u64>(1, 3, i);
        return 0.0;
      }
      for (u64 i = 0; i < 50; ++i) ctx.comm().recv_value<u64>(0, 3);
      return ctx.clock().now();
    });
    return std::pair(outcome.results[1], total_faults(outcome.nodes));
  };
  const auto [clean_t, cf] = receiver_time(FaultPlan{});
  FaultPlan plan = net_plan(9, 0.0, 0.0, /*delay=*/1.0);
  plan.net.delay_seconds = 0.25;
  const auto [late_t, ff] = receiver_time(plan);
  EXPECT_EQ(ff.net_frames_delayed, 50u);
  EXPECT_GE(late_t, clean_t + 0.25);
}

TEST(FaultNet, CreditWindowExchangeSurvivesMixedFaults) {
  // The manual credit-window protocol from the flow-control stress test,
  // under drops, duplicates and delays at once: every chunk must arrive
  // exactly once, in order, with every ack consumed.
  ClusterConfig config = ClusterConfig::homogeneous(2);
  config.fault_plan = net_plan(31, 0.1, 0.1, 0.1);
  Cluster cluster(config);
  auto outcome = cluster.run([](NodeContext& ctx) -> u64 {
    using namespace test_params;
    if (ctx.rank() == 0) {
      for (u64 k = 0; k < kFlowChunks; ++k) {
        if (k >= kFlowWindow) ctx.comm().recv_packet(1, kFlowAckTag);
        std::vector<u8> chunk(kFlowChunkBytes, static_cast<u8>(k));
        ctx.comm().send_bytes(1, kFlowDataTag, std::span<const u8>(chunk));
      }
      for (u64 k = kFlowWindow; k > 0; --k) {
        ctx.comm().recv_packet(1, kFlowAckTag);  // tail acks
      }
      return 0;
    }
    u64 violations = 0;
    for (u64 k = 0; k < kFlowChunks; ++k) {
      net::Packet p = ctx.comm().recv_packet(0, kFlowDataTag);
      if (p.payload.size() != kFlowChunkBytes ||
          p.payload[0] != static_cast<u8>(k)) {
        ++violations;
      }
      const u8 token = 0;
      ctx.comm().send_bytes(0, kFlowAckTag, std::span<const u8>(&token, 1));
    }
    return violations;
  });
  EXPECT_EQ(outcome.results[1], 0u);
  const FaultCounters f = total_faults(outcome.nodes);
  EXPECT_GT(f.total_injected(), 0u);
  EXPECT_EQ(f.net_frames_dropped, f.net_retransmits);
  EXPECT_EQ(f.net_frames_duplicated, f.net_dups_discarded);
}

// ---------------------------------------------------------------------
// End-to-end: empty plan is a no-op; faulted sorts are deterministic
// ---------------------------------------------------------------------

struct SortOutcome {
  std::vector<std::vector<DefaultKey>> outputs;
  std::vector<double> finish_times;
  std::vector<pdm::IoStats> io;
  FaultCounters faults;
  double makespan = 0.0;
  std::string trace_json;
  std::string report_json;
};

/// Sorts on in-memory disks, or on real files under `workdir` when it is
/// set.
SortOutcome run_faulted_sort(const std::vector<u32>& perf_values,
                             const FaultPlan& plan, bool pipelined = true,
                             bool observe = false,
                             const std::filesystem::path& workdir = {}) {
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(25);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 4242;
  config.observe = observe;
  config.fault_plan = plan;
  config.workdir = workdir;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 77;

  struct NodeResult {
    std::vector<DefaultKey> output;
    bool sorted;
    bool permuted;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        core::file_checksum<DefaultKey>(ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = test_params::kMessageRecords;
    psrs.pipelined = pipelined;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    NodeResult r;
    r.sorted = core::verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted =
        core::verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    r.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return r;
  });

  SortOutcome out;
  out.makespan = outcome.makespan;
  out.faults = total_faults(outcome.nodes);
  for (u32 i = 0; i < perf.node_count(); ++i) {
    EXPECT_TRUE(outcome.results[i].sorted) << "node " << i;
    EXPECT_TRUE(outcome.results[i].permuted) << "node " << i;
    out.outputs.push_back(std::move(outcome.results[i].output));
    out.finish_times.push_back(outcome.nodes[i].finish_time);
    out.io.push_back(outcome.nodes[i].io);
  }
  if (observe) {
    obs::ClusterTrace trace = core::collect_cluster_trace(outcome);
    out.trace_json = obs::chrome_trace_json(trace);
    out.report_json = obs::run_report_json(trace);
  }
  return out;
}

TEST(FaultEndToEnd, EmptyPlanIsBitwiseNoOp) {
  const std::vector<u32> perf = {4, 4, 1, 1};
  // No plan at all vs. an explicitly-set all-zero plan with a seed: the
  // hooks must never consult the injector, so everything — makespans,
  // IoStats, exported traces — is byte-identical.
  FaultPlan zero_rates;
  zero_rates.seed = 987654321;
  const SortOutcome a =
      run_faulted_sort(perf, FaultPlan{}, true, /*observe=*/true);
  const SortOutcome b =
      run_faulted_sort(perf, zero_rates, true, /*observe=*/true);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_times, b.finish_times);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.faults.total_injected(), 0u);
  EXPECT_EQ(b.faults.total_injected(), 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
}

TEST(FaultEndToEnd, FaultedPipelinedSortIsBitwiseDeterministic) {
  const std::vector<u32> perf = {4, 4, 1, 1};
  FaultPlan plan = disk_plan(17, 0.15, 0.15);
  plan.net.drop_prob = 0.1;
  plan.net.duplicate_prob = 0.1;
  plan.net.delay_prob = 0.1;
  const SortOutcome first = run_faulted_sort(perf, plan);
  EXPECT_GT(first.faults.total_injected(), 0u);
  for (int rep = 0; rep < 2; ++rep) {
    const SortOutcome again = run_faulted_sort(perf, plan);
    EXPECT_EQ(again.makespan, first.makespan) << "rep " << rep;
    EXPECT_EQ(again.finish_times, first.finish_times) << "rep " << rep;
    EXPECT_EQ(again.outputs, first.outputs) << "rep " << rep;
    EXPECT_EQ(again.faults.total_injected(), first.faults.total_injected());
  }
  // A different plan seed draws different faults (and costs).
  FaultPlan reseeded = plan;
  reseeded.seed = 18;
  const SortOutcome other = run_faulted_sort(perf, reseeded);
  EXPECT_EQ(other.outputs, first.outputs);  // output never depends on faults
  EXPECT_NE(other.makespan, first.makespan);
}

TEST(FaultEndToEnd, DiskFaultsLeaveOutputAndIoStatsUntouched) {
  const std::vector<u32> perf = {2, 1};
  const FaultPlan plan = disk_plan(23, 0.2, 0.2);
  const SortOutcome clean = run_faulted_sort(perf, FaultPlan{});
  const SortOutcome faulted = run_faulted_sort(perf, plan);
  EXPECT_GT(faulted.faults.disk_read_faults +
                faulted.faults.disk_write_faults +
                faulted.faults.disk_corruptions,
            0u);
  EXPECT_EQ(faulted.outputs, clean.outputs);
  EXPECT_EQ(faulted.io, clean.io);
  EXPECT_GT(faulted.makespan, clean.makespan);

  // Faults are drawn and charged in the Disk funnel, above the backend, so
  // the same plan on real files injects the same faults at the same
  // virtual times.
  const ScopedTempDir dir("paladin-fault");
  const SortOutcome on_files =
      run_faulted_sort(perf, plan, true, /*observe=*/false, dir.path());
  EXPECT_EQ(on_files.outputs, faulted.outputs);
  EXPECT_EQ(on_files.makespan, faulted.makespan);
  EXPECT_EQ(on_files.finish_times, faulted.finish_times);
  EXPECT_EQ(on_files.faults, faulted.faults);
  EXPECT_EQ(on_files.io, faulted.io);
}

TEST(FaultEndToEnd, PhasedModeSurvivesFaultsToo) {
  FaultPlan plan = disk_plan(29, 0.15);
  plan.net.drop_prob = 0.15;
  plan.net.duplicate_prob = 0.15;
  const SortOutcome clean =
      run_faulted_sort({3, 2, 1}, FaultPlan{}, /*pipelined=*/false);
  const SortOutcome faulted =
      run_faulted_sort({3, 2, 1}, plan, /*pipelined=*/false);
  EXPECT_GT(faulted.faults.total_injected(), 0u);
  EXPECT_EQ(faulted.outputs, clean.outputs);
  EXPECT_EQ(faulted.faults.net_frames_duplicated,
            faulted.faults.net_dups_discarded);
}

TEST(FaultEndToEnd, FaultCountersSurfaceInTheTraceRegistry) {
  FaultPlan plan = disk_plan(41, 0.25);
  const SortOutcome observed =
      run_faulted_sort({2, 1}, plan, true, /*observe=*/true);
  EXPECT_GT(observed.faults.disk_read_faults, 0u);
  // The folded counters appear by name in the RunReport JSON.
  EXPECT_NE(observed.report_json.find("fault.disk.read_faults"),
            std::string::npos);
  EXPECT_NE(observed.report_json.find("fault.disk.read_retries"),
            std::string::npos);
  // And an unfaulted observed run must not mention them at all.
  const SortOutcome clean =
      run_faulted_sort({2, 1}, FaultPlan{}, true, /*observe=*/true);
  EXPECT_EQ(clean.report_json.find("fault."), std::string::npos);
}

}  // namespace
}  // namespace paladin::fault
