// Property-based soak tier (ctest label `soak`, docs/ROBUSTNESS.md): a
// seeded sweep over (cluster shape, perf vector, distribution, message
// size, fault plan, drift plan) cases running the pipelined external PSRS
// (and, on ~25% of cases, the multiway backend; another ~25% force the
// multi-level splitter tree, whose fanout is 2 at every p the sweep draws;
// another ~25% run under a seeded speed-drift plan) end to end.
// Every case asserts the std::sort oracle on the concatenated output,
// exact record conservation, and the recovery-matching invariants (every
// injected transient fault paired with a retry / re-read / retransmit /
// duplicate-discard).  A slice of the cases re-runs to pin bitwise
// determinism per (seed, plan, config).
//
// The sweep is sized by PALADIN_SOAK_ITERS (default 216 cases, split
// across three shards so ctest -j overlaps them); nightly CI raises it.
// On failure the assertion message carries a one-line repro:
//   PALADIN_SOAK_REPRO case=<i> p=... perf=... dist=... k=... mrec=...
//   algo=... splitter=... cfgseed=... plan={seed=... dr=... dw=... dc=...
//   nd=... nu=... ny=...}
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/ext_multiway.h"
#include "core/ext_psrs.h"
#include "core/verify.h"
#include "fault/fault.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
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

u64 soak_case_count() {
  if (const char* env = std::getenv("PALADIN_SOAK_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<u64>(v);
  }
  return 216;
}

struct SoakCase {
  u64 index;
  std::vector<u32> perf;
  Dist dist;
  u64 k;
  u64 message_records;
  u64 config_seed;
  bool multiway = false;  ///< ~25% of cases run the multiway backend instead
  /// ~25% of cases force the multi-level splitter tree (fanout 2 at
  /// p <= 4, so even these small clusters build a real multi-level
  /// hierarchy).
  bool tree_splitters = false;
  FaultPlan plan;
  /// ~25% of cases additionally run under a seeded speed-drift plan
  /// (hetero/drift.h) — drift and faults compose.
  hetero::DriftPlan drift;
  std::string repro;
};

/// Deterministic case parameters: a pure function of the case index, so a
/// failing case replays from its index alone (and from nothing else).
SoakCase make_case(u64 index) {
  SplitMix64 gen(0x50a6'0a6bULL + index * 0x9e3779b97f4a7c15ULL);
  SoakCase c;
  c.index = index;
  const u32 p = 1 + static_cast<u32>(gen.next() % 4);
  for (u32 i = 0; i < p; ++i) {
    c.perf.push_back(1 + static_cast<u32>(gen.next() % 8));
  }
  constexpr u64 kDistCount =
      sizeof(workload::kAllBenchmarks) / sizeof(workload::kAllBenchmarks[0]);
  c.dist = workload::kAllBenchmarks[gen.next() % kDistCount];
  c.k = 18 + gen.next() % 13;
  const u64 mrec_choices[] = {16, 48, test_params::kMessageRecords};
  c.message_records = mrec_choices[gen.next() % 3];
  c.config_seed = gen.next();

  auto rate = [&gen]() {
    return 0.05 + 0.25 * static_cast<double>(gen.next() >> 11) * 0x1.0p-53;
  };
  c.plan.seed = gen.next();
  switch (gen.next() % 3) {
    case 0:  // disk-heavy
      c.plan.disk.read_fail_prob = rate();
      c.plan.disk.write_fail_prob = rate();
      c.plan.disk.corrupt_prob = rate();
      break;
    case 1:  // net-heavy
      c.plan.net.drop_prob = rate();
      c.plan.net.duplicate_prob = rate();
      c.plan.net.delay_prob = rate();
      break;
    default:  // mixed
      c.plan.disk.read_fail_prob = rate();
      c.plan.disk.corrupt_prob = rate();
      c.plan.net.drop_prob = rate();
      c.plan.net.duplicate_prob = rate();
      break;
  }
  // Drawn last so the parameters of pre-existing cases are unchanged.
  c.multiway = gen.next() % 4 == 0;
  // Drawn after the multiway flag, for the same reason.
  c.tree_splitters = gen.next() % 4 == 0;
  // Drift draws come last of all (same append-only rule): ~25% of cases
  // drift, with short epochs so several regime changes land mid-run.
  if (gen.next() % 4 == 0) {
    c.drift.seed = gen.next();
    c.drift.spec.epoch_seconds =
        0.01 + 0.04 * static_cast<double>(gen.next() % 8);
    c.drift.spec.slow_prob =
        0.2 + 0.3 * static_cast<double>(gen.next() >> 11) * 0x1.0p-53;
    c.drift.spec.slow_factor = gen.next() % 2 == 0 ? 2.0 : 4.0;
    c.drift.spec.regime_epochs = 1 + gen.next() % 8;
  }

  std::ostringstream repro;
  repro << "PALADIN_SOAK_REPRO case=" << index << " p=" << p << " perf=[";
  for (u32 i = 0; i < p; ++i) repro << (i ? "," : "") << c.perf[i];
  repro << "] dist=" << workload::to_string(c.dist) << " k=" << c.k
        << " mrec=" << c.message_records
        << " algo=" << (c.multiway ? "ext-multiway" : "ext-psrs")
        << " splitter=" << (c.tree_splitters ? "tree" : "flat")
        << " cfgseed=" << c.config_seed
        << " plan={seed=" << c.plan.seed
        << " dr=" << c.plan.disk.read_fail_prob
        << " dw=" << c.plan.disk.write_fail_prob
        << " dc=" << c.plan.disk.corrupt_prob
        << " nd=" << c.plan.net.drop_prob
        << " nu=" << c.plan.net.duplicate_prob
        << " ny=" << c.plan.net.delay_prob << "}"
        << " drift=" << (c.drift.active()
                             ? hetero::drift_plan_to_string(c.drift)
                             : std::string("none"));
  c.repro = repro.str();
  return c;
}

struct SoakResult {
  std::vector<DefaultKey> input;   ///< concatenated shares, rank order
  std::vector<DefaultKey> output;  ///< concatenated slices, rank order
  bool sorted_ok = true;
  bool permuted_ok = true;
  FaultCounters faults;
  double makespan = 0.0;
};

SoakResult run_case(const SoakCase& c) {
  PerfVector perf(c.perf);
  const u64 n = perf.admissible_size(c.k);

  ClusterConfig config;
  config.perf = c.perf;
  config.disk = test_params::tiny_blocks();
  config.seed = c.config_seed;
  config.fault_plan = c.plan;
  config.drift_plan = c.drift;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = c.dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = c.config_seed ^ 0xabcdef;

  struct NodeResult {
    std::vector<DefaultKey> input;
    std::vector<DefaultKey> output;
    bool sorted;
    bool permuted;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        core::file_checksum<DefaultKey>(ctx.disk(), "input");
    NodeResult r;
    r.input = pdm::read_file<DefaultKey>(ctx.disk(), "input");
    core::SplitterConfig splitter;
    if (c.tree_splitters) {
      splitter.strategy = core::SplitterStrategy::kTree;
    }
    if (c.multiway) {
      core::ExtMultiwayConfig mw;
      mw.sequential.memory_records = test_params::kMemoryRecords;
      mw.sequential.tape_count = test_params::kTapeCount;
      mw.sequential.allow_in_memory = false;
      mw.message_records = c.message_records;
      mw.splitter = splitter;
      core::ext_multiway_sort<DefaultKey>(ctx, perf, mw);
    } else {
      ExtPsrsConfig psrs;
      psrs.sequential.memory_records = test_params::kMemoryRecords;
      psrs.sequential.tape_count = test_params::kTapeCount;
      psrs.sequential.allow_in_memory = false;
      psrs.message_records = c.message_records;
      psrs.pipelined = true;
      psrs.splitter = splitter;
      core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    }
    r.sorted = core::verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted =
        core::verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    r.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return r;
  });

  SoakResult res;
  res.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    NodeResult& nr = outcome.results[i];
    res.input.insert(res.input.end(), nr.input.begin(), nr.input.end());
    res.output.insert(res.output.end(), nr.output.begin(), nr.output.end());
    res.sorted_ok = res.sorted_ok && nr.sorted;
    res.permuted_ok = res.permuted_ok && nr.permuted;
    res.faults += outcome.nodes[i].faults;
  }
  return res;
}

/// Runs cases [first, last) of the sweep; shared by the shards below.
void run_shard(u64 first, u64 last) {
  u64 total_injected = 0;
  for (u64 i = first; i < last; ++i) {
    const SoakCase c = make_case(i);
    SCOPED_TRACE(c.repro);
    const SoakResult res = run_case(c);

    // The oracle: the concatenated output IS the std::sort of the input.
    std::vector<DefaultKey> oracle = res.input;
    std::sort(oracle.begin(), oracle.end());
    ASSERT_EQ(res.output.size(), res.input.size());
    ASSERT_EQ(res.output, oracle);
    ASSERT_TRUE(res.sorted_ok);
    ASSERT_TRUE(res.permuted_ok);

    // Every injected transient fault matched by its recovery action.
    const FaultCounters& f = res.faults;
    EXPECT_EQ(f.disk_read_faults, f.disk_read_retries);
    EXPECT_EQ(f.disk_write_faults, f.disk_write_retries);
    EXPECT_EQ(f.disk_corruptions, f.disk_rereads);
    EXPECT_EQ(f.net_frames_dropped, f.net_retransmits);
    EXPECT_EQ(f.net_frames_duplicated, f.net_dups_discarded);
    total_injected += f.total_injected();

    // Every 10th case: the whole faulted run replays bitwise.
    if (i % 10 == 0) {
      const SoakResult again = run_case(c);
      EXPECT_EQ(again.makespan, res.makespan);
      EXPECT_EQ(again.output, res.output);
      EXPECT_EQ(again.faults.total_injected(), f.total_injected());
    }
  }
  if (last > first) {
    // Across a shard the adversary cannot have been idle.
    EXPECT_GT(total_injected, 0u);
  }
}

// Three shards over the same sweep so `ctest -j` overlaps them; the split
// is by index, so case numbering (and any repro line) is shard-agnostic.
TEST(SoakPsrs, SweepShardA) {
  const u64 n = soak_case_count();
  run_shard(0, n / 3);
}
TEST(SoakPsrs, SweepShardB) {
  const u64 n = soak_case_count();
  run_shard(n / 3, 2 * n / 3);
}
TEST(SoakPsrs, SweepShardC) {
  const u64 n = soak_case_count();
  run_shard(2 * n / 3, n);
}

}  // namespace
}  // namespace paladin::fault
