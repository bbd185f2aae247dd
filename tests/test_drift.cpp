// Differential drift suite (hetero/drift.h + the adaptive repartitioning
// layer), structured as a chain of equivalences:
//
//  * an *empty* DriftPlan is provably a no-op: output bytes, virtual
//    makespan, per-node IoStats and the full observability surface (trace
//    and RunReport JSON, byte for byte) are identical to a run that never
//    mentioned drift;
//  * a *drifted* run is bitwise-deterministic per (seed, plan, config) —
//    every speed change is a pure hash of (seed, rank, epoch), so the
//    whole run replays exactly, adaptive included;
//  * adaptive on an undrifted cluster declines in the deadband and sorts
//    exactly as the static path does;
//  * under drift + adaptive, all four backends still satisfy the backend
//    oracle (collected output IS std::sort of the concatenated input,
//    which subsumes record conservation) over kAllDists × p ∈ {2,4,16};
//  * adaptive repartitioning recovers makespan: under a seeded 4× forced
//    slowdown of one node, the adaptive run's makespan is strictly below
//    the static-perf run's.
//
// The --drift spec parser is fuzzed too: every spec it accepts builds an
// oracle and round-trips through drift_plan_to_string.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/typed_io.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::core {
namespace {

using hetero::AdaptiveConfig;
using hetero::DriftOracle;
using hetero::DriftPlan;
using hetero::ForcedSlowdown;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

// ---- the DriftOracle itself (no cluster, works in any build) -----------

TEST(DriftOracle, EpochMappingAndInactiveSpec) {
  DriftPlan plan;
  plan.seed = 17;
  plan.spec.epoch_seconds = 0.5;
  EXPECT_FALSE(plan.active());  // zero probability, no forced entries

  const DriftOracle oracle(plan, /*rank=*/0);
  EXPECT_EQ(oracle.epoch_of(-1.0), 0u);
  EXPECT_EQ(oracle.epoch_of(0.0), 0u);
  EXPECT_EQ(oracle.epoch_of(0.49), 0u);
  EXPECT_EQ(oracle.epoch_of(0.5), 1u);
  EXPECT_EQ(oracle.epoch_of(1.75), 3u);
  // Inactive spec: unit factor at every instant.
  for (double t : {0.0, 0.3, 1.0, 100.0}) {
    EXPECT_EQ(oracle.factor_at(t), 1.0);
  }
}

TEST(DriftOracle, DrawsArePureHashOfSeedRankEpoch) {
  DriftPlan plan;
  plan.seed = 42;
  plan.spec.epoch_seconds = 1.0;
  plan.spec.slow_prob = 0.5;
  plan.spec.slow_factor = 3.0;
  plan.spec.regime_epochs = 2;
  ASSERT_TRUE(plan.active());

  // Same (seed, rank) → identical factor sequence from a fresh oracle.
  const DriftOracle a(plan, 1);
  const DriftOracle b(plan, 1);
  bool saw_slow = false;
  bool saw_fast = false;
  for (u64 e = 0; e < 256; ++e) {
    const double fa = a.factor_at_epoch(e);
    EXPECT_EQ(fa, b.factor_at_epoch(e));
    EXPECT_TRUE(fa == 1.0 || fa == 3.0);
    (fa > 1.0 ? saw_slow : saw_fast) = true;
    // Regime granularity: epochs in the same regime share one draw.
    EXPECT_EQ(fa, a.factor_at_epoch((e / 2) * 2));
  }
  // p = 0.5 over 128 regimes: both outcomes occur.
  EXPECT_TRUE(saw_slow);
  EXPECT_TRUE(saw_fast);

  // Ranks draw independently: rank 2's sequence differs somewhere.
  const DriftOracle c(plan, 2);
  bool differs = false;
  for (u64 e = 0; e < 256 && !differs; ++e) {
    differs = a.factor_at_epoch(e) != c.factor_at_epoch(e);
  }
  EXPECT_TRUE(differs);

  // Certain slowdown: probability 1 means every epoch is slow.
  DriftPlan certain = plan;
  certain.spec.slow_prob = 1.0;
  const DriftOracle d(certain, 0);
  for (u64 e = 0; e < 32; ++e) EXPECT_EQ(d.factor_at_epoch(e), 3.0);
}

TEST(DriftOracle, ForcedWindowsCombineByMax) {
  DriftPlan plan;
  plan.spec.epoch_seconds = 1.0;
  ForcedSlowdown f;
  f.rank = 1;
  f.from_epoch = 2;
  f.until_epoch = 5;  // exclusive
  f.factor = 4.0;
  plan.forced.push_back(f);
  ASSERT_TRUE(plan.active());

  const DriftOracle other(plan, 0);
  const DriftOracle target(plan, 1);
  EXPECT_EQ(other.factor_at_epoch(3), 1.0);   // wrong rank: untouched
  EXPECT_EQ(target.factor_at_epoch(1), 1.0);  // before the window
  EXPECT_EQ(target.factor_at_epoch(2), 4.0);  // inclusive start
  EXPECT_EQ(target.factor_at_epoch(4), 4.0);
  EXPECT_EQ(target.factor_at_epoch(5), 1.0);  // exclusive end
  EXPECT_EQ(target.factor_at(2.5), 4.0);      // time → epoch → factor

  // Overlapping windows: the worse (larger) factor wins.
  ForcedSlowdown g = f;
  g.factor = 2.0;
  g.from_epoch = 0;
  g.until_epoch = 100;
  plan.forced.push_back(g);
  const DriftOracle both(plan, 1);
  EXPECT_EQ(both.factor_at_epoch(3), 4.0);
  EXPECT_EQ(both.factor_at_epoch(7), 2.0);
}

TEST(DriftOracle, PlanSpecStringRoundTrips) {
  DriftPlan plan;
  plan.seed = 7;
  plan.spec.epoch_seconds = 0.125;
  plan.spec.slow_prob = 0.25;
  plan.spec.slow_factor = 4.0;
  plan.spec.regime_epochs = 2;
  ForcedSlowdown f;
  f.rank = 3;
  f.from_epoch = 10;
  f.factor = 4.0;  // until stays "inf" (the u64 max sentinel)
  plan.forced.push_back(f);

  const std::string spec = hetero::drift_plan_to_string(plan);
  const DriftPlan back = hetero::parse_drift_plan(spec);
  EXPECT_EQ(hetero::drift_plan_to_string(back), spec);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.spec.epoch_seconds, plan.spec.epoch_seconds);
  EXPECT_EQ(back.spec.slow_prob, plan.spec.slow_prob);
  EXPECT_EQ(back.spec.slow_factor, plan.spec.slow_factor);
  EXPECT_EQ(back.spec.regime_epochs, plan.spec.regime_epochs);
  ASSERT_EQ(back.forced.size(), 1u);
  EXPECT_EQ(back.forced[0].rank, f.rank);
  EXPECT_EQ(back.forced[0].from_epoch, f.from_epoch);
  EXPECT_EQ(back.forced[0].until_epoch, f.until_epoch);
  EXPECT_EQ(back.forced[0].factor, f.factor);

  EXPECT_THROW(hetero::parse_drift_plan("epoch=nope"), std::invalid_argument);
  EXPECT_THROW(hetero::parse_drift_plan("unknown_key=1"),
               std::invalid_argument);
  EXPECT_THROW(hetero::parse_drift_plan("force=1:2"), std::invalid_argument);
}

/// Field-by-field plan equality; doubles compare by value, so a NaN that
/// slipped through the parser fails it.
bool same_plan(const DriftPlan& a, const DriftPlan& b) {
  if (a.seed != b.seed || a.spec.epoch_seconds != b.spec.epoch_seconds ||
      a.spec.slow_prob != b.spec.slow_prob ||
      a.spec.slow_factor != b.spec.slow_factor ||
      a.spec.regime_epochs != b.spec.regime_epochs ||
      a.forced.size() != b.forced.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.forced.size(); ++i) {
    const ForcedSlowdown& x = a.forced[i];
    const ForcedSlowdown& y = b.forced[i];
    if (x.rank != y.rank || x.from_epoch != y.from_epoch ||
        x.until_epoch != y.until_epoch || x.factor != y.factor) {
      return false;
    }
  }
  return true;
}

// Seeded fuzz over the --drift grammar: specs assembled from its keys,
// separators and edge-case numbers, plus one-character mutations of valid
// specs.  Every spec is either rejected with std::invalid_argument /
// std::out_of_range, or parses to a plan a DriftOracle accepts and that
// comes back unchanged through drift_plan_to_string.
TEST(DriftOracle, SeededSpecFuzzRejectsOrRoundTrips) {
  const std::vector<std::string> keys = {"seed",   "epoch", "prob", "factor",
                                         "regime", "force", "bogus"};
  const std::vector<std::string> numbers = {
      "-1", "0",  "nan", "inf", "1e308", "", "1", "2", "0.5", "4", "7", "-0",
      "1e-320", "3e", "0x10", "4294967296", "18446744073709551615",
      "18446744073709551616"};
  const std::vector<std::string> valid = {
      "seed=7,epoch=0.5,prob=0.25,factor=4,regime=2,force=0:8:inf:4",
      "epoch=0.125,prob=1,factor=2",
      "force=3:0:12:1.5,force=1:4:4:1",
      "seed=18446744073709551615,regime=1,force=4294967295:0:inf:1e308"};
  const std::string alphabet = "0123456789.-+,=:einfa x";

  Xoshiro256 rng(20261017);
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.next_below(from.size())];
  };
  auto random_spec = [&] {
    std::string spec;
    const u64 items = rng.next_in(1, 4);
    for (u64 i = 0; i < items; ++i) {
      if (i > 0) spec += rng.next_below(8) == 0 ? ":" : ",";
      const std::string key = pick(keys);
      spec += key;
      if (rng.next_below(10) != 0) spec += "=";
      if (key == "force") {
        const u64 parts = rng.next_in(3, 5);
        for (u64 j = 0; j < parts; ++j) {
          if (j > 0) spec += ":";
          spec += pick(numbers);
        }
      } else {
        spec += pick(numbers);
      }
    }
    return spec;
  };
  auto mutated_spec = [&] {
    std::string spec = pick(valid);
    const u64 at = rng.next_below(spec.size());
    const char c = alphabet[rng.next_below(alphabet.size())];
    const u64 op = rng.next_below(3);  // insert, delete or replace
    if (op == 0) {
      spec.insert(at, 1, c);
    } else if (op == 1) {
      spec.erase(at, 1);
    } else {
      spec[at] = c;
    }
    return spec;
  };

  u64 parsed = 0;
  u64 rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::string spec = round % 2 == 0 ? random_spec() : mutated_spec();
    std::optional<DriftPlan> plan;
    try {
      plan = hetero::parse_drift_plan(spec);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
    if (!plan) {
      ++rejected;
      continue;
    }
    ++parsed;
    SCOPED_TRACE(spec);
    EXPECT_NO_THROW({ const DriftOracle oracle(*plan, /*rank=*/0); });
    const std::string text = hetero::drift_plan_to_string(*plan);
    DriftPlan back;
    ASSERT_NO_THROW(back = hetero::parse_drift_plan(text)) << text;
    EXPECT_TRUE(same_plan(*plan, back)) << text;
    EXPECT_EQ(hetero::drift_plan_to_string(back), text);
  }
  // Both outcomes must be exercised for the sweep to mean anything.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

// ---- full-cluster differential runs ------------------------------------

/// Everything two runs must agree on to count as bit-identical: the sorted
/// bytes, the virtual makespan, per-node IoStats and — when observed — the
/// exporters' exact output.
struct DriftRun {
  std::vector<DefaultKey> input;
  std::vector<DefaultKey> output;
  std::vector<u64> final_records;  ///< per node
  double makespan = 0.0;
  bool layout_ok = true;
  std::vector<pdm::IoStats> io;
  std::string trace_json;
  std::string report_json;
};

struct DriftRunOptions {
  DriftPlan plan;
  AdaptiveConfig adaptive;
  bool observe = false;
};

DriftRun run_drifted(ParallelSortAlgorithm algo,
                     const std::vector<u32>& perf_values, Dist dist, u64 seed,
                     const DriftRunOptions& opt) {
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(96);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = seed;
  config.drift_plan = opt.plan;
  config.observe = opt.observe;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = seed ^ 0xbac0;

  ParallelSortConfig psc;
  psc.algorithm = algo;
  psc.sequential.memory_records = test_params::kMemoryRecords;
  psc.sequential.tape_count = test_params::kTapeCount;
  psc.sequential.allow_in_memory = false;
  psc.message_records = test_params::kMessageRecords;
  psc.adaptive = opt.adaptive;

  struct NodeResult {
    std::vector<DefaultKey> input;
    std::vector<DefaultKey> collected;  // root only
    u64 final_records = 0;
    bool layout_ok = true;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    NodeResult r;
    r.input = pdm::read_file<DefaultKey>(ctx.disk(), "input");

    const ParallelSortReport report =
        parallel_external_sort<DefaultKey>(ctx, perf, psc);
    r.final_records = report.final_records;

    r.layout_ok =
        verify_output_order<DefaultKey>(ctx, psc.output, report) &&
        (report.layout == OutputLayout::kBucketFiles ||
         report.owned_buckets.empty());

    collect_sorted_output<DefaultKey>(ctx, psc, report, "all.out", 0);
    if (ctx.rank() == 0) {
      r.collected = pdm::read_file<DefaultKey>(ctx.disk(), "all.out");
    }
    return r;
  });

  DriftRun run;
  run.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    NodeResult& nr = outcome.results[i];
    run.input.insert(run.input.end(), nr.input.begin(), nr.input.end());
    run.final_records.push_back(nr.final_records);
    run.layout_ok = run.layout_ok && nr.layout_ok;
    run.io.push_back(outcome.nodes[i].io);
  }
  run.output = std::move(outcome.results[0].collected);
  if (opt.observe) {
    const obs::ClusterTrace trace = collect_cluster_trace(outcome);
    run.trace_json = obs::chrome_trace_json(trace);
    run.report_json = obs::run_report_json(trace);
  }
  return run;
}

void expect_bit_identical(const DriftRun& a, const DriftRun& b) {
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.io.size(), b.io.size());
  for (u64 i = 0; i < a.io.size(); ++i) {
    EXPECT_EQ(a.io[i].blocks_read, b.io[i].blocks_read);
    EXPECT_EQ(a.io[i].blocks_written, b.io[i].blocks_written);
    EXPECT_EQ(a.io[i].bytes_read, b.io[i].bytes_read);
    EXPECT_EQ(a.io[i].bytes_written, b.io[i].bytes_written);
  }
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
}

/// A lively plan for the differential matrix: short epochs so several land
/// inside a tiny test run, 2× slowdowns half the time.
DriftPlan lively_plan(u64 seed) {
  DriftPlan plan;
  plan.seed = seed;
  plan.spec.epoch_seconds = 0.05;
  plan.spec.slow_prob = 0.5;
  plan.spec.slow_factor = 2.0;
  plan.spec.regime_epochs = 4;
  return plan;
}

// An empty DriftPlan is a no-op — not approximately, provably: a config
// that sets a seed but no slowdowns takes the exact pre-drift code paths
// (the oracle is never even constructed), so every observable byte
// matches a run with a default-constructed plan.
TEST(Drift, EmptyPlanIsProvablyNoOp) {
  DriftRunOptions vanilla;
  vanilla.observe = true;

  DriftRunOptions seeded_but_inactive;
  seeded_but_inactive.observe = true;
  seeded_but_inactive.plan.seed = 5;  // zero slow_prob, no forced entries
  ASSERT_FALSE(seeded_but_inactive.plan.active());

  for (const ParallelSortAlgorithm algo : kAllAlgorithms) {
    SCOPED_TRACE(to_string(algo));
    const DriftRun a = run_drifted(algo, {4, 2, 1, 1}, Dist::kUniform,
                                   /*seed=*/11, vanilla);
    const DriftRun b = run_drifted(algo, {4, 2, 1, 1}, Dist::kUniform,
                                   /*seed=*/11, seeded_but_inactive);
    expect_bit_identical(a, b);
    // No drift → no drift.* counters in the RunReport: the schema is
    // unchanged when the feature is off.
    EXPECT_EQ(a.report_json.find("drift."), std::string::npos);
  }
}

// A drifted run is a pure function of (seed, plan, config): re-running
// replays bitwise, trace bytes included — with and without adaptive.
TEST(Drift, DriftedRunsAreBitwiseDeterministic) {
  for (const bool adaptive : {false, true}) {
    DriftRunOptions opt;
    opt.plan = lively_plan(/*seed=*/99);
    opt.adaptive.enabled = adaptive;
    opt.observe = true;
    for (const ParallelSortAlgorithm algo : kAllAlgorithms) {
      SCOPED_TRACE(std::string(to_string(algo)) +
                   (adaptive ? " adaptive" : " static"));
      const DriftRun a =
          run_drifted(algo, {2, 1}, Dist::kZipf, /*seed=*/23, opt);
      const DriftRun b =
          run_drifted(algo, {2, 1}, Dist::kZipf, /*seed=*/23, opt);
      expect_bit_identical(a, b);
      // The drift counters are present exactly when a plan is active.
      EXPECT_NE(a.report_json.find("drift.epochs"), std::string::npos);
    }
  }
}

// Adaptive on an undrifted cluster: every node's observed speed share is
// its static share, so every backend declines in the deadband and sorts
// exactly as the static path does — the same output, split the same way
// across the nodes.  Only the probe's own charges move the makespan.
TEST(Drift, AdaptiveDeclinesWithoutDrift) {
  DriftRunOptions static_run;
  static_run.observe = true;

  DriftRunOptions adaptive_run = static_run;
  adaptive_run.adaptive.enabled = true;

  for (const ParallelSortAlgorithm algo : kAllAlgorithms) {
    SCOPED_TRACE(to_string(algo));
    const DriftRun a =
        run_drifted(algo, {4, 2, 1, 1}, Dist::kGGroup, /*seed=*/41,
                    static_run);
    const DriftRun b =
        run_drifted(algo, {4, 2, 1, 1}, Dist::kGGroup, /*seed=*/41,
                    adaptive_run);
    EXPECT_NE(b.report_json.find("\"drift.adapt.applied\":0"),
              std::string::npos);
    EXPECT_EQ(b.report_json.find("\"drift.adapt.applied\":1"),
              std::string::npos);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.final_records, b.final_records);
    EXPECT_TRUE(b.layout_ok);
  }
}

// Under drift + adaptive repartitioning, every backend still meets the
// backend oracle — the collected output IS the std::sort of the
// concatenated input (subsuming record conservation) — across all
// distributions and p ∈ {2, 4, 16}.
void check_drifted_matrix(ParallelSortAlgorithm algo) {
  const std::vector<std::vector<u32>> perf_sets = {
      {2, 1},
      {4, 2, 1, 1},
      std::vector<u32>(16, 1),
  };
  u64 seed = 1009;
  for (const std::vector<u32>& perf : perf_sets) {
    for (const Dist dist : workload::kAllDists) {
      SCOPED_TRACE(std::string(to_string(algo)) + " dist=" +
                   workload::to_string(dist) + " p=" +
                   std::to_string(perf.size()));
      DriftRunOptions opt;
      opt.plan = lively_plan(seed);
      opt.adaptive.enabled = true;
      const DriftRun run = run_drifted(algo, perf, dist, seed, opt);

      std::vector<DefaultKey> oracle = run.input;
      std::sort(oracle.begin(), oracle.end());
      ASSERT_EQ(run.output.size(), run.input.size());
      ASSERT_EQ(run.output, oracle);
      ASSERT_TRUE(run.layout_ok);
      ++seed;
    }
  }
}

TEST(Drift, ExtPsrsOracleUnderDrift) {
  check_drifted_matrix(ParallelSortAlgorithm::kExtPsrs);
}

TEST(Drift, ExtDistributionOracleUnderDrift) {
  check_drifted_matrix(ParallelSortAlgorithm::kExtDistribution);
}

TEST(Drift, ExtOverpartitionOracleUnderDrift) {
  check_drifted_matrix(ParallelSortAlgorithm::kExtOverpartition);
}

TEST(Drift, ExtMultiwayOracleUnderDrift) {
  check_drifted_matrix(ParallelSortAlgorithm::kExtMultiway);
}

// ---- makespan recovery -------------------------------------------------

/// One PSRS run on p equal nodes, returning the makespan and rank 0's
/// step-1 duration (the hook for placing the forced slowdown).
struct PsrsDriftResult {
  double makespan = 0.0;
  double t_seq_sort0 = 0.0;
  bool sorted_ok = true;
};

PsrsDriftResult run_psrs_under(const DriftPlan& plan, bool adaptive,
                               u64 records) {
  const std::vector<u32> perf_values(4, 1);
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(records);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 2026;
  config.drift_plan = plan;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 0xd41f;

  auto outcome = cluster.run([&](NodeContext& ctx) {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    ExtPsrsConfig pc;
    pc.sequential.memory_records = test_params::kMemoryRecords;
    pc.sequential.tape_count = test_params::kTapeCount;
    pc.sequential.allow_in_memory = false;
    pc.message_records = test_params::kMessageRecords;
    // The weighted re-split is the adaptive path's cost lever; this test
    // is its end-to-end coverage.
    pc.adaptive.enabled = adaptive;
    const ExtPsrsReport report =
        ext_psrs_sort<DefaultKey>(ctx, perf, pc);
    struct R {
      double t_seq_sort;
      bool sorted_ok;
    };
    return R{report.t_seq_sort,
             is_sorted_file<DefaultKey>(ctx.disk(), pc.output)};
  });

  PsrsDriftResult r;
  r.makespan = outcome.makespan;
  r.t_seq_sort0 = outcome.results[0].t_seq_sort;
  for (auto& nr : outcome.results) r.sorted_ok = r.sorted_ok && nr.sorted_ok;
  return r;
}

// The recovery claim from the issue, in miniature (the bench quantifies
// it at scale): force a 4× slowdown of rank 0 just before it finishes
// step 1, so the damage lands in steps 2–5 — exactly where adaptive
// repartitioning can shift work away.  Adaptive must come in at or below
// the static-perf makespan, and both drifted runs above the baseline.
TEST(Drift, AdaptiveRecoversMakespanUnderForcedSlowdown) {
  constexpr u64 kRecords = 2048;

  const PsrsDriftResult baseline =
      run_psrs_under(DriftPlan{}, /*adaptive=*/false, kRecords);
  ASSERT_TRUE(baseline.sorted_ok);
  ASSERT_GT(baseline.t_seq_sort0, 0.0);

  DriftPlan plan;
  plan.spec.epoch_seconds = baseline.t_seq_sort0 / 256.0;
  ForcedSlowdown f;
  f.rank = 0;
  f.from_epoch = 248;  // ≈ 0.97 · t_seq_sort: step 1 nearly done
  f.factor = 4.0;      // until_epoch stays unbounded
  plan.forced.push_back(f);
  ASSERT_TRUE(plan.active());

  const PsrsDriftResult static_perf =
      run_psrs_under(plan, /*adaptive=*/false, kRecords);
  const PsrsDriftResult adaptive =
      run_psrs_under(plan, /*adaptive=*/true, kRecords);
  ASSERT_TRUE(static_perf.sorted_ok);
  ASSERT_TRUE(adaptive.sorted_ok);

  // The slowdown costs the static run real makespan...
  EXPECT_GT(static_perf.makespan, baseline.makespan);
  // ...and adaptive repartitioning claws a strict part of it back.
  EXPECT_LT(adaptive.makespan, static_perf.makespan);
  EXPECT_GT(adaptive.makespan, baseline.makespan);
}

}  // namespace
}  // namespace paladin::core
