// Multi-level splitter selection (core/splitter_tree.h):
//
//  * expansion-bound property — the perf-weighted 2× sublist bound
//    (+ duplicate slack, §3.1) holds for the tree strategy over every
//    distribution in kAllDists × p ∈ {4, 16, 64, 256}, including the
//    zipf / all-duplicates adversaries;
//  * flat≡tree equivalence — a degenerate gather (single group,
//    re-sampling disabled) selects the flat path's splitters bit-for-bit
//    under every rank rule, and the kAuto heuristic below kTreeThreshold
//    IS the flat path (so the golden traces cannot churn);
//  * bitwise determinism — external tree-strategy runs replay to
//    identical output bytes and makespans;
//  * digest identity — flat and tree full external runs produce the same
//    global sorted sequence and multiset checksum;
//  * the off == 0 regression of draw_regular_sample /
//    PerfVector::sample_stride_clamped (n < p·Σperf at huge p);
//  * weight conservation and budget bounds of the stratified digest
//    reduction itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ext_psrs.h"
#include "core/psrs_incore.h"
#include "core/sampling.h"
#include "core/splitter_tree.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
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

// ---------------------------------------------------------------------
// Config helpers.

TEST(SplitterTree, AutoHeuristicAndGeometry) {
  SplitterConfig cfg;  // defaults: auto, threshold 32
  EXPECT_FALSE(splitter_uses_tree(cfg, 1));
  EXPECT_FALSE(splitter_uses_tree(cfg, 4));
  EXPECT_FALSE(splitter_uses_tree(cfg, 31));
  EXPECT_TRUE(splitter_uses_tree(cfg, 32));
  EXPECT_TRUE(splitter_uses_tree(cfg, 1024));
  cfg.strategy = SplitterStrategy::kTree;
  EXPECT_TRUE(splitter_uses_tree(cfg, 2));
  EXPECT_FALSE(splitter_uses_tree(cfg, 1));  // nothing to gather at p = 1
  cfg.strategy = SplitterStrategy::kFlat;
  EXPECT_FALSE(splitter_uses_tree(cfg, 1024));

  // The fanout is ceil(sqrt(p)) clamped to [2, 32].
  EXPECT_EQ(splitter_fanout(2), 2u);
  EXPECT_EQ(splitter_fanout(4), 2u);
  EXPECT_EQ(splitter_fanout(8), 3u);
  EXPECT_EQ(splitter_fanout(64), 8u);
  EXPECT_EQ(splitter_fanout(100), 10u);
  EXPECT_EQ(splitter_fanout(1024), 32u);
  EXPECT_EQ(splitter_fanout(4096), 32u);  // clamp

  EXPECT_EQ(splitter_levels(1, 2), 0u);
  EXPECT_EQ(splitter_levels(4, 2), 2u);
  EXPECT_EQ(splitter_levels(1024, 32), 2u);
  EXPECT_EQ(splitter_levels(1025, 32), 3u);
}

// ---------------------------------------------------------------------
// The stratified digest reduction in isolation.

/// A digest budget no merge reaches: every merged point is kept.
constexpr u64 kUnbounded = ~u64{0};

TEST(SplitterTree, DigestConservesWeightAndRespectsBudget) {
  using WS = WeightedSample<u32>;
  // Three sorted runs with mixed weights.
  std::vector<std::vector<WS>> runs = {
      {{1, 3}, {5, 1}, {9, 4}, {13, 2}},
      {{2, 2}, {5, 5}, {20, 1}},
      {{0, 1}, {30, 7}},
  };
  u64 total = 0;
  for (const auto& r : runs)
    for (const WS& ws : r) total += ws.weight;

  for (const u64 budget : {u64{1}, u64{2}, u64{4}, u64{100}}) {
    auto copy = runs;
    CountingMeter meter;
    const std::vector<WS> digest =
        merge_weighted_runs<u32>(meter, copy, budget, /*merge_equal=*/false);
    u64 kept = 0;
    for (const WS& ws : digest) kept += ws.weight;
    EXPECT_EQ(kept, total) << "budget " << budget;
    // One trailing partial stratum may exceed the budget by one point.
    EXPECT_LE(digest.size(), budget + 1) << "budget " << budget;
    EXPECT_TRUE(std::is_sorted(
        digest.begin(), digest.end(),
        [](const WS& a, const WS& b) { return a.value < b.value; }));
    EXPECT_GT(meter.compares, 0u);
  }

  // Unlimited budget keeps every merged point verbatim.
  auto copy = runs;
  CountingMeter meter;
  const std::vector<WS> exact = merge_weighted_runs<u32>(
      meter, copy, kUnbounded, /*merge_equal=*/false);
  EXPECT_EQ(exact.size(), 9u);
  EXPECT_EQ(exact.front().value, 0u);
  EXPECT_EQ(exact.back().value, 30u);
}

TEST(SplitterTree, MergeEqualFoldsDuplicatesInUniqueValueSpace) {
  using WS = WeightedSample<u32>;
  // The same unique value carried by several runs must count once.
  std::vector<std::vector<WS>> runs = {
      {{1, 1}, {5, 1}, {9, 1}},
      {{5, 1}, {9, 1}},
      {{9, 1}, {11, 1}},
  };
  CountingMeter meter;
  const std::vector<WS> digest = merge_weighted_runs<u32>(
      meter, runs, kUnbounded, /*merge_equal=*/true);
  ASSERT_EQ(digest.size(), 4u);  // unique values 1, 5, 9, 11
  for (const WS& ws : digest) EXPECT_EQ(ws.weight, 1u);
}

TEST(SplitterTree, WeightedSelectMatchesFlatIndexing) {
  using WS = WeightedSample<u32>;
  // Unit weights: target t must pick digest[min(t-1, size-1)] — the flat
  // paths' index arithmetic.
  std::vector<WS> digest;
  for (u32 v = 0; v < 10; ++v) digest.push_back({100 + v, 1});
  const std::vector<u64> targets = {1, 1, 4, 10, 10, 25};
  const std::vector<u32> picks =
      weighted_select<u32>(std::span<const WS>(digest), targets);
  const std::vector<u32> expect = {100, 100, 103, 109, 109, 109};
  EXPECT_EQ(picks, expect);

  // Weighted: cumulative weights 3, 4, 9 — target 4 lands on the second.
  const std::vector<WS> w = {{7, 3}, {8, 1}, {9, 5}};
  const std::vector<u64> t2 = {3, 4, 5, 9};
  const std::vector<u32> p2 =
      weighted_select<u32>(std::span<const WS>(w), t2);
  const std::vector<u32> e2 = {7, 8, 9, 9};
  EXPECT_EQ(p2, e2);
}

// ---------------------------------------------------------------------
// off == 0 regression (satellite): huge p / small n degrades to the
// densest sample instead of a wrapped stride loop.

TEST(SplitterTree, DrawRegularSampleOffZeroDegradesToStrideOne) {
  const std::vector<u32> sorted = {1, 2, 3, 4, 5};
  const std::vector<u32> at_zero =
      draw_regular_sample<u32>(std::span<const u32>(sorted), 0);
  const std::vector<u32> at_one =
      draw_regular_sample<u32>(std::span<const u32>(sorted), 1);
  EXPECT_EQ(at_zero, at_one);
  const std::vector<u32> expect = {1, 2, 3, 4};  // positions 0..size-2
  EXPECT_EQ(at_zero, expect);
}

TEST(SplitterTree, SampleStrideClampedSurvivesTinyInputs) {
  const PerfVector perf({2, 1, 1, 1});  // sum 5, p 4
  // Regular stride would need n >= p·Σperf·oversample = 40.
  EXPECT_EQ(perf.sample_stride_clamped(10, 2), 1u);
  EXPECT_EQ(perf.sample_stride_clamped(80, 2), 2u);
  EXPECT_EQ(perf.sample_stride_clamped(80, 1), 4u);
}

TEST(SplitterTree, TreePathSortsInputTooSmallForFlatSampling) {
  // n = 10 < p·Σperf = 20: the flat stride underflows (sample_stride
  // rejects it), but the tree path clamps to stride 1 and still sorts.
  const std::vector<u32> perf_values = {2, 1, 1, 1};
  const PerfVector perf(perf_values);
  const u64 n = 10;
  ClusterConfig config;
  config.perf = perf_values;
  Cluster cluster(config);
  WorkloadSpec spec;
  spec.dist = Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 7;

  auto outcome = cluster.run([&](NodeContext& ctx) {
    std::vector<DefaultKey> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    SplitterConfig splitter;
    splitter.strategy = SplitterStrategy::kTree;
    return psrs_incore_sort<DefaultKey>(ctx, perf, std::move(local), nullptr,
                                        {}, 1, splitter);
  });

  std::vector<DefaultKey> all;
  for (auto& slice : outcome.results) {
    all.insert(all.end(), slice.begin(), slice.end());
  }
  EXPECT_EQ(all.size(), n);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

// ---------------------------------------------------------------------
// In-core property sweep: correctness + the 2× expansion bound.

struct InCoreRun {
  std::vector<DefaultKey> input;    ///< concatenated shares, rank order
  std::vector<DefaultKey> output;   ///< concatenated slices, rank order
  std::vector<std::vector<DefaultKey>> slices;  ///< per-node outputs
  std::vector<u64> final_sizes;
  std::vector<u64> shares;
  double makespan = 0.0;
};

InCoreRun run_incore(const std::vector<u32>& perf_values, Dist dist, u64 n,
                     const SplitterConfig& splitter, u64 seed = 42) {
  const PerfVector perf(perf_values);
  PALADIN_EXPECTS(perf.is_admissible(n));
  ClusterConfig config;
  config.perf = perf_values;
  config.seed = seed;
  Cluster cluster(config);
  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = seed ^ 0x5eed;

  struct NodeOut {
    std::vector<DefaultKey> input;
    std::vector<DefaultKey> output;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeOut {
    NodeOut out;
    out.input = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    out.output = psrs_incore_sort<DefaultKey>(ctx, perf, out.input, nullptr,
                                              {}, 1, splitter);
    return out;
  });

  InCoreRun r;
  r.makespan = outcome.makespan;
  r.shares = perf.shares(n);
  for (auto& node : outcome.results) {
    r.input.insert(r.input.end(), node.input.begin(), node.input.end());
    r.output.insert(r.output.end(), node.output.begin(), node.output.end());
    r.final_sizes.push_back(node.output.size());
    r.slices.push_back(std::move(node.output));
  }
  return r;
}

/// Highest multiplicity of any key — the `d` of the 2·l_i + d bound.
u64 max_multiplicity(std::vector<DefaultKey> keys) {
  std::sort(keys.begin(), keys.end());
  u64 best = 0, run = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    run = (i > 0 && keys[i] == keys[i - 1]) ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

std::vector<u32> repeat_perf(u32 p) {
  // Repeating {2, 1, 1, 1} — heterogeneous at every scale.
  const u32 pattern[] = {2, 1, 1, 1};
  std::vector<u32> perf;
  perf.reserve(p);
  for (u32 i = 0; i < p; ++i) perf.push_back(pattern[i % 4]);
  return perf;
}

TEST(SplitterTree, ExpansionBoundAcrossDistsAndScales) {
  for (const u32 p : {4u, 16u, 64u, 256u}) {
    const std::vector<u32> perf_values = repeat_perf(p);
    const PerfVector perf(perf_values);
    // Enough records for the densified tree sample (oversample 2) with a
    // real stride, kept small so the 11-dist sweep stays fast.
    const u64 n =
        perf.round_up_admissible(2 * p * perf.sum() * 2);
    SplitterConfig splitter;
    splitter.strategy = SplitterStrategy::kTree;
    for (const Dist dist : workload::kAllDists) {
      SCOPED_TRACE(std::string("p=") + std::to_string(p) +
                   " dist=" + workload::to_string(dist));
      const InCoreRun r = run_incore(perf_values, dist, n, splitter);

      // Oracle: the concatenation is the sorted input.
      std::vector<DefaultKey> oracle = r.input;
      std::sort(oracle.begin(), oracle.end());
      ASSERT_EQ(r.output, oracle);

      // The perf-weighted 2× bound, with the §3.1 duplicate slack.
      const u64 slack = max_multiplicity(r.input);
      EXPECT_TRUE(metrics::within_psrs_bound(
          std::span<const u64>(r.final_sizes),
          std::span<const u64>(r.shares), slack))
          << "expansion " << metrics::sublist_expansion(
                 std::span<const u64>(r.final_sizes), perf);
    }
  }
}

// ---------------------------------------------------------------------
// flat ≡ tree equivalence.

TEST(SplitterTree, DegenerateTreeReproducesFlatExactly) {
  // One group (fanout = p) and an unbounded budget: the root digest is the
  // fully merged sample multiset, so weighted selection at a rule's ranks
  // must pick exactly the splitters select_splitters' flat path picks from
  // the gathered sample — under every rank rule.  PSRS cuts the regular
  // sample; the other rules cut a random one.
  struct Rule {
    const char* name;
    bool regular;  ///< PSRS's regular draw (sorted) instead of a random one
    bool unique;   ///< cut the distinct values (merge_equal on the tree)
    std::vector<u64> (*ranks)(const PerfVector&, u64 pool);
  };
  const Rule rules[] = {
      {"psrs", true, false,
       [](const PerfVector& perf, u64) { return psrs_pivot_targets(perf); }},
      {"perf-quantiles", false, false,
       [](const PerfVector& perf, u64 pool) {
         return perf_quantile_ranks(perf, pool);
       }},
      {"even", false, false,
       [](const PerfVector& perf, u64 pool) {
         return even_ranks(2 * perf.node_count() - 1, pool);
       }},
      {"even-distinct", false, true,
       [](const PerfVector& perf, u64 pool) {
         return even_ranks(2 * perf.node_count() - 1, pool);
       }},
  };
  for (const std::vector<u32>& perf_values :
       {std::vector<u32>{1, 1}, std::vector<u32>{4, 2, 1, 1},
        std::vector<u32>{3, 1, 2, 1, 1, 2, 1, 1}}) {
    const PerfVector perf(perf_values);
    const u32 p = perf.node_count();
    const u64 n = perf.round_up_admissible(4 * p * perf.sum());
    for (const Dist dist : {Dist::kUniform, Dist::kZipf, Dist::kZero,
                            Dist::kStaggered}) {
      for (const Rule& rule : rules) {
        SCOPED_TRACE(std::string("p=") + std::to_string(p) +
                     " dist=" + workload::to_string(dist) +
                     " rule=" + rule.name);
        ClusterConfig config;
        config.perf = perf_values;
        Cluster cluster(config);
        WorkloadSpec spec;
        spec.dist = dist;
        spec.total_records = n;
        spec.node_count = p;
        spec.seed = 42 ^ 0x5eed;

        struct RootCuts {
          std::vector<DefaultKey> flat;
          std::vector<DefaultKey> tree;
        };
        auto outcome = cluster.run([&](NodeContext& ctx) -> RootCuts {
          std::vector<DefaultKey> local = workload::generate_share(
              spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
              perf.share(ctx.rank(), n));
          std::sort(local.begin(), local.end());
          std::vector<DefaultKey> sample;
          if (rule.regular) {
            sample = draw_regular_sample<DefaultKey>(
                std::span<const DefaultKey>(local), perf.sample_stride(n));
          } else {
            for (u64 i = 0; i < 2 * p * perf[ctx.rank()]; ++i) {
              sample.push_back(local[ctx.rng().next_below(local.size())]);
            }
          }
          const auto ranks = [&](u64 pool) { return rule.ranks(perf, pool); };
          RootCuts out;
          out.flat = select_splitters<DefaultKey>(
              ctx, sample, ranks, /*tree=*/false, rule.regular, rule.unique,
              perf.sum());

          // The tree path's leaf preparation, then the degenerate gather.
          std::sort(sample.begin(), sample.end());
          if (rule.unique) {
            sample.erase(std::unique(sample.begin(), sample.end()),
                         sample.end());
          }
          const std::vector<WeightedSample<DefaultKey>> digest =
              splitter_tree_gather<DefaultKey>(
                  ctx, /*root=*/0, /*fanout=*/p, kUnbounded, rule.unique,
                  detail::unit_weights<DefaultKey>(std::move(sample)));
          if (ctx.rank() == 0) {
            u64 total = 0;
            for (const auto& ws : digest) total += ws.weight;
            out.tree = weighted_select<DefaultKey>(
                std::span<const WeightedSample<DefaultKey>>(digest),
                ranks(total));
          }
          return out;
        });
        const RootCuts& root = outcome.results[0];
        EXPECT_FALSE(root.flat.empty());
        EXPECT_EQ(root.flat, root.tree);
      }
    }
  }
}

TEST(SplitterTree, AutoBelowThresholdIsFlatBitIdentical) {
  // kAuto at p = 4 must take the flat code path: identical outputs AND
  // identical virtual makespans (this is what keeps test_backends and the
  // golden traces unchurned).
  const std::vector<u32> perf_values = {4, 2, 1, 1};
  const PerfVector perf(perf_values);
  const u64 n = perf.round_up_admissible(4 * 4 * perf.sum());
  SplitterConfig flat;
  flat.strategy = SplitterStrategy::kFlat;
  const InCoreRun a = run_incore(perf_values, Dist::kGGroup, n, {});
  const InCoreRun b = run_incore(perf_values, Dist::kGGroup, n, flat);
  EXPECT_EQ(a.slices, b.slices);
  EXPECT_EQ(a.makespan, b.makespan);
}

// ---------------------------------------------------------------------
// External runs: determinism and digest identity.

struct ExternalRun {
  std::vector<DefaultKey> output;  ///< concatenated slices, rank order
  bool sorted_ok = true;
  double makespan = 0.0;
};

ExternalRun run_external(const std::vector<u32>& perf_values, Dist dist,
                         u64 k, const SplitterConfig& splitter) {
  const PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(k);
  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 99;

  struct NodeOut {
    std::vector<DefaultKey> output;
    bool sorted;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeOut {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = test_params::kMessageRecords;
    psrs.splitter = splitter;
    ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    NodeOut out;
    out.sorted = verify_global_order<DefaultKey>(ctx, "sorted");
    out.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return out;
  });

  ExternalRun r;
  r.makespan = outcome.makespan;
  for (auto& node : outcome.results) {
    r.sorted_ok = r.sorted_ok && node.sorted;
    r.output.insert(r.output.end(), node.output.begin(), node.output.end());
  }
  return r;
}

TEST(SplitterTree, ExternalTreeRunsReplayBitwise) {
  const std::vector<u32> perf_values = {3, 1, 2, 1, 1, 2, 1, 1};
  SplitterConfig splitter;
  splitter.strategy = SplitterStrategy::kTree;  // fanout 3: two levels
  const ExternalRun a = run_external(perf_values, Dist::kZipf, 20, splitter);
  const ExternalRun b = run_external(perf_values, Dist::kZipf, 20, splitter);
  EXPECT_TRUE(a.sorted_ok);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(SplitterTree, ExternalFlatAndTreeProduceIdenticalGlobalSequence) {
  // Different pivots move the slice boundaries, but the globally collected
  // sequence — and therefore its multiset digest — must be identical.
  const std::vector<u32> perf_values = {4, 4, 1, 1, 4, 4, 1, 1,
                                        4, 4, 1, 1, 4, 4, 1, 1};
  SplitterConfig flat;
  flat.strategy = SplitterStrategy::kFlat;
  SplitterConfig tree;
  tree.strategy = SplitterStrategy::kTree;
  for (const Dist dist : {Dist::kUniform, Dist::kDuplicates}) {
    SCOPED_TRACE(workload::to_string(dist));
    const ExternalRun a = run_external(perf_values, dist, 12, flat);
    const ExternalRun b = run_external(perf_values, dist, 12, tree);
    EXPECT_TRUE(a.sorted_ok);
    EXPECT_TRUE(b.sorted_ok);
    EXPECT_EQ(a.output, b.output);
    MultisetChecksum ca, cb;
    ca.add_span(std::span<const DefaultKey>(a.output));
    cb.add_span(std::span<const DefaultKey>(b.output));
    EXPECT_EQ(ca, cb);
  }
}

}  // namespace
}  // namespace paladin::core
