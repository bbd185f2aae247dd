// The backend contract, enforced uniformly across all four parallel
// external sorts through the driver seam (core/sort_driver.h):
//
//  * oracle — whatever the backend's output layout, the globally collected
//    output IS the std::sort of the concatenated input (which subsumes
//    record conservation and global order) — on the adversarial inputs
//    (all-equal, pre-sorted, reverse-sorted, zipf-skewed, duplicates-heavy)
//    and p ∈ {1, 2, 4} with unequal perf, with the default splitter
//    selection and again through the splitter tree;
//  * determinism — a bit-identical re-run: same output bytes, same virtual
//    makespan, per (seed, config);
//  * the parse/name round-trip and the driver's report slice (layout +
//    owned buckets) that collect_sorted_output consumes;
//  * the layout-aware order check, which reads the order across bucket
//    files, not only inside each;
//  * core::minimum_input, which must be the smallest input ext-overpartition
//    sorts, at every factor s.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "core/backend.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
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

// The adversarial slice of the input space the backends must all survive:
// every key equal, already sorted, reverse sorted, zipf-skewed duplicate
// mass, and parametric duplicates.
constexpr Dist kAdversarial[] = {
    Dist::kZero,       Dist::kSorted, Dist::kReverseSorted,
    Dist::kDuplicates, Dist::kZipf,
};

const std::vector<std::vector<u32>> kPerfSets = {
    {1},           // p = 1, degenerate cluster
    {2, 1},        // p = 2, 2:1 speed ratio
    {4, 2, 1, 1},  // p = 4, the paper's heterogeneous shape
};

struct BackendRun {
  std::vector<DefaultKey> input;   ///< concatenated shares, rank order
  std::vector<DefaultKey> output;  ///< globally collected sorted sequence
  double makespan = 0.0;
  bool layout_ok = true;
};

BackendRun run_backend(ParallelSortAlgorithm algo,
                       const std::vector<u32>& perf_values, Dist dist,
                       u64 seed, SplitterStrategy splitter) {
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(96);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = seed;
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
  psc.splitter.strategy = splitter;

  struct NodeResult {
    std::vector<DefaultKey> input;
    std::vector<DefaultKey> collected;  // root only
    bool layout_ok = true;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    NodeResult r;
    r.input = pdm::read_file<DefaultKey>(ctx.disk(), "input");

    const ParallelSortReport report =
        parallel_external_sort<DefaultKey>(ctx, perf, psc);

    // The report's layout slice must describe what is actually on disk.
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

  BackendRun run;
  run.makespan = outcome.makespan;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    NodeResult& nr = outcome.results[i];
    run.input.insert(run.input.end(), nr.input.begin(), nr.input.end());
    run.layout_ok = run.layout_ok && nr.layout_ok;
  }
  run.output = std::move(outcome.results[0].collected);
  return run;
}

void check_backend_matrix(ParallelSortAlgorithm algo) {
  // Auto keeps these sizes on the flat path; the tree pass sorts the same
  // inputs (same seeds) through the splitter tree wherever p > 1.
  for (const SplitterStrategy splitter :
       {SplitterStrategy::kAuto, SplitterStrategy::kTree}) {
    u64 seed = 7;
    for (const std::vector<u32>& perf : kPerfSets) {
      for (const Dist dist : kAdversarial) {
        SCOPED_TRACE(std::string(to_string(algo)) + " dist=" +
                     workload::to_string(dist) + " p=" +
                     std::to_string(perf.size()) + " splitter=" +
                     to_string(splitter));
        const BackendRun first = run_backend(algo, perf, dist, seed, splitter);

        // Oracle: the collected output IS the std::sort of the input.  This
        // subsumes record conservation (same multiset) and global order.
        std::vector<DefaultKey> oracle = first.input;
        std::sort(oracle.begin(), oracle.end());
        ASSERT_EQ(first.output.size(), first.input.size());
        ASSERT_EQ(first.output, oracle);
        ASSERT_TRUE(first.layout_ok);

        // Determinism: the whole run replays bitwise — output bytes and
        // virtual makespan — from (seed, config) alone.
        const BackendRun again = run_backend(algo, perf, dist, seed, splitter);
        ASSERT_EQ(again.output, first.output);
        ASSERT_EQ(again.makespan, first.makespan);
        ++seed;
      }
    }
  }
}

TEST(Backends, ExtPsrsOracleAndDeterminism) {
  check_backend_matrix(ParallelSortAlgorithm::kExtPsrs);
}

TEST(Backends, ExtDistributionOracleAndDeterminism) {
  check_backend_matrix(ParallelSortAlgorithm::kExtDistribution);
}

TEST(Backends, ExtOverpartitionOracleAndDeterminism) {
  check_backend_matrix(ParallelSortAlgorithm::kExtOverpartition);
}

TEST(Backends, ExtMultiwayOracleAndDeterminism) {
  check_backend_matrix(ParallelSortAlgorithm::kExtMultiway);
}

// core::minimum_input is tight for ext-overpartition at every factor s: the
// driver sorts exactly that many records, and the next admissible size
// down (Σperf fewer) holds too few samples for the p·s − 1 splitters.
TEST(MinimumInput, ExtOverpartitionIsTightAtEveryS) {
  struct Row {
    std::vector<u32> perf;
    std::vector<u64> minimum;  // at s = 1, 2, 4, 8
  };
  const Row rows[] = {
      {{4, 4, 1, 1}, {10, 10, 20, 40}},
      {{3, 2, 1}, {6, 6, 12, 24}},
      {{1, 1, 1, 1}, {4, 8, 16, 32}},
  };
  const u32 factors[] = {1, 2, 4, 8};
  for (const Row& row : rows) {
    const PerfVector perf(row.perf);
    for (std::size_t k = 0; k < std::size(factors); ++k) {
      SCOPED_TRACE(perf.to_string() + " s=" + std::to_string(factors[k]));
      ParallelSortConfig psc;
      psc.algorithm = ParallelSortAlgorithm::kExtOverpartition;
      psc.overpartition.s = factors[k];
      const u64 minimum = minimum_input(psc, perf);
      EXPECT_EQ(minimum, row.minimum[k]);

      struct R {
        bool ordered;
        u64 records;
      };
      const auto sort = [&](u64 n) {
        ClusterConfig config;
        config.perf = row.perf;
        Cluster cluster(config);
        WorkloadSpec spec{Dist::kUniform, n, perf.node_count(), 5};
        return cluster
            .run([&](NodeContext& ctx) -> R {
              workload::write_share(spec, ctx.rank(),
                                    perf.share_offset(ctx.rank(), n),
                                    perf.share(ctx.rank(), n), ctx.disk(),
                                    psc.input);
              const ParallelSortReport report =
                  parallel_external_sort<DefaultKey>(ctx, perf, psc);
              return R{verify_output_order<DefaultKey>(ctx, psc.output,
                                                       report),
                       report.final_records};
            })
            .results;
      };
      u64 total = 0;
      for (const R& r : sort(minimum)) {
        EXPECT_TRUE(r.ordered);
        total += r.records;
      }
      EXPECT_EQ(total, minimum);
      if (minimum > perf.sum()) {
        EXPECT_THROW(sort(minimum - perf.sum()), ContractViolation);
      }
    }
  }
}

// The multiway backend does not require the Equation-2 share layout: a
// lopsided hand-built split must still sort.
TEST(Backends, ExtMultiwayToleratesNonAdmissibleShares) {
  const std::vector<u32> perf_values = {3, 1};
  PerfVector perf(perf_values);
  ClusterConfig config;
  config.perf = perf_values;
  config.disk = test_params::tiny_blocks();
  config.seed = 99;
  Cluster cluster(config);

  // 101 and 56 records: not perf-proportional, not even block-aligned.
  const u64 shares[] = {101, 56};
  struct R {
    std::vector<DefaultKey> input;
    std::vector<DefaultKey> output;
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> R {
    Xoshiro256 rng(1234 + ctx.rank());
    std::vector<DefaultKey> data(shares[ctx.rank()]);
    for (auto& v : data) v = static_cast<DefaultKey>(rng.next());
    pdm::write_file<DefaultKey>(ctx.disk(), "input",
                                std::span<const DefaultKey>(data));
    ExtMultiwayConfig mc;
    mc.sequential.memory_records = test_params::kMemoryRecords;
    mc.sequential.allow_in_memory = false;
    mc.message_records = test_params::kMessageRecords;
    ext_multiway_sort<DefaultKey>(ctx, perf, mc);
    R r;
    r.input = std::move(data);
    r.output = pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
    return r;
  });

  std::vector<DefaultKey> input;
  std::vector<DefaultKey> output;
  for (auto& nr : outcome.results) {
    input.insert(input.end(), nr.input.begin(), nr.input.end());
    output.insert(output.end(), nr.output.begin(), nr.output.end());
  }
  std::sort(input.begin(), input.end());
  EXPECT_EQ(output, input);
}

// The layout-aware order check reads the order across bucket files, not
// only inside each: node 0 owns the even buckets and node 1 the odd ones,
// and every verdict must be the same on both nodes.
TEST(VerifyOutputOrder, BucketFilesMustChainInGlobalOrder) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  const auto verdicts =
      [&](const std::vector<std::vector<DefaultKey>>& buckets) {
        auto outcome = cluster.run([&](NodeContext& ctx) {
          BackendReport report;
          report.layout = OutputLayout::kBucketFiles;
          for (u64 b = ctx.rank(); b < buckets.size(); b += 2) {
            pdm::write_file<DefaultKey>(
                ctx.disk(), bucket_file_name("out", b),
                std::span<const DefaultKey>(buckets[b]));
            report.owned_buckets.push_back(b);
          }
          return verify_output_order<DefaultKey>(ctx, "out", report);
        });
        return outcome.results;
      };
  const std::vector<bool> pass = {true, true};
  const std::vector<bool> fail = {false, false};
  EXPECT_EQ(verdicts({{1, 2, 3}, {3, 5}, {}, {5, 9}}), pass);
  // Each bucket sorted, but bucket 1 starts below bucket 0's last key.
  EXPECT_EQ(verdicts({{1, 2, 3}, {2, 5}, {6}, {7}}), fail);
  // The same across an empty bucket owned by the other node.
  EXPECT_EQ(verdicts({{1, 5}, {}, {3, 8}}), fail);
  // Bucket 3 itself out of order.
  EXPECT_EQ(verdicts({{1, 2, 3}, {4, 5}, {6}, {8, 7}}), fail);
}

// Every exchange runs under the credit window.  In every backend's spill
// exchange no peer can queue more than W un-acknowledged messages plus its
// piece-length header in a node's inbox, whatever the data volume.
TEST(Backends, ExchangeInboxStaysWithinCreditWindow) {
  constexpr u32 p = 4;
  constexpr u64 n = u64{1} << 16;
  constexpr u64 kMessage = 64;
  const PerfVector perf({1, 1, 1, 1});
  ParallelSortConfig psc;
  psc.sequential.memory_records = 4096;
  psc.message_records = kMessage;
  auto inbox_peaks = [&] {
    ClusterConfig config = ClusterConfig::homogeneous(p);
    config.disk.block_bytes = 256;
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kUniform, n, p, 17};
    return cluster
        .run([&](NodeContext& ctx) -> u64 {
          workload::write_share(spec, ctx.rank(),
                                perf.share_offset(ctx.rank(), n),
                                perf.share(ctx.rank(), n), ctx.disk(),
                                "input");
          parallel_external_sort<DefaultKey>(ctx, perf, psc);
          return ctx.comm().inbox_peak_bytes();
        })
        .results;
  };

  // A header lists one length per piece: at most the p·s buckets a peer
  // can own (overpartitioning), which also covers the l/M = 4 run pieces
  // of the multiway sort.
  const u64 max_pieces = p * psc.overpartition.s;
  const u64 bound =
      (p - 1) * kDefaultFlowWindow * kMessage * sizeof(DefaultKey) +
      (p - 1) * max_pieces * sizeof(u64);
  for (const ParallelSortAlgorithm algo :
       {ParallelSortAlgorithm::kExtPsrs,
        ParallelSortAlgorithm::kExtDistribution,
        ParallelSortAlgorithm::kExtOverpartition,
        ParallelSortAlgorithm::kExtMultiway}) {
    SCOPED_TRACE(to_string(algo));
    psc.algorithm = algo;
    const std::vector<u64> peaks = inbox_peaks();
    for (u32 r = 0; r < p; ++r) {
      EXPECT_LE(peaks[r], bound) << "node " << r;
    }
  }
}

}  // namespace
}  // namespace paladin::core
