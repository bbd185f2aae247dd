// Ablation of the pivot / partitioning strategy (paper §3.1–§3.3): PSRS
// regular sampling (in-core) vs Li–Sevcik overpartitioning (the
// ext-overpartition backend) vs DeWitt probabilistic splitting (the
// ext-distribution backend), measured as sublist expansion across the
// whole benchmark input suite.  The paper's argument: overpartitioning's
// expansion stays around 1.3 even with large s ("some processors receive
// 25% of work in supplement"), while PSRS achieves a few percent.  Random
// sampling without the initial sort (DeWitt) balances as well as its
// sample is large, and nothing splits a run of equal keys.
// The splitter-strategy section compares the flat Step 2 against the
// multi-level sample tree (core/splitter_tree.h) and the exact bisection,
// at p = 16/64, and with --json-dir=D drops machine-readable rows in
// D/BENCH_splitters.json for the perf_smoke regression gate
// (tools/check_perf_regression.py --splitters).
#include <iostream>
#include <sstream>

#include "base/stats.h"
#include "bench/bench_common.h"
#include "core/exact_splitters.h"
#include "base/math_util.h"
#include "core/psrs_incore.h"
#include "core/sort_driver.h"
#include "core/splitter_tree.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

using hetero::PerfVector;
using workload::Dist;

/// Expansion of one PSRS run (weighted max partition / optimal).
double psrs_expansion(const PerfVector& perf, u64 n, Dist dist, u64 seed,
                      u64 oversample = 1) {
  net::ClusterConfig config;
  config.perf.assign(perf.values().begin(), perf.values().end());
  config.seed = seed;
  net::Cluster cluster(config);
  workload::WorkloadSpec spec{dist, n, perf.node_count(), seed};
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> u64 {
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    return core::psrs_incore_sort<u32>(ctx, perf, std::move(local), nullptr,
                                       {}, oversample)
        .size();
  });
  return metrics::sublist_expansion(std::span<const u64>(outcome.results),
                                    perf);
}

/// Expansion of one exact-splitter run (should be 1.0 by construction).
double exact_expansion(const PerfVector& perf, u64 n, Dist dist, u64 seed) {
  net::ClusterConfig config;
  config.perf.assign(perf.values().begin(), perf.values().end());
  config.seed = seed;
  net::Cluster cluster(config);
  workload::WorkloadSpec spec{dist, n, perf.node_count(), seed};
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> u64 {
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    return core::psrs_exact_incore_sort<u32>(ctx, perf, std::move(local))
        .size();
  });
  return metrics::sublist_expansion(std::span<const u64>(outcome.results),
                                    perf);
}

/// Expansion of one run of a library backend: each node writes its share
/// to its in-memory disk and sorts it with `psc`'s backend.
double backend_expansion(const PerfVector& perf, u64 n, Dist dist, u64 seed,
                         const core::ParallelSortConfig& psc) {
  net::ClusterConfig config;
  config.perf.assign(perf.values().begin(), perf.values().end());
  config.seed = seed;
  net::Cluster cluster(config);
  workload::WorkloadSpec spec{dist, n, perf.node_count(), seed};
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> u64 {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), psc.input);
    return core::parallel_external_sort<u32>(ctx, perf, psc).final_records;
  });
  return metrics::sublist_expansion(std::span<const u64>(outcome.results),
                                    perf);
}

/// Expansion of one ext-overpartition run with factor s.
double overpartition_expansion(const PerfVector& perf, u64 n, Dist dist,
                               u32 s, u64 seed) {
  core::ParallelSortConfig psc;
  psc.algorithm = core::ParallelSortAlgorithm::kExtOverpartition;
  psc.overpartition.s = s;
  return backend_expansion(perf, n, dist, seed, psc);
}

/// Expansion of one ext-distribution run: DeWitt's probabilistic
/// splitting, kDistributionOversample·p·perf[i] random samples per node
/// cut at the perf quantiles.
double dewitt_expansion(const PerfVector& perf, u64 n, Dist dist, u64 seed) {
  core::ParallelSortConfig psc;
  psc.algorithm = core::ParallelSortAlgorithm::kExtDistribution;
  return backend_expansion(perf, n, dist, seed, psc);
}

/// Which splitter-selection machinery a scaling row measures.
enum class Strat { kFlat, kTree, kExact };

const char* strat_name(Strat s) {
  switch (s) {
    case Strat::kFlat: return "flat";
    case Strat::kTree: return "tree";
    case Strat::kExact: return "exact";
  }
  PALADIN_UNREACHABLE();
}

struct StrategyResult {
  double t_select = 0;  // selection phase, max over nodes, virtual seconds
  double expansion = 0;
};

/// One in-core run at scale p measuring only what the strategies differ
/// in: the selection phase's virtual time and the balance it achieves.
StrategyResult strategy_run(const PerfVector& perf, u64 n, Dist dist,
                            u64 seed, Strat strat) {
  net::ClusterConfig config;
  config.perf.assign(perf.values().begin(), perf.values().end());
  config.seed = seed;
  net::Cluster cluster(config);
  workload::WorkloadSpec spec{dist, n, perf.node_count(), seed};
  struct NodeR {
    double t_select;
    u64 size;
  };
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeR {
    std::vector<u32> local = workload::generate_share(
        spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
        perf.share(ctx.rank(), n));
    NodeR r{};
    if (strat == Strat::kExact) {
      core::ExactPsrsReport report;
      r.size = core::psrs_exact_incore_sort<u32>(ctx, perf, std::move(local),
                                                 &report)
                   .size();
      r.t_select = report.t_select;
    } else {
      core::SplitterConfig splitter;
      splitter.strategy = strat == Strat::kTree
                              ? core::SplitterStrategy::kTree
                              : core::SplitterStrategy::kFlat;
      core::InCorePsrsReport report;
      r.size = core::psrs_incore_sort<u32>(ctx, perf, std::move(local),
                                           &report, {}, 1, splitter)
                   .size();
      r.t_select = report.t_select;
    }
    return r;
  });
  StrategyResult res;
  std::vector<u64> sizes;
  sizes.reserve(perf.node_count());
  for (const NodeR& nr : outcome.results) {
    res.t_select = std::max(res.t_select, nr.t_select);
    sizes.push_back(nr.size);
  }
  res.expansion =
      metrics::sublist_expansion(std::span<const u64>(sizes), perf);
  return res;
}

int run(const BenchOptions& opt) {
  const u64 base_n = opt.full ? 400000 : 80000;

  heading("Pivot-strategy ablation: sublist expansion per input family");
  note("PSRS = regular sampling of sorted data (the paper); over(s) = "
       "Li-Sevcik overpartitioning (ext-overpartition); split = "
       "probabilistic splitting (DeWitt, ext-distribution)");

  for (const auto& perf_values :
       {std::vector<u32>{1, 1, 1, 1}, std::vector<u32>{4, 4, 1, 1}}) {
    PerfVector perf(perf_values);
    const u64 n = perf.round_up_admissible(base_n);
    std::cout << "\n  perf = " << perf.to_string() << ", n = " << n << "\n";
    metrics::TextTable table({"input", "PSRS", "PSRS(o=8)", "over(2)",
                              "over(4)", "over(8)", "split", "exact"});
    for (Dist dist : workload::kAllBenchmarks) {
      RunningStats psrs, psrs8, o2, o4, o8, split, exact;
      for (u32 rep = 0; rep < opt.reps; ++rep) {
        const u64 seed = 900 + rep;
        psrs.add(psrs_expansion(perf, n, dist, seed));
        psrs8.add(psrs_expansion(perf, n, dist, seed, 8));
        o2.add(overpartition_expansion(perf, n, dist, 2, seed));
        o4.add(overpartition_expansion(perf, n, dist, 4, seed));
        o8.add(overpartition_expansion(perf, n, dist, 8, seed));
        split.add(dewitt_expansion(perf, n, dist, seed));
        exact.add(exact_expansion(perf, n, dist, seed));
      }
      table.add_row({workload::to_string(dist),
                     metrics::TextTable::fmt(psrs.mean(), 3),
                     metrics::TextTable::fmt(psrs8.mean(), 3),
                     metrics::TextTable::fmt(o2.mean(), 3),
                     metrics::TextTable::fmt(o4.mean(), 3),
                     metrics::TextTable::fmt(o8.mean(), 3),
                     metrics::TextTable::fmt(split.mean(), 3),
                     metrics::TextTable::fmt(exact.mean(), 3)});
    }
    table.print(std::cout);
  }
  note("paper §3.3: Li-Sevcik report expansion ~1.3 at high s; PSRS stays "
       "within a few percent on uniform data and is deterministic (bound 2) "
       "on every distribution");
  note("PSRS(o=8) densifies the sample 8x (extension); 'exact' is the "
       "multi-round bisection extension — balance 1.0 by construction");

  heading("Balance vs communication rounds (the one-step design trade)");
  {
    // Compute/disk free, Fast-Ethernet latency only: the exact splitters'
    // ~32 synchronous rounds vs PSRS's single gather/broadcast.
    PerfVector perf({1, 1, 1, 1});
    const u64 n = perf.round_up_admissible(base_n);
    metrics::TextTable t({"strategy", "simulated comms time (s)"});
    for (bool exact : {false, true}) {
      RunningStats acc;
      for (u32 rep = 0; rep < opt.reps; ++rep) {
        net::ClusterConfig config;
        config.perf = {1, 1, 1, 1};
        config.cost = net::CostModel::free_compute();
        config.seed = 60 + rep;
        net::Cluster cluster(config);
        workload::WorkloadSpec spec{Dist::kUniform, n, 4, 60 + rep};
        auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
          std::vector<u32> local = workload::generate_share(
              spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
              perf.share(ctx.rank(), n));
          if (exact) {
            core::psrs_exact_incore_sort<u32>(ctx, perf, std::move(local));
          } else {
            core::psrs_incore_sort<u32>(ctx, perf, std::move(local));
          }
          return 0;
        });
        acc.add(outcome.makespan);
      }
      t.add_row({exact ? "exact splitters (multi-round)"
                       : "PSRS regular sampling (one-step)",
                 metrics::TextTable::fmt(acc.mean(), 4)});
    }
    t.print(std::cout);
    note("the paper's one-step requirement (§3) exists precisely because "
         "multi-round exactness pays ~32 latency-bound rounds");
  }

  heading("Splitter strategies at scale: flat vs tree vs exact "
          "(selection time and balance)");
  note("perf = {4,4,1,1} repeated to p nodes; t_select is the selection "
       "phase alone on the virtual clock (deterministic, so the perf gate "
       "can diff it exactly)");
  {
    struct SplitterRow {
      std::string strategy, dist;
      u32 p;
      u64 n;
      double t_select, expansion;
    };
    std::vector<SplitterRow> rows;
    metrics::TextTable table(
        {"p", "input", "strategy", "t_select (s)", "expansion"});
    for (u32 p : {16u, 64u}) {
      std::vector<u32> perf_values;
      const u32 pattern[] = {4, 4, 1, 1};
      for (u32 i = 0; i < p; ++i) perf_values.push_back(pattern[i % 4]);
      const PerfVector perf(perf_values);
      // Regular sampling is calibrated only when the stride divides the
      // shares exactly (the paper's admissibility condition); round n up
      // to a multiple of p·Σperf·2 so both the flat (oversample 1) and
      // the tree (kTreeLeafOversample 2) paths sample without truncation.
      const u64 n =
          round_up(base_n, static_cast<u64>(p) * perf.sum() * 2);
      for (Dist dist : {Dist::kUniform, Dist::kZipf}) {
        for (Strat strat : {Strat::kFlat, Strat::kTree, Strat::kExact}) {
          RunningStats tsel, expn;
          for (u32 rep = 0; rep < opt.reps; ++rep) {
            const StrategyResult r =
                strategy_run(perf, n, dist, 900 + rep, strat);
            tsel.add(r.t_select);
            expn.add(r.expansion);
          }
          rows.push_back({strat_name(strat), workload::to_string(dist), p, n,
                          tsel.mean(), expn.mean()});
          table.add_row({std::to_string(p), workload::to_string(dist),
                         strat_name(strat),
                         metrics::TextTable::fmt(tsel.mean(), 4),
                         metrics::TextTable::fmt(expn.mean(), 3)});
        }
      }
    }
    table.print(std::cout);
    note("the tree shrinks the designated node's serial sort (its advantage "
         "grows with p; bench_scalability pushes to p = 1024); exact buys "
         "balance 1.0 for ~32 latency-bound rounds");

    std::ostringstream json;
    json << "{\n  \"bench\": \"splitters\",\n  \"reps\": " << opt.reps
         << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SplitterRow& r = rows[i];
      json << "    {\"strategy\": \"" << r.strategy << "\", \"p\": " << r.p
           << ", \"dist\": \"" << r.dist << "\", \"records\": " << r.n
           << ", \"t_select_s\": " << r.t_select
           << ", \"expansion\": " << r.expansion << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    write_json(opt, "BENCH_splitters.json", json.str());
  }
  return 0;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
