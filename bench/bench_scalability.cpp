// Speedup and mismatch study around the paper's §5 gains: the paper
// reports a gain of 3 on 4 homogeneous nodes, and on the heterogeneous
// cluster a gain of 1.37 against the *fastest* node's sequential time and
// 6.13 against the slowest.  This bench sweeps the cluster size for the
// homogeneous case, reproduces the heterogeneous gain arithmetic, and adds
// the mismatch ablation from DESIGN.md: what happens when the perf vector
// handed to the algorithm disagrees with the machine.
// The splitter-selection sections extend the sweep past the paper's p = 4:
// at p = 64/256/1024 the flat Step 2 (gather ≈ p·Σperf samples, serial sort
// at the designated node) is measured head-to-head against the multi-level
// sample tree of core/splitter_tree.h, with the perf-weighted 2× expansion
// bound asserted for every cell and end-to-end output identity checked at
// p = 64.
#include <iostream>

#include "base/stats.h"
#include "bench/bench_common.h"
#include "core/ext_psrs.h"
#include "core/partition_file.h"
#include "core/sampling.h"
#include "core/splitter_tree.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"
#include "seq/external_sort.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

using hetero::PerfVector;

struct Measured {
  double parallel = 0;   // ext-PSRS makespan
  double seq_fast = 0;   // sequential sort of n on the fastest node class
  double seq_slow = 0;   // ... on the slowest
};

Measured measure(const BenchOptions& opt, const std::vector<u32>& machine,
                 const std::vector<u32>& algo, u64 n, u64 memory) {
  PerfVector algo_perf(algo);
  Measured out;
  RunningStats par;
  for (u32 rep = 0; rep < opt.reps; ++rep) {
    net::ClusterConfig config = paper_cluster(opt);
    config.perf = machine;
    config.seed = 40 + rep;
    net::Cluster cluster(config);
    workload::WorkloadSpec spec;
    spec.dist = workload::Dist::kUniform;
    spec.total_records = n;
    spec.node_count = static_cast<u32>(machine.size());
    spec.seed = config.seed;
    auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
      workload::write_share(spec, ctx.rank(),
                            algo_perf.share_offset(ctx.rank(), n),
                            algo_perf.share(ctx.rank(), n), ctx.disk(),
                            "input");
      core::ExtPsrsConfig psrs;
      psrs.sequential.memory_records = memory;
      psrs.sequential.tape_count = 15;
      psrs.sequential.allow_in_memory = false;
      ctx.clock().reset();
      core::ext_psrs_sort<DefaultKey>(ctx, algo_perf, psrs);
      return 0;
    });
    par.add(outcome.makespan);
  }
  out.parallel = par.mean();

  // Sequential reference: the whole dataset on one node of each speed.
  u32 fastest = 0, slowest = 0;
  for (u32 v : machine) {
    fastest = std::max(fastest, v);
    slowest = slowest == 0 ? v : std::min(slowest, v);
  }
  for (u32 speed : {fastest, slowest}) {
    net::ClusterConfig config = paper_cluster(opt);
    config.perf = {speed};
    net::Cluster cluster(config);
    workload::WorkloadSpec spec;
    spec.dist = workload::Dist::kUniform;
    spec.total_records = n;
    spec.node_count = 1;
    spec.seed = 77;
    auto outcome = cluster.run([&](net::NodeContext& ctx) -> double {
      workload::write_share(spec, 0, 0, n, ctx.disk(), "input");
      seq::ExternalSortConfig sc;
      sc.memory_records = memory;
      sc.tape_count = 15;
      sc.allow_in_memory = false;
      ctx.clock().reset();
      seq::external_sort<DefaultKey>(ctx.disk(), "input", "out", sc, ctx);
      return ctx.clock().now();
    });
    (speed == fastest ? out.seq_fast : out.seq_slow) = outcome.results[0];
  }
  return out;
}

/// The paper's testbed pattern {4,4,1,1} repeated out to p nodes.
std::vector<u32> testbed_perf(u32 p) {
  const u32 pattern[] = {4, 4, 1, 1};
  std::vector<u32> perf;
  perf.reserve(p);
  for (u32 i = 0; i < p; ++i) perf.push_back(pattern[i % 4]);
  return perf;
}

struct SelectMeasured {
  double t_select = 0;           // max over nodes, virtual seconds
  std::vector<u64> final_sizes;  // implied by the selected pivots
  double expansion = 0;
  bool within_bound = true;
};

/// Step-2-focused measurement: local sort (untimed), then the sampling +
/// pivot-selection phase on the virtual clock, then the partition sizes the
/// pivots imply (no exchange/merge — the balance is fully determined here).
SelectMeasured measure_select(const BenchOptions& opt, const PerfVector& perf,
                              u64 n, core::SplitterStrategy strategy,
                              u32 reps) {
  core::SplitterConfig splitter;
  splitter.strategy = strategy;
  const u32 p = perf.node_count();
  SelectMeasured out;
  RunningStats tsel;
  for (u32 rep = 0; rep < reps; ++rep) {
    net::ClusterConfig config = paper_cluster(opt);
    config.perf.assign(perf.values().begin(), perf.values().end());
    config.seed = 500 + rep;
    net::Cluster cluster(config);
    workload::WorkloadSpec spec;
    spec.dist = workload::Dist::kUniform;
    spec.total_records = n;
    spec.node_count = p;
    spec.seed = config.seed;
    struct NodeSel {
      double t_select;
      std::vector<u64> sizes;
    };
    auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeSel {
      std::vector<u32> local = workload::generate_share(
          spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
          perf.share(ctx.rank(), n));
      seq::metered_sort(std::span<u32>(local), ctx);
      ctx.comm().barrier();  // align every node's phase-2 clock
      const double t0 = ctx.clock().now();
      const bool tree = core::splitter_uses_tree(splitter, p);
      const core::PsrsSampling density = core::psrs_sampling(perf, n, 1, tree);
      const std::vector<u32> pivots = core::select_splitters<u32>(
          ctx,
          core::draw_regular_sample<u32>(std::span<const u32>(local),
                                         density.stride),
          [&](u64) {
            return core::psrs_pivot_targets(perf, density.oversample);
          },
          tree, /*sorted=*/true, /*unique=*/false, perf.sum());
      NodeSel r;
      r.t_select = ctx.clock().now() - t0;
      const std::vector<u64> cuts = core::partition_cuts<u32>(
          std::span<const u32>(local), std::span<const u32>(pivots), ctx);
      r.sizes.resize(p);
      for (u32 j = 0; j < p; ++j) r.sizes[j] = cuts[j + 1] - cuts[j];
      return r;
    });
    double worst = 0;
    std::vector<u64> sizes(p, 0);
    for (u32 i = 0; i < p; ++i) {
      worst = std::max(worst, outcome.results[i].t_select);
      for (u32 j = 0; j < p; ++j) sizes[j] += outcome.results[i].sizes[j];
    }
    tsel.add(worst);
    out.final_sizes = std::move(sizes);
  }
  out.t_select = tsel.mean();
  out.expansion = metrics::sublist_expansion(
      std::span<const u64>(out.final_sizes), perf);
  const std::vector<u64> shares = perf.shares(n);
  out.within_bound = metrics::within_psrs_bound(
      std::span<const u64>(out.final_sizes), std::span<const u64>(shares));
  return out;
}

int run(const BenchOptions& opt) {
  const u64 memory = scaled_memory(opt);
  const u64 base_n = scaled_pow2(opt, 24);

  heading("Homogeneous speedup vs cluster size (paper: gain 3 at p=4)");
  metrics::TextTable stable({"p", "n", "parallel (s)", "sequential (s)",
                             "speedup", "efficiency"});
  for (u32 p : {2u, 4u, 8u, 16u}) {
    std::vector<u32> machine(p, 1);
    PerfVector perf(machine);
    const u64 n = perf.round_up_admissible(base_n);
    const Measured m = measure(opt, machine, machine, n, memory);
    const double speedup = m.seq_fast / m.parallel;
    stable.add_row({std::to_string(p), std::to_string(n),
                    fmt_seconds(m.parallel), fmt_seconds(m.seq_fast),
                    metrics::TextTable::fmt(speedup, 2),
                    metrics::TextTable::fmt(speedup / p, 2)});
  }
  stable.print(std::cout);

  heading("Heterogeneous gains on the paper's testbed {4,4,1,1}");
  {
    PerfVector perf({4, 4, 1, 1});
    const u64 n = perf.round_up_admissible(base_n);
    const Measured m = measure(opt, {4, 4, 1, 1}, {4, 4, 1, 1}, n, memory);
    metrics::TextTable t({"metric", "measured", "paper"});
    t.add_row({"gain vs fastest node's sequential",
               metrics::TextTable::fmt(m.seq_fast / m.parallel, 2), "1.37"});
    t.add_row({"gain vs slowest node's sequential",
               metrics::TextTable::fmt(m.seq_slow / m.parallel, 2), "6.13"});
    t.print(std::cout);
  }

  heading("Perf-vector mismatch ablation (DESIGN.md)");
  note("machine is always {4,4,1,1}; the algorithm is handed different "
       "perf vectors");
  {
    metrics::TextTable t({"algorithm's perf", "exe time (s)",
                          "vs correct vector"});
    double correct = 0;
    for (const auto& algo :
         {std::vector<u32>{4, 4, 1, 1}, std::vector<u32>{1, 1, 1, 1},
          std::vector<u32>{2, 2, 1, 1}, std::vector<u32>{8, 8, 1, 1},
          std::vector<u32>{1, 1, 4, 4}}) {
      PerfVector algo_perf(algo);
      const u64 n = algo_perf.round_up_admissible(base_n);
      const Measured m = measure(opt, {4, 4, 1, 1}, algo, n, memory);
      if (correct == 0) correct = m.parallel;
      t.add_row({algo_perf.to_string(), fmt_seconds(m.parallel),
                 metrics::TextTable::fmt(m.parallel / correct, 2) + "x"});
    }
    t.print(std::cout);
    note("over-estimating the skew ({8,8,1,1}) or reversing it ({1,1,4,4}) "
         "overloads some node; the calibrated vector wins");
  }

  heading("Splitter selection beyond the paper: flat vs tree Step 2 at "
          "p = 64/256/1024");
  note("perf = {4,4,1,1} repeated; flat gathers ~p*sum(perf) samples at the "
       "designated node and sorts them serially, the tree reduces bounded "
       "digests through sqrt(p)-sized groups (core/splitter_tree.h)");
  {
    metrics::TextTable t({"p", "n", "flat select (s)", "tree select (s)",
                          "speedup", "tree expansion"});
    bool bounds_ok = true;
    double ratio_p1024 = 0;
    for (u32 p : {64u, 256u, 1024u}) {
      const PerfVector perf(testbed_perf(p));
      // Big enough that both paths draw a real (stride >= 2) sample.
      const u64 n = perf.round_up_admissible(4 * p * perf.sum());
      // The p = 1024 cells spin up 1024 node threads per rep; cap the reps
      // so the sweep stays tractable at the default 5.
      const u32 reps = p >= 1024 ? std::min(opt.reps, 2u) : opt.reps;
      const SelectMeasured flat =
          measure_select(opt, perf, n, core::SplitterStrategy::kFlat, reps);
      const SelectMeasured tree =
          measure_select(opt, perf, n, core::SplitterStrategy::kTree, reps);
      const double ratio = flat.t_select / tree.t_select;
      if (p == 1024) ratio_p1024 = ratio;
      // The 2x perf-share bound must hold for every cell, both strategies.
      bounds_ok = bounds_ok && flat.within_bound && tree.within_bound;
      if (!flat.within_bound || !tree.within_bound) {
        std::cerr << "FAIL: expansion bound violated at p=" << p
                  << " (flat=" << flat.expansion
                  << ", tree=" << tree.expansion << ")\n";
      }
      t.add_row({std::to_string(p), std::to_string(n),
                 metrics::TextTable::fmt(flat.t_select, 3),
                 metrics::TextTable::fmt(tree.t_select, 3),
                 metrics::TextTable::fmt(ratio, 1) + "x",
                 metrics::TextTable::fmt(tree.expansion, 3)});
    }
    t.print(std::cout);
    note("flat Step-2 cost grows with p^2 (sample volume) plus the serial "
         "sort; the tree's per-level merges run concurrently and no node "
         "holds more than O(p polylog p) samples");
    if (!bounds_ok) return 1;
    if (ratio_p1024 < 4.0) {
      std::cerr << "FAIL: tree speedup at p=1024 is "
                << metrics::TextTable::fmt(ratio_p1024, 2)
                << "x, expected >= 4x\n";
      return 1;
    }
  }

  heading("p = 64 end-to-end: flat and tree external runs, output identity");
  {
    const u32 p = 64;
    const PerfVector perf(testbed_perf(p));
    const u64 n = perf.round_up_admissible(scaled_pow2(opt, 18));
    std::vector<std::vector<DefaultKey>> outputs;
    metrics::TextTable t({"strategy", "makespan (s)"});
    for (const core::SplitterStrategy strategy :
         {core::SplitterStrategy::kFlat, core::SplitterStrategy::kTree}) {
      net::ClusterConfig config = paper_cluster(opt);
      config.perf.assign(perf.values().begin(), perf.values().end());
      config.seed = 77;
      net::Cluster cluster(config);
      workload::WorkloadSpec spec;
      spec.dist = workload::Dist::kUniform;
      spec.total_records = n;
      spec.node_count = p;
      spec.seed = 77;
      auto outcome =
          cluster.run([&](net::NodeContext& ctx) -> std::vector<DefaultKey> {
            workload::write_share(spec, ctx.rank(),
                                  perf.share_offset(ctx.rank(), n),
                                  perf.share(ctx.rank(), n), ctx.disk(),
                                  "input");
            core::ExtPsrsConfig psrs;
            psrs.sequential.memory_records = 4096;
            psrs.sequential.tape_count = 15;
            psrs.sequential.allow_in_memory = false;
            psrs.splitter.strategy = strategy;
            ctx.clock().reset();
            core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
            return pdm::read_file<DefaultKey>(ctx.disk(), "sorted");
          });
      std::vector<DefaultKey> all;
      for (auto& slice : outcome.results) {
        all.insert(all.end(), slice.begin(), slice.end());
      }
      outputs.push_back(std::move(all));
      t.add_row({core::to_string(strategy), fmt_seconds(outcome.makespan)});
    }
    t.print(std::cout);
    if (outputs[0] != outputs[1]) {
      std::cerr << "FAIL: flat and tree external runs disagree on the "
                   "global sorted sequence\n";
      return 1;
    }
    note("both strategies produce the identical global sorted sequence "
         "(different pivots move slice boundaries, never records)");
  }
  return 0;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
