// In-core heterogeneous PSRS (§3 of the paper; refs [16,17,29]) — the
// foundation the external algorithm generalises.  Same four canonical
// phases over in-memory data: local sort, regular sampling + perf-weighted
// pivots, partition, one-step exchange, final p-way merge.  Useful on its
// own when shares fit in RAM, and as the cheap vehicle for pivot-strategy
// ablations.
#pragma once

#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/partition_file.h"
#include "core/sampling.h"
#include "core/splitter_tree.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "seq/counting.h"
#include "seq/cursors.h"
#include "seq/loser_tree.h"

namespace paladin::core {

struct InCorePsrsReport {
  u64 local_records = 0;
  u64 final_records = 0;
  double t_total = 0.0;
  /// Phase 2 alone (sampling + splitter selection), virtual seconds — the
  /// column the splitter-strategy ablations compare.
  double t_select = 0.0;
};

/// SPMD body: sorts the union of all nodes' `local` vectors; returns this
/// node's globally contiguous slice.  `report`, when non-null, receives
/// sizes and timing.  `splitter` picks the phase-2 strategy (flat
/// designated-node sort vs the core/splitter_tree.h multi-level tree).
template <Record T, typename Less = std::less<T>>
std::vector<T> psrs_incore_sort(net::NodeContext& ctx,
                                const hetero::PerfVector& perf,
                                std::vector<T> local,
                                InCorePsrsReport* report = nullptr,
                                Less less = {}, u64 oversample = 1,
                                const SplitterConfig& splitter = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  const double t0 = ctx.clock().now();

  const u64 n = comm.allreduce_sum(local.size());
  PALADIN_EXPECTS(perf.is_admissible(n));
  PALADIN_EXPECTS(local.size() == perf.share(rank, n));

  // Phase 1: local sort.
  seq::metered_sort(std::span<T>(local), ctx, less);

  // Phase 2: regular sampling; designated node selects pivots.
  const double t_sample0 = ctx.clock().now();
  const bool use_tree = splitter_uses_tree(splitter, p);
  const PsrsSampling density = psrs_sampling(perf, n, oversample, use_tree);
  const std::vector<T> pivots = select_splitters<T>(
      ctx, draw_regular_sample<T>(std::span<const T>(local), density.stride),
      [&](u64) { return psrs_pivot_targets(perf, density.oversample); },
      use_tree, /*sorted=*/true, /*unique=*/false, perf.sum(), less);
  const double t_sample1 = ctx.clock().now();

  // Phase 3: partition the sorted share at the pivots.
  const std::vector<u64> cuts = partition_cuts<T, Less>(
      std::span<const T>(local), std::span<const T>(pivots), ctx, less);

  // Phase 4: one-step exchange — partition j of every node goes to node j.
  std::vector<std::vector<T>> outgoing(p);
  for (u32 j = 0; j < p; ++j) {
    outgoing[j].assign(local.begin() + static_cast<i64>(cuts[j]),
                       local.begin() + static_cast<i64>(cuts[j + 1]));
  }
  std::vector<std::vector<T>> incoming =
      comm.template alltoall_records<T>(std::move(outgoing));

  // Final merge of the p sorted runs.
  std::vector<seq::MemCursor<T>> cursors;
  cursors.reserve(p);
  for (const auto& run : incoming) {
    cursors.emplace_back(std::span<const T>(run));
  }
  std::vector<seq::MemCursor<T>*> sources;
  for (auto& c : cursors) sources.push_back(&c);
  seq::LoserTree<T, seq::MemCursor<T>, Less> tree(std::move(sources), less,
                                                  &ctx);
  std::vector<T> merged;
  u64 total = 0;
  for (const auto& run : incoming) total += run.size();
  merged.reserve(total);
  while (const T* top = tree.peek()) {
    merged.push_back(*top);
    tree.pop_discard();
  }
  ctx.on_moves(merged.size());

  if (report != nullptr) {
    report->local_records = perf.share(rank, n);
    report->final_records = merged.size();
    report->t_total = ctx.clock().now() - t0;
    report->t_select = t_sample1 - t_sample0;
  }
  return merged;
}

}  // namespace paladin::core
