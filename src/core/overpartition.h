// Sorting by overpartitioning (Li & Sevcik 1994; heterogeneous variant per
// the paper's ref [31]) — the comparator the paper argues against in §3.3.
//
// Instead of sampling *sorted* data, the input is cut by p·s−1 pivots
// drawn from a random sample into p·s sublists — s times more than
// processors — which are then assigned to processors by a greedy
// longest-processing-time schedule weighted by perf.  The extra
// partitioning slack is what limits its balance: Li & Sevcik themselves
// report sublist expansion ≈ 1.3 at p ≥ 64 even with large s, versus a few
// percent for PSRS; bench_pivot_ablation reproduces that contrast.
//
// One sequential sort only: local data is *not* pre-sorted; records are
// routed by binary search, and each processor sorts what it receives.
#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "base/contracts.h"
#include "base/rng.h"
#include "base/types.h"
#include "core/sampling.h"
#include "core/splitter_tree.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "seq/counting.h"

namespace paladin::core {

/// Candidate pivots drawn per sublist, here and in the external variant
/// (core/ext_overpartition.h).
inline constexpr u64 kOverpartitionOversample = 8;

struct OverpartitionConfig {
  /// Overpartitioning factor: p·s sublists are created (Li–Sevcik's s).
  u32 s = 4;
};

struct OverpartitionReport {
  u64 local_records = 0;
  /// Records this processor ended up owning (across its sublists).
  u64 final_records = 0;
  /// Number of sublists assigned to this processor.
  u64 sublists_owned = 0;
  double t_total = 0.0;
};

namespace detail {

/// Greedy LPT assignment of sublist sizes to p processors with arbitrary
/// positive capacity weights (static perf factors or adaptive observed
/// shares): biggest sublist first, to the processor with the least
/// weighted load.  Returns sublist → processor.
inline std::vector<u32> assign_sublists(const std::vector<u64>& sizes,
                                        std::span<const double> weights) {
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
    return a < b;
  });
  std::vector<double> load(weights.size(), 0.0);
  std::vector<u32> owner(sizes.size(), 0);
  for (std::size_t idx : order) {
    u32 best = 0;
    for (u32 i = 1; i < weights.size(); ++i) {
      if (load[i] < load[best]) best = i;
    }
    owner[idx] = best;
    load[best] += static_cast<double>(sizes[idx]) / weights[best];
  }
  return owner;
}

/// Static-perf overload: delegates with weights[i] = perf[i] (the exact
/// double the original arithmetic divided by, so schedules are unchanged).
inline std::vector<u32> assign_sublists(const std::vector<u64>& sizes,
                                        const hetero::PerfVector& perf) {
  std::vector<double> weights(perf.node_count());
  for (u32 i = 0; i < perf.node_count(); ++i) {
    weights[i] = static_cast<double>(perf[i]);
  }
  return assign_sublists(sizes, std::span<const double>(weights));
}

}  // namespace detail

/// SPMD body.  Returns this node's sublists, each sorted, in ascending
/// sublist order (the global sort order is the sublist order; which
/// processor owns which sublist comes out of the LPT schedule).
template <Record T, typename Less = std::less<T>>
std::vector<std::vector<T>> overpartition_sort(
    net::NodeContext& ctx, const hetero::PerfVector& perf,
    std::vector<T> local, const OverpartitionConfig& config = {},
    OverpartitionReport* report = nullptr, Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  PALADIN_EXPECTS(config.s >= 1);
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  const u64 buckets = static_cast<u64>(p) * config.s;
  const double t0 = ctx.clock().now();
  const u64 local_records = local.size();

  // 1. Random sample of the *unsorted* input; root picks p·s−1 pivots at
  //    even ranks of the sorted sample (always flat).
  std::vector<T> pivots;
  {
    const u64 want = std::min<u64>(
        local.size(), static_cast<u64>(config.s) * kOverpartitionOversample);
    std::vector<T> sample;
    sample.reserve(want);
    for (u64 i = 0; i < want; ++i) {
      sample.push_back(local[ctx.rng().next_below(local.size())]);
    }
    pivots = select_splitters<T>(
        ctx, std::move(sample),
        [&](u64 pool) { return even_ranks(buckets - 1, pool); },
        /*tree=*/false, /*sorted=*/false, /*unique=*/false, p, less);
  }

  // 2. Route every record to its sublist by binary search (no local sort).
  std::vector<std::vector<T>> by_bucket(buckets);
  {
    u64 compares = 0;
    seq::CountingLess<Less> counting{less, &compares};
    for (const T& v : local) {
      const u64 b = static_cast<u64>(
          std::upper_bound(pivots.begin(), pivots.end(), v, counting) -
          pivots.begin());
      by_bucket[b].push_back(v);
    }
    ctx.on_compares(compares);
    ctx.on_moves(local.size());
    local.clear();
    local.shrink_to_fit();
  }

  // 3. Global sublist sizes → LPT assignment (identical on every node).
  std::vector<u64> sizes(buckets);
  for (u64 b = 0; b < buckets; ++b) {
    sizes[b] = comm.allreduce_sum(by_bucket[b].size());
  }
  const std::vector<u32> owner = detail::assign_sublists(sizes, perf);

  // 4. One-step exchange: ship each sublist's records to its owner,
  //    prefixed per bucket so receivers can keep sublists separate.
  std::vector<std::vector<T>> outgoing(p);
  std::vector<std::vector<u64>> outgoing_meta(p);
  for (u64 b = 0; b < buckets; ++b) {
    const u32 dst = owner[b];
    outgoing_meta[dst].push_back(b);
    outgoing_meta[dst].push_back(by_bucket[b].size());
    outgoing[dst].insert(outgoing[dst].end(), by_bucket[b].begin(),
                         by_bucket[b].end());
  }
  auto incoming_meta =
      comm.template alltoall_records<u64>(std::move(outgoing_meta));
  auto incoming = comm.template alltoall_records<T>(std::move(outgoing));

  // 5. Collect my sublists and sort each.
  std::vector<std::vector<T>> mine;
  std::vector<u64> mine_ids;
  for (u64 b = 0; b < buckets; ++b) {
    if (owner[b] == rank) {
      mine_ids.push_back(b);
      mine.emplace_back();
    }
  }
  for (u32 src = 0; src < p; ++src) {
    u64 cursor = 0;
    const auto& meta = incoming_meta[src];
    PALADIN_ASSERT(meta.size() % 2 == 0);
    for (std::size_t m = 0; m < meta.size(); m += 2) {
      const u64 bucket = meta[m];
      const u64 count = meta[m + 1];
      const auto it =
          std::lower_bound(mine_ids.begin(), mine_ids.end(), bucket);
      PALADIN_ASSERT(it != mine_ids.end() && *it == bucket);
      auto& dest = mine[static_cast<std::size_t>(it - mine_ids.begin())];
      dest.insert(dest.end(),
                  incoming[src].begin() + static_cast<i64>(cursor),
                  incoming[src].begin() + static_cast<i64>(cursor + count));
      cursor += count;
    }
    PALADIN_ASSERT(cursor == incoming[src].size());
  }
  u64 final_records = 0;
  for (auto& sublist : mine) {
    seq::metered_sort(std::span<T>(sublist), ctx, less);
    final_records += sublist.size();
  }

  if (report != nullptr) {
    report->local_records = local_records;
    report->final_records = final_records;
    report->sublists_owned = mine.size();
    report->t_total = ctx.clock().now() - t0;
  }
  return mine;
}

}  // namespace paladin::core
