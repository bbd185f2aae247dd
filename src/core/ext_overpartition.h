// External sorting by overpartitioning — the Li–Sevcik comparator (§3.3)
// lifted to the out-of-core setting, so the paper's in-core argument can be
// re-examined with disks in the loop:
//
//   1. random sample of the *unsorted* local files; the designated node
//      picks p·s−1 pivots (s = overpartitioning factor);
//   2. one streaming pass routes records into p·s bucket files (binary
//      search per record — no initial sort);
//   3. global bucket sizes → greedy perf-weighted LPT schedule assigns
//      buckets to processors;
//   4. bucket files travel to their owners through the shared spill
//      exchange (core/redistribute.h), landing behind a copy of the
//      owner's own piece of the bucket;
//   5. each owner externally sorts each owned bucket (its first and only
//      full sort of that data).
//
// The output is one sorted file per owned bucket, named
// `<output>.bucket<b>`; globally the sort order is the bucket order, with
// ownership scattered by the schedule — overpartitioning trades the
// contiguous-slice property of PSRS for size-adaptive assignment.  The
// sample/splitter/route scaffolding comes from core/backend.h; the LPT
// schedule is this backend's own.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/overpartition.h"
#include "core/redistribute.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// This backend's constants (the common core is BackendConfig).
struct ExtOverpartitionOptions {
  /// Overpartitioning factor: p·s buckets, each sampled by
  /// kOverpartitionOversample candidate pivots.
  static constexpr u32 s = 4;
};

struct ExtOverpartitionConfig : BackendConfig, ExtOverpartitionOptions {};

struct ExtOverpartitionReport : BackendReport {};

/// SPMD body.  On return this node's disk holds `<output>.bucket<b>`
/// (sorted) for every bucket b it owns; `report.owned_buckets` lists them.
template <Record T, typename Less = std::less<T>>
ExtOverpartitionReport ext_overpartition_sort(
    net::NodeContext& ctx, const hetero::PerfVector& perf,
    const ExtOverpartitionConfig& config, Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  const u64 buckets = static_cast<u64>(p) * config.s;
  BackendContext bc(ctx, perf, config);
  const PhaseTimer total(bc);

  ExtOverpartitionReport report;
  report.layout = OutputLayout::kBucketFiles;
  report.local_records = ctx.disk().file_records<T>(config.input);

  // ---- 1. Random sampling of the unsorted file; p·s−1 pivots ----------
  // Uniform (not perf-weighted) quantile cuts: balance across *buckets* is
  // what the LPT schedule below consumes; perf enters at assignment time.
  const u64 want = std::min<u64>(
      report.local_records,
      static_cast<u64>(config.s) * kOverpartitionOversample);
  // Selection strategy (flat vs the core/splitter_tree.h tree) comes from
  // BackendConfig::splitter; with s·p buckets the sample volume here grows
  // even faster with p than PSRS Step 2, so the tree pays off sooner.
  std::vector<T> pivots = select_sample_splitters<T, Less>(
      bc, draw_random_sample<T>(ctx, config.input, want), buckets - 1,
      /*perf=*/nullptr, /*unique_splitters=*/false, less);

  // ---- 2. One streaming pass into p·s bucket files ---------------------
  const auto local_bucket = [&](u64 b) {
    return config.output + ".lb" + std::to_string(b);
  };
  const std::vector<u64> local_sizes = route_file_by_splitters<T>(
      ctx, config.input, std::span<const T>(pivots), local_bucket, less);

  // ---- 3. Global sizes → LPT assignment (deterministic, same on all) ---
  std::vector<u64> global_sizes(buckets);
  {
    std::vector<u64> gathered = comm.template gather_records<u64>(
        std::span<const u64>(local_sizes), 0);
    if (rank == 0) {
      for (u64 b = 0; b < buckets; ++b) {
        u64 size = 0;
        for (u32 i = 0; i < p; ++i) size += gathered[i * buckets + b];
        global_sizes[b] = size;
      }
    }
    global_sizes =
        comm.template bcast_records<u64>(std::move(global_sizes), 0);
  }
  // Adaptive re-estimation (hetero/drift.h): overpartitioning's whole
  // design point is that perf only enters at assignment time — so the
  // adaptive hook simply swaps the LPT capacity weights for the measured
  // speed shares right before the schedule is fixed.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled && p > 1) {
    obs::ScopedSpan span(bc.obs(), "overpart.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, report.local_records, 0);
    if (ad.applied) adapt_weights = ad.weights;
  }
  const std::vector<u32> owner =
      adapt_weights.empty()
          ? detail::assign_sublists(global_sizes, perf)
          : detail::assign_sublists(
                global_sizes, std::span<const double>(adapt_weights));

  // ---- 4. Ship bucket pieces to their owners --------------------------
  // Each owned bucket starts as a copy of my own piece in `.raw`; piece k
  // from a peer is its piece of the k-th bucket I own and lands behind it.
  const auto raw_bucket = [&](u64 b) {
    return bucket_file_name(config.output, b) + ".raw";
  };
  std::vector<u64> mine;
  std::vector<std::vector<seq::MergePiece>> outgoing(p);
  for (u64 b = 0; b < buckets; ++b) {
    if (owner[b] != rank) {
      outgoing[owner[b]].push_back({local_bucket(b), 0, local_sizes[b]});
      continue;
    }
    mine.push_back(b);
    pdm::BlockFile in = ctx.disk().open(local_bucket(b));
    pdm::BlockReader<T> reader(in);
    pdm::BlockFile out = ctx.disk().create(raw_bucket(b));
    pdm::BlockWriter<T> writer(out);
    pdm::copy_records(reader, writer);
    writer.flush();
  }
  redistribute_pieces<T>(
      ctx, outgoing, [&](u32, u64 k) { return raw_bucket(mine[k]); },
      config.message_records);
  for (u64 b = 0; b < buckets; ++b) ctx.disk().remove(local_bucket(b));

  // ---- 5. Externally sort every owned bucket ---------------------------
  for (const u64 b : mine) {
    const std::string sorted = bucket_file_name(config.output, b);
    seq::external_sort<T, Less>(ctx.disk(), raw_bucket(b), sorted,
                                config.sequential, ctx, less);
    ctx.disk().remove(raw_bucket(b));
    report.owned_buckets.push_back(b);
    report.final_records += ctx.disk().file_records<T>(sorted);
  }

  report.t_total = total.seconds();
  return report;
}

}  // namespace paladin::core
