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
//   4. bucket files travel to their owners;
//   5. each owner externally sorts each received bucket (its first and
//      only full sort of that data).
//
// The output is one sorted file per owned bucket, named
// `<output>.bucket<b>`; globally the sort order is the bucket order, with
// ownership scattered by the schedule — overpartitioning trades the
// contiguous-slice property of PSRS for size-adaptive assignment.  The
// sample/splitter/route scaffolding comes from core/backend.h; the LPT
// schedule and the bucket shipping are this backend's own.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/overpartition.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// Knobs specific to this backend (the common core is BackendConfig).
struct ExtOverpartitionOptions {
  /// Overpartitioning factor: p·s buckets.
  u32 s = 4;
  /// Candidate pivots sampled per bucket.
  u32 oversample = 8;
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
  PALADIN_EXPECTS(config.s >= 1);
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  const u64 buckets = static_cast<u64>(p) * config.s;
  BackendContext bc(ctx, perf, config);
  const PhaseTimer total(bc);
  constexpr int kTagHeader = 60;
  constexpr int kTagData = 61;

  ExtOverpartitionReport report;
  report.layout = OutputLayout::kBucketFiles;
  report.local_records = ctx.disk().file_records<T>(config.input);

  // ---- 1. Random sampling of the unsorted file; p·s−1 pivots ----------
  // Uniform (not perf-weighted) quantile cuts: balance across *buckets* is
  // what the LPT schedule below consumes; perf enters at assignment time.
  const u64 want = std::min<u64>(
      report.local_records,
      static_cast<u64>(config.s) * config.oversample);
  // Selection strategy (flat vs the core/splitter_tree.h tree) comes from
  // BackendConfig::splitter; with s·p buckets the sample volume here grows
  // even faster with p than PSRS Step 2, so the tree pays off sooner.
  std::vector<T> pivots = select_sample_splitters<T, Less>(
      bc, draw_random_sample<T>(ctx, config.input, want), buckets - 1,
      /*perf=*/nullptr, /*unique_splitters=*/false, /*root=*/0, less);

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
  // adaptive hook simply swaps the LPT capacity weights for the blended
  // measured shares right before the schedule is fixed.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled && p > 1) {
    obs::ScopedSpan span(bc.obs(), "overpart.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, config.adaptive, report.local_records, 0);
    if (ad.applied) adapt_weights = ad.weights;
  }
  const std::vector<u32> owner =
      adapt_weights.empty()
          ? detail::assign_sublists(global_sizes, perf)
          : detail::assign_sublists(
                global_sizes, std::span<const double>(adapt_weights));

  // ---- 4. Ship bucket files to their owners ----------------------------
  // Send: for each bucket not owned by me, stream my local piece to the
  // owner, framed per bucket.  Receive: for each bucket I own, collect the
  // pieces of all peers.
  std::vector<T> chunk;
  chunk.reserve(config.message_records);
  for (u32 offset = 1; offset < p; ++offset) {
    const u32 dst = (rank + offset) % p;
    for (u64 b = 0; b < buckets; ++b) {
      if (owner[b] != dst) continue;
      pdm::BlockFile f = ctx.disk().open(local_bucket(b));
      pdm::BlockReader<T> reader(f);
      comm.send_value<u64>(dst, kTagHeader, reader.size_records());
      chunk.clear();
      T v;
      while (reader.next(v)) {
        chunk.push_back(v);
        if (chunk.size() == config.message_records) {
          comm.template send_records<T>(dst, kTagData, chunk);
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        comm.template send_records<T>(dst, kTagData, chunk);
        chunk.clear();
      }
    }
  }

  const auto owned_bucket = [&](u64 b) {
    return bucket_file_name(config.output, b);
  };
  // Start each owned bucket with my local piece, then append peers'.
  for (u64 b = 0; b < buckets; ++b) {
    if (owner[b] != rank) continue;
    pdm::BlockFile out = ctx.disk().create(owned_bucket(b) + ".raw");
    pdm::BlockWriter<T> writer(out);
    {
      pdm::BlockFile f = ctx.disk().open(local_bucket(b));
      pdm::BlockReader<T> reader(f);
      T v;
      while (reader.next(v)) writer.push(v);
    }
    writer.flush();
  }
  for (u32 offset = 1; offset < p; ++offset) {
    const u32 src = (rank + p - offset) % p;
    for (u64 b = 0; b < buckets; ++b) {
      if (owner[b] != rank) continue;
      const u64 expected = comm.recv_value<u64>(src, kTagHeader);
      pdm::BlockFile out = ctx.disk().open(owned_bucket(b) + ".raw");
      pdm::BlockWriter<T> writer(out, /*append=*/true);
      u64 got = 0;
      while (got < expected) {
        std::vector<T> data = comm.template recv_records<T>(src, kTagData);
        PALADIN_ASSERT(!data.empty());
        writer.push_span(std::span<const T>(data));
        got += data.size();
      }
      writer.flush();
    }
  }
  if (!config.keep_intermediates) {
    for (u64 b = 0; b < buckets; ++b) ctx.disk().remove(local_bucket(b));
  }

  // ---- 5. Externally sort every owned bucket ---------------------------
  for (u64 b = 0; b < buckets; ++b) {
    if (owner[b] != rank) continue;
    seq::external_sort<T, Less>(ctx.disk(), owned_bucket(b) + ".raw",
                                owned_bucket(b), config.sequential, ctx,
                                less);
    if (!config.keep_intermediates) ctx.disk().remove(owned_bucket(b) + ".raw");
    report.owned_buckets.push_back(b);
    report.final_records += ctx.disk().file_records<T>(owned_bucket(b));
  }

  report.t_total = total.seconds();
  return report;
}

}  // namespace paladin::core
