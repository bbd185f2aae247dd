// The backend seam: every parallel external sort in this library (external
// PSRS, distribution sort, overpartitioning, multiway merge sort) is an
// SPMD "backend" over the same per-node environment — a NodeContext, the
// cluster's perf vector, and a common configuration core (sequential-sort
// machinery, message size, file names).  This header is that shared
// surface:
//
//  * BackendConfig / BackendReport — the common config and result slices
//    every backend config/report derives from, so the driver can assemble
//    a backend's full config by slice-assignment instead of field-by-field
//    plumbing, and slice the common report back out generically;
//  * BackendContext — the bundle of per-node handles (node, perf, common
//    config) the shared phase helpers run against, plus a PhaseTimer that
//    fills the per-phase time / block-I/O columns every report carries and
//    the matching trace counter and snapshot;
//  * shared phase helpers — the random draw, the random-sample backends'
//    rank-rule choice and the routing scaffolding, hoisted here so the
//    backends keep only their genuinely distinct logic (the splitter
//    selection every backend shares lives in core/splitter_tree.h, the
//    spill exchange and spill merge in core/redistribute.h and
//    core/merge_files.h);
//  * collect_sorted_output — the layout-aware gather that assembles the
//    globally sorted sequence at one node whatever the backend's output
//    layout (contiguous slices or scattered bucket files).
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/sampling.h"
#include "core/scatter_gather.h"
#include "core/splitter_tree.h"
#include "core/wire_tags.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// Configuration every backend shares.  Backend configs derive from this
/// (plus their own option struct), so the driver builds them by slicing.
struct BackendConfig {
  /// Sequential machinery for the local sort phases (memory budget, tape
  /// count, run-formation strategy); the memory budget also sizes every
  /// backend's final merge.
  seq::ExternalSortConfig sequential;
  /// Records per network message (paper: 8K integers = 32 KB); clamped up
  /// to a block multiple by the transports.
  u64 message_records = 8192;
  /// Node-local file names.
  std::string input = "input";
  std::string output = "sorted";
  /// How splitters are selected (flat designated-node sort vs the
  /// multi-level sample tree of core/splitter_tree.h); shared by all four
  /// backends.  The default auto heuristic keeps the paper-scale runs on
  /// the exact flat path.
  SplitterConfig splitter;
  /// Adaptive repartitioning under speed drift (hetero/drift.h): when
  /// enabled, every backend re-estimates effective node speeds right
  /// before its splitter/schedule decision and re-splits the partition
  /// targets by the observed speed shares.  Off (the default) leaves the
  /// static perf-proportional path untouched, verbatim.
  hetero::AdaptiveConfig adaptive;
};

/// How a backend lays out its result across the cluster.
enum class OutputLayout : u8 {
  /// `<output>` on node i holds one sorted slice; node i's keys precede
  /// node i+1's (PSRS, distribution, multiway).
  kContiguousSlice,
  /// `<output>.bucket<b>` files, globally ordered by bucket index with
  /// ownership scattered by the schedule (overpartitioning).
  kBucketFiles,
};

/// Name of bucket `b`'s sorted output file under the kBucketFiles layout.
inline std::string bucket_file_name(const std::string& output, u64 b) {
  return output + ".bucket" + std::to_string(b);
}

/// Per-node result core every backend reports; backend reports derive from
/// this and add their own per-phase columns.
struct BackendReport {
  u64 local_records = 0;  ///< l_i, the node's initial share
  u64 final_records = 0;  ///< records owned after the sort
  double t_total = 0.0;   ///< virtual seconds, whole algorithm
  /// Where the sorted data lives (drives collect_sorted_output).
  OutputLayout layout = OutputLayout::kContiguousSlice;
  /// Buckets this node owns (kBucketFiles layout only; empty otherwise).
  std::vector<u64> owned_buckets;
};

/// The per-node execution environment a backend runs against: the cluster
/// node, the perf vector and the common config, with the derived accessors
/// the shared phase helpers want.
class BackendContext {
 public:
  BackendContext(net::NodeContext& node, const hetero::PerfVector& perf,
                 const BackendConfig& common)
      : node_(&node), perf_(&perf), common_(&common) {
    PALADIN_EXPECTS(perf.node_count() == node.node_count());
  }

  net::NodeContext& node() const { return *node_; }
  const hetero::PerfVector& perf() const { return *perf_; }
  const BackendConfig& common() const { return *common_; }

  net::Communicator& comm() const { return node_->comm(); }
  pdm::Disk& disk() const { return node_->disk(); }
  obs::Tracer* obs() const { return node_->obs(); }
  u32 p() const { return node_->node_count(); }
  u32 rank() const { return node_->rank(); }

  double now() const { return node_->clock().now(); }
  u64 block_ios() const { return node_->disk().stats().total_block_ios(); }

 private:
  net::NodeContext* node_;
  const hetero::PerfVector* perf_;
  const BackendConfig* common_;
};

/// Time / block-I/O bracket for one backend phase: captures the virtual
/// clock and the disk's block-I/O counter at construction; finish() does a
/// phase's whole bookkeeping in one call.
class PhaseTimer {
 public:
  explicit PhaseTimer(const BackendContext& bc)
      : bc_(&bc), t0_(bc.now()), io0_(bc.block_ios()) {}

  double seconds() const { return bc_->now() - t0_; }

  /// Ends the phase: stores its virtual seconds and block I/Os in the
  /// report columns `t` and `io`, and when tracing sets `counter` to the
  /// block I/Os and snapshots the registry as `label`.  Set any other
  /// counter the phase reports before calling this: the registry exports
  /// in first-touch order.
  void finish(double& t, u64& io, std::string_view counter,
              std::string_view label) const {
    t = seconds();
    io = bc_->block_ios() - io0_;
    if (obs::Tracer* const tr = bc_->obs()) {
      tr->counters().set(counter, io);
      tr->snapshot(std::string(label));
    }
  }

 private:
  const BackendContext* bc_;
  double t0_;
  u64 io0_;
};

/// Outcome of one adaptive speed re-estimation (hetero::AdaptiveConfig).
/// `weights` is the observed per-node speed share (normalized to sum 1) on
/// every node when `applied`, empty when adaptation was declined — the
/// caller then runs its static perf-proportional path verbatim.
struct AdaptiveOutcome {
  bool applied = false;
  std::vector<double> weights;
  double local_speed = 0.0;  ///< this node's measured effective speed
};

/// Collective speed re-estimation — every node must call it at the same
/// point of the algorithm.  Each node runs a probe: it charges
/// hetero::kAdaptProbeCompares compares through its (possibly drifting)
/// meter and reads the virtual time billed; known-work / observed-duration
/// *is* the node's current effective speed, recorded as an `adapt.probe`
/// span.  The root gathers the measurements, takes each node's share of
/// the summed speed, applies the deadband, and broadcasts either the
/// normalized weights or an empty vector (declined).  Deterministic: the
/// probe reads only virtual clocks, so the outcome is a pure function of
/// (seed, plan, config).
inline AdaptiveOutcome adaptive_reestimate(const BackendContext& bc,
                                           u64 phase_records, u32 root) {
  AdaptiveOutcome out;
  net::NodeContext& ctx = bc.node();
  const hetero::PerfVector& perf = bc.perf();
  obs::Tracer* const tr = bc.obs();
  const double t0 = ctx.clock().now();
  ctx.on_compares(hetero::kAdaptProbeCompares);
  const double dt = ctx.clock().now() - t0;
  const double per_compare = ctx.config().cost.per_compare_seconds;
  out.local_speed =
      dt > 0.0 ? static_cast<double>(hetero::kAdaptProbeCompares) *
                     per_compare / dt
               : ctx.speed();
  if (tr) {
    const obs::Tracer::SpanId probe = tr->open_at("adapt.probe", "drift", t0);
    tr->arg(probe, "phase_records", phase_records);
    tr->arg(probe, "speed_x1000",
            static_cast<u64>(out.local_speed * 1000.0));
    tr->close(probe);
  }

  net::Communicator& comm = ctx.comm();
  std::vector<double> speeds = comm.gather_records<double>(
      std::span<const double>(&out.local_speed, 1), root);
  std::vector<double> weights;
  if (bc.rank() == root) {
    const u32 p = perf.node_count();
    double speed_sum = 0.0;
    for (double s : speeds) speed_sum += s;
    const double perf_sum = static_cast<double>(perf.sum());
    weights.resize(p);
    double weight_sum = 0.0;
    for (u32 i = 0; i < p; ++i) {
      const double stat = static_cast<double>(perf[i]) / perf_sum;
      weights[i] = speed_sum > 0.0 ? speeds[i] / speed_sum : stat;
      weight_sum += weights[i];
    }
    double max_rel = 0.0;
    for (u32 i = 0; i < p; ++i) {
      weights[i] /= weight_sum;
      const double stat = static_cast<double>(perf[i]) / perf_sum;
      max_rel = std::max(max_rel, std::abs(weights[i] - stat) / stat);
    }
    // Deadband: measurement within noise of the static shares — decline,
    // so drift-free adaptive runs keep the exact static partition.
    if (max_rel < hetero::kAdaptMinRelativeChange) weights.clear();
  }
  weights = comm.bcast_records<double>(std::move(weights), root);
  out.applied = !weights.empty();
  out.weights = std::move(weights);
  if (tr) {
    // Deterministic per (seed, plan, config): safe to fold into the trace.
    tr->counters().set("drift.adapt.applied", out.applied ? 1 : 0);
    if (out.applied) {
      tr->counters().set(
          "drift.adapt.weight_ppm",
          static_cast<u64>(out.weights[bc.rank()] * 1e6));
    }
  }
  return out;
}

/// Draws `want` records of `file` at uniformly random positions (sampling
/// with replacement) — the probabilistic-splitting sample of DeWitt et al.
/// and the oversampling step of Rahn–Sanders–Singler.  The positions come
/// from the node RNG and are read in ascending order (read_positions: one
/// seek per sample, or one pass when the sample outnumbers the blocks), so
/// the sample is in file order; callers sort it.  `want` is clamped to the
/// file size; an empty file yields an empty sample.
template <Record T>
std::vector<T> draw_random_sample(net::NodeContext& ctx,
                                  const std::string& file, u64 want) {
  pdm::BlockFile f = ctx.disk().open(file);
  pdm::BlockReader<T> reader(f);
  const u64 size = reader.size_records();
  std::vector<u64> positions(std::min(want, size));
  for (u64& pos : positions) pos = ctx.rng().next_below(size);
  std::sort(positions.begin(), positions.end());
  return read_positions(reader, std::span<const u64>(positions));
}

/// Splitter selection from random samples (distribution, overpartitioning,
/// multiway): picks the rank rule and hands the unsorted `local_sample` to
/// select_splitters, which returns the same `cuts` splitters in sorted
/// order on every node.  The cuts are perf quantiles when `perf` is
/// non-null (cut j at rank Σ_{t≤j} perf/Σperf, as in PSRS pivot
/// selection) and even otherwise; `weights`, when non-null, overrides both
/// with adaptive per-node shares (normalized doubles from
/// adaptive_reestimate).  Weighted selection always takes the flat path —
/// the sample tree's bounded digests reduce integer perf masses, so
/// tree+adaptive falls back to flat (documented in docs/ALGORITHM.md).
/// `unique_splitters` de-duplicates the pool before the cut.
template <Record T, typename Less = std::less<T>>
std::vector<T> select_sample_splitters(const BackendContext& bc,
                                       std::vector<T> local_sample, u64 cuts,
                                       const hetero::PerfVector* perf,
                                       bool unique_splitters = false,
                                       Less less = {},
                                       const std::vector<double>* weights =
                                           nullptr) {
  PALADIN_EXPECTS(perf == nullptr || cuts + 1 == perf->node_count());
  PALADIN_EXPECTS(weights == nullptr || cuts + 1 == weights->size());
  const auto ranks = [&](u64 pool) {
    if (weights != nullptr) return weight_ranks(*weights, pool);
    if (perf != nullptr) return perf_quantile_ranks(*perf, pool);
    return even_ranks(cuts, pool);
  };
  const bool tree =
      weights == nullptr && splitter_uses_tree(bc.common().splitter, bc.p());
  const u64 mass = perf != nullptr ? perf->sum() : bc.p();
  return select_splitters<T>(bc.node(), std::move(local_sample), ranks, tree,
                             /*sorted=*/false, unique_splitters, mass, less);
}

/// One streaming pass of an *unsorted* local file into `splitters.size()+1`
/// bucket files selected by binary search (a record equal to a splitter
/// routes above it, matching std::upper_bound).  `bucket_name(b)` names the
/// file of bucket b.  Charges one compare per search step and one move per
/// record; returns per-bucket record counts.
template <Record T, typename NameFn, typename Less = std::less<T>>
std::vector<u64> route_file_by_splitters(net::NodeContext& ctx,
                                         const std::string& input,
                                         std::span<const T> splitters,
                                         NameFn&& bucket_name, Less less = {}) {
  const u64 buckets = splitters.size() + 1;
  std::vector<u64> sizes(buckets, 0);
  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockWriter<T>> writers;
  files.reserve(buckets);
  writers.reserve(buckets);
  for (u64 b = 0; b < buckets; ++b) {
    files.push_back(ctx.disk().create(bucket_name(b)));
    writers.emplace_back(files.back());
  }
  pdm::BlockFile f = ctx.disk().open(input);
  pdm::BlockReader<T> reader(f);
  u64 compares = 0;
  seq::CountingLess<Less> counting{less, &compares};
  u64 routed = 0;
  T v;
  while (reader.next(v)) {
    const u64 b = static_cast<u64>(
        std::upper_bound(splitters.begin(), splitters.end(), v, counting) -
        splitters.begin());
    writers[b].push(v);
    ++sizes[b];
    ++routed;
  }
  for (auto& w : writers) w.flush();
  ctx.on_compares(compares);
  ctx.on_moves(routed);
  return sizes;
}

/// Collective: assembles the globally sorted sequence at `root` into
/// `dest` on root's disk, whatever the backend's output layout.
/// Contiguous slices concatenate in rank order (gather_shares); bucket
/// files concatenate in global bucket order, each streamed from its owner.
/// Returns the total record count on every node.
template <Record T>
u64 collect_sorted_output(net::NodeContext& ctx, const BackendConfig& config,
                          const BackendReport& report, const std::string& dest,
                          u32 root = 0) {
  if (report.layout == OutputLayout::kContiguousSlice) {
    return gather_shares<T>(ctx, config.output, dest, root,
                            config.message_records);
  }

  net::Communicator& comm = ctx.comm();
  const u32 rank = comm.rank();

  std::vector<u64> owned = report.owned_buckets;
  std::sort(owned.begin(), owned.end());
  u64 mine = 0;
  for (u64 b : owned) {
    mine += ctx.disk().file_records<T>(bucket_file_name(config.output, b));
  }
  const u64 total = comm.allreduce_sum(mine);

  // Everyone announces the buckets it owns; root reconstructs the global
  // owner map from the concatenated (rank-ordered) lists.
  const u64 my_count = owned.size();
  std::vector<u64> counts = comm.template gather_records<u64>(
      std::span<const u64>(&my_count, 1), root);
  std::vector<u64> all_ids =
      comm.template gather_records<u64>(std::span<const u64>(owned), root);

  if (rank != root) {
    // Stream my buckets in ascending bucket order — the order root visits
    // them within my rank's interleave of the global bucket sequence.
    for (u64 b : owned) {
      pdm::BlockFile f =
          ctx.disk().open(bucket_file_name(config.output, b));
      pdm::BlockReader<T> reader(f);
      comm.send_value<u64>(root, kTagCollectHeader, reader.size_records());
      std::vector<T> chunk;
      chunk.reserve(config.message_records);
      T v;
      while (reader.next(v)) {
        chunk.push_back(v);
        if (chunk.size() == config.message_records) {
          comm.template send_records<T>(root, kTagCollectData, chunk);
          chunk.clear();
        }
      }
      if (!chunk.empty()) {
        comm.template send_records<T>(root, kTagCollectData, chunk);
      }
    }
    return total;
  }

  std::vector<u32> owner_of;  // owner_of[b] = owning rank
  {
    u64 pos = 0;
    for (u32 i = 0; i < comm.size(); ++i) {
      for (u64 k = 0; k < counts[i]; ++k) {
        const u64 b = all_ids[pos++];
        if (b >= owner_of.size()) owner_of.resize(b + 1, comm.size());
        PALADIN_ASSERT(owner_of[b] == comm.size());  // owned exactly once
        owner_of[b] = i;
      }
    }
    for (u32 o : owner_of) PALADIN_ASSERT(o < comm.size());
  }

  pdm::BlockFile out = ctx.disk().create(dest);
  pdm::BlockWriter<T> writer(out);
  for (u64 b = 0; b < owner_of.size(); ++b) {
    const u32 who = owner_of[b];
    if (who == root) {
      pdm::BlockFile f =
          ctx.disk().open(bucket_file_name(config.output, b));
      pdm::BlockReader<T> reader(f);
      const u64 copied = pdm::copy_records(reader, writer);
      ctx.on_moves(copied);
      continue;
    }
    const u64 expected = comm.recv_value<u64>(who, kTagCollectHeader);
    u64 got = 0;
    while (got < expected) {
      std::vector<T> data =
          comm.template recv_records<T>(who, kTagCollectData);
      PALADIN_ASSERT(!data.empty());
      writer.push_span(std::span<const T>(data));
      got += data.size();
    }
  }
  writer.flush();
  PALADIN_ENSURES(writer.records_written() == total);
  return total;
}

}  // namespace paladin::core
