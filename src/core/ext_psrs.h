// Algorithm 1 of the paper: external Parallel Sorting by Regular Sampling
// for clusters with processors at different speed.  Runs as an SPMD body on
// every node of a paladin::net::Cluster:
//
//   Step 1  sequential external sort of the node's share (polyphase);
//   Step 2  regular sampling of the sorted file; a designated node sorts
//           the p·Σperf − p samples and broadcasts the p−1 perf-weighted
//           pivots;
//   Step 3  binary partitioning: the p+1 cut offsets of the sorted file,
//           found by binary search in place;
//   Step 4  redistribution — partition j travels to node j straight from
//           the sorted file, in block-multiple messages;
//   Step 5  final merge of the node's own partition with the p−1 received
//           runs.
//
// By default steps 3–5 run fused instead (core/pipeline.h), with the same
// output.
//
// The PSRS theorem (and its heterogeneous extension, ref. [29] of the
// paper) bounds node i's final partition by 2·l_i (+d with d duplicates of
// one key); the tests enforce that bound and the benches report the
// measured sublist expansion.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/partition_file.h"
#include "core/merge_files.h"
#include "core/pipeline.h"
#include "core/redistribute.h"
#include "core/sampling.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// Knobs specific to this backend; the sequential machinery, message size
/// and file names come from the shared BackendConfig core.
struct ExtPsrsOptions {
  /// Sampling densification (extension; 1 = the paper's sampling rate).
  /// Larger values shrink the pivot quantisation error — the slow nodes'
  /// balance improves at the cost of a larger gathered sample.
  u64 sampling_oversample = 1;
  /// Node that sorts the samples and selects pivots.
  u32 designated_node = 0;
  /// Fuse steps 3–5 into the overlapped partition→send→merge pipeline,
  /// which reads the sorted file once and writes only the merged output,
  /// instead of the phased cut → exchange → merge, which lands each
  /// received partition on disk and merges it back.  Output is
  /// bit-identical either way, and the virtual makespans within about 2%
  /// (EXPERIMENTS.md Table 3): phased finishes sooner at 2^20 and 2^24
  /// records on the Table 3 clusters, pipelined at 2^17.
  bool pipelined = true;
  /// Per-destination credit window in pipelined mode and in the phased
  /// exchange: at most this many un-acknowledged chunks in flight.
  u64 flow_window_chunks = kDefaultFlowWindow;
};

struct ExtPsrsConfig : BackendConfig, ExtPsrsOptions {};

/// What one node reports after the sort; the experiment harness aggregates
/// these into the paper's Table 3 columns.  The common core (l_i, final
/// records, total time) sits in BackendReport.
struct ExtPsrsReport : BackendReport {
  u64 samples_contributed = 0;
  u64 messages_sent = 0;
  u64 effective_message_records = 0;  ///< message_records after block clamping

  // Virtual seconds spent in each step.
  double t_seq_sort = 0.0;
  double t_sampling = 0.0;
  double t_partition = 0.0;
  double t_redistribute = 0.0;
  double t_final_merge = 0.0;
  double t_pipeline = 0.0;  ///< fused steps 3–5 (pipelined mode only)

  // Block I/O per step (this node's disk).
  u64 io_seq_sort = 0;
  u64 io_sampling = 0;
  u64 io_partition = 0;
  u64 io_redistribute = 0;
  u64 io_final_merge = 0;
  u64 io_pipeline = 0;  ///< fused steps 3–5 (pipelined mode only)
};

/// SPMD body: sorts the cluster-wide dataset whose share on this node is
/// `config.input`; on return `config.output` holds this node's globally
/// contiguous slice (node 0's output precedes node 1's, etc.).
template <Record T, typename Less = std::less<T>>
ExtPsrsReport ext_psrs_sort(net::NodeContext& ctx,
                            const hetero::PerfVector& perf,
                            const ExtPsrsConfig& config, Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  PALADIN_EXPECTS(config.designated_node < ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();

  ExtPsrsReport report;
  report.local_records = ctx.disk().file_records<T>(config.input);

  // Null unless ClusterConfig::observe is set; every helper below no-ops on
  // null, so the untraced hot path only pays pointer tests.
  obs::Tracer* const tr = ctx.obs();
  if (tr) tr->counters().set("psrs.records_in", report.local_records);

  // The sampling arithmetic requires the Equation-2 share layout.
  const u64 n = comm.allreduce_sum(report.local_records);
  PALADIN_EXPECTS_MSG(perf.is_admissible(n),
                      "input size violates Equation 2; use "
                      "PerfVector::round_up_admissible");
  PALADIN_EXPECTS_MSG(report.local_records == perf.share(rank, n),
                      "node share does not match perf-proportional layout");

  const BackendContext bc(ctx, perf, config);
  const PhaseTimer total(bc);
  obs::ScopedSpan sort_span(tr, "psrs.sort", "psrs");

  if (p == 1) {
    // Degenerate single-node "cluster": Algorithm 1 collapses to Step 1.
    obs::ScopedSpan span(tr, "psrs.step1.seq_sort", "psrs");
    seq::external_sort<T, Less>(ctx.disk(), config.input, config.output,
                                config.sequential, ctx, less, tr);
    span.end();
    report.final_records = report.local_records;
    if (tr) tr->counters().set("psrs.records_out", report.final_records);
    total.finish(report.t_seq_sort, report.io_seq_sort, "psrs.io.seq_sort",
                 "step1.seq_sort");
    report.t_total = report.t_seq_sort;
    span.arg("blocks", report.io_seq_sort);
    return report;
  }

  // ---- Step 1: sequential external sort of the local share -----------
  const std::string sorted_local = config.output + ".step1";
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "psrs.step1.seq_sort", "psrs");
    seq::external_sort<T, Less>(ctx.disk(), config.input, sorted_local,
                                config.sequential, ctx, less, tr);
    span.end();
    phase.finish(report.t_seq_sort, report.io_seq_sort, "psrs.io.seq_sort",
                 "step1.seq_sort");
    span.arg("blocks", report.io_seq_sort);
  }

  // ---- Adaptive re-estimation (hetero/drift.h) ------------------------
  // Between Step 1 and the pivot decision: measure each node's *current*
  // effective speed with a probe span and, if the observed speed shares
  // moved beyond the deadband, cut Step 2's pivots at the weight quantiles
  // instead of the static perf quantiles — records the static split would
  // have left on a slowed node land on its faster peers before the
  // steps 3–5 exchange ever ships a byte.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled) {
    obs::ScopedSpan span(tr, "psrs.adapt", "drift");
    const AdaptiveOutcome ad = adaptive_reestimate(
        bc, report.local_records, config.designated_node);
    if (ad.applied) adapt_weights = ad.weights;
  }

  // ---- Step 2: regular sampling & pivot selection ---------------------
  const PhaseTimer sampling(bc);
  std::vector<T> pivots;
  {
    obs::ScopedSpan span(tr, "psrs.step2.sampling", "psrs");
    if (adapt_weights.empty() && splitter_uses_tree(config.splitter, p)) {
      // Multi-level path (core/splitter_tree.h): densified leaf sample,
      // group-tree digest reduction, flat pivot formulas at the root.
      const u64 o_total = config.sampling_oversample * kTreeLeafOversample;
      const u64 off = perf.sample_stride_clamped(n, o_total);
      std::vector<T> samples;
      {
        pdm::BlockFile f = ctx.disk().open(sorted_local);
        pdm::BlockReader<T> reader(f);
        samples = draw_regular_sample<T>(reader, off);
      }
      report.samples_contributed = samples.size();
      pivots = tree_select_pivots<T, Less>(ctx, perf, std::move(samples),
                                           o_total, config.designated_node,
                                           less);
    } else {
      // Once weights apply, densify the regular sample: the oversample-1
      // sample only offers cut points at the static perf quantiles, which
      // quantises a weighted cut like 1/13 back to ~1/p and leaves the
      // re-split a no-op (hetero::kAdaptResampleOversample).
      u64 oversample = config.sampling_oversample;
      if (!adapt_weights.empty()) {
        const u64 cap =
            std::max<u64>(n / (perf.sum() * static_cast<u64>(p)), 1);
        oversample = std::min(
            std::max(oversample, hetero::kAdaptResampleOversample),
            std::max(cap, oversample));
      }
      const u64 off = perf.sample_stride(n, oversample);
      std::vector<T> samples;
      {
        pdm::BlockFile f = ctx.disk().open(sorted_local);
        pdm::BlockReader<T> reader(f);
        // The densified draw streams the file once instead of seeking per
        // sample; the static draw keeps the paper's seek pattern exactly.
        samples = adapt_weights.empty()
                      ? draw_regular_sample<T>(reader, off)
                      : draw_regular_sample_streamed<T>(reader, off);
      }
      PALADIN_ASSERT(samples.size() ==
                     perf.sample_count(rank, n, oversample));
      report.samples_contributed = samples.size();

      std::vector<T> gathered = comm.template gather_records<T>(
          std::span<const T>(samples), config.designated_node);
      if (rank == config.designated_node) {
        // Adaptive weights replace the static perf quantiles; the tree
        // path is bypassed under adaptation (its digests reduce integer
        // perf masses only — see docs/ALGORITHM.md §Adaptive re-split).
        pivots = adapt_weights.empty()
                     ? select_pivots<T, Less>(gathered, perf, ctx, less,
                                              config.sampling_oversample)
                     : select_weighted_pivots<T, Less>(gathered,
                                                       adapt_weights, ctx,
                                                       less);
      }
      pivots = comm.template bcast_records<T>(std::move(pivots),
                                              config.designated_node);
      PALADIN_ASSERT(pivots.size() == p - 1);
    }
  }
  if (tr) tr->counters().set("psrs.samples", report.samples_contributed);
  sampling.finish(report.t_sampling, report.io_sampling, "psrs.io.sampling",
                  "step2.sampling");

  if (config.pipelined) {
    // ---- Steps 3–5, fused: overlapped partition→send→merge ------------
    const PhaseTimer phase(bc);
    const u64 msg =
        clamped_message_records<T>(ctx.disk(), config.message_records);
    report.effective_message_records = msg;
    obs::ScopedSpan span(tr, "psrs.steps3-5.pipeline", "psrs");
    const PipelineOutcome piped = pipelined_exchange_merge<T, Less>(
        ctx, sorted_local, config.output, std::span<const T>(pivots), msg,
        config.flow_window_chunks, less);
    ctx.disk().remove(sorted_local);
    span.end();
    report.final_records = piped.merged;
    report.messages_sent = piped.data_messages;
    if (tr) {
      tr->counters().set("psrs.records_out", report.final_records);
      tr->counters().set("psrs.messages_sent", report.messages_sent);
      tr->counters().set("psrs.effective_message_records",
                         report.effective_message_records);
    }
    phase.finish(report.t_pipeline, report.io_pipeline, "psrs.io.pipeline",
                 "steps3-5.pipeline");
    span.arg("blocks", report.io_pipeline);
    span.arg("records", report.final_records);
    // The fused steps touch the disk once on each side — read the sorted
    // file (l_i records), write the final partition — which is the
    // ≈ Q/B + l_i/B bound the pipeline exists to meet.
    const u64 rpb = ctx.disk().params().records_per_block(sizeof(T));
    const u64 bound = ceil_div(report.local_records, rpb) +
                      ceil_div(report.final_records, rpb);
    PALADIN_ENSURES(report.io_pipeline <= bound + 2);
    report.t_total = total.seconds();
    return report;
  }

  // ---- Step 3: cut the sorted file at the pivots ----------------------
  // Partition j is records [cuts[j], cuts[j+1]) of the sorted file, which
  // stays in place until Step 5 has merged this node's own partition.
  std::vector<u64> cuts;
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "psrs.step3.partition", "psrs");
    cuts = file_partition_cuts<T, Less>(ctx.disk(), sorted_local,
                                        std::span<const T>(pivots), ctx, less);
    span.end();
    phase.finish(report.t_partition, report.io_partition, "psrs.io.partition",
                 "step3.partition");
    span.arg("blocks", report.io_partition);
  }
  const auto piece = [&](u32 j) {
    return seq::MergePiece{sorted_local, cuts[j], cuts[j + 1] - cuts[j]};
  };

  // ---- Step 4: redistribution -----------------------------------------
  // Partition j travels to node j as one piece; what src sent lands in
  // `<output>.step4.from<src>`.
  const std::string recv_prefix = config.output + ".step4";
  RedistributeResult exchanged;
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "psrs.step4.redistribute", "psrs");
    std::vector<std::vector<seq::MergePiece>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      if (j != rank) outgoing[j].push_back(piece(j));
    }
    exchanged = redistribute_pieces<T>(
        ctx, outgoing,
        [&](u32 src, u64) { return received_name(recv_prefix, src); },
        config.message_records, config.flow_window_chunks);
    report.messages_sent = exchanged.messages;
    report.effective_message_records = exchanged.effective_message_records;
    span.end();
    if (tr) {
      tr->counters().set("psrs.messages_sent", report.messages_sent);
      tr->counters().set("psrs.effective_message_records",
                         report.effective_message_records);
    }
    phase.finish(report.t_redistribute, report.io_redistribute,
                 "psrs.io.redistribute", "step4.redistribute");
    span.arg("blocks", report.io_redistribute);
    span.arg("messages", report.messages_sent);
  }

  // ---- Step 5: final merge of the p sorted runs ------------------------
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "psrs.step5.final_merge", "psrs");
    // Runs: the local partition, still in the sorted file, plus the piece
    // from every peer.
    std::vector<seq::MergePiece> runs;
    u64 slice_records = 0;
    for (u32 j = 0; j < p; ++j) {
      runs.push_back(j == rank ? piece(j) : exchanged.received[j].front());
      slice_records += runs.back().len;
    }
    // Adaptive absorb: the re-split often leaves this node a slice that
    // fits the sequential memory budget outright — merge the runs in one
    // buffered pass instead of the concatenate + multi-pass external
    // merge.  Gated on weights having applied, so static and drift-free
    // runs keep the external merge's exact cost funnel.
    if (!adapt_weights.empty() &&
        slice_records <= config.sequential.memory_records) {
      report.final_records = merge_sorted_pieces_in_memory<T, Less>(
          ctx.disk(), runs, config.output, ctx, less);
    } else {
      report.final_records =
          merge_sorted_pieces<T, Less>(ctx.disk(), runs, config.output,
                                       config.sequential.memory_records, ctx,
                                       less)
              .merged;
    }
    for (const seq::MergePiece& run : runs) ctx.disk().remove(run.file);
    span.end();
    if (tr) tr->counters().set("psrs.records_out", report.final_records);
    phase.finish(report.t_final_merge, report.io_final_merge,
                 "psrs.io.final_merge", "step5.final_merge");
    span.arg("blocks", report.io_final_merge);
    span.arg("records", report.final_records);
  }
  report.t_total = total.seconds();
  return report;
}

}  // namespace paladin::core
