// Algorithm 1 of the paper: external Parallel Sorting by Regular Sampling
// for clusters with processors at different speed.  Runs as an SPMD body on
// every node of a paladin::net::Cluster:
//
//   Step 1  sequential external sort of the node's share (polyphase);
//   Step 2  regular sampling of the sorted file — one seek per sample at
//           the paper's rate, one pass over the file when the samples
//           outnumber its blocks (core/sampling.h); a designated node sorts
//           the p·Σperf − p samples and broadcasts the p−1 perf-weighted
//           pivots (core::select_splitters; under adaptation, pivots at the
//           observed weights from a denser sample; the draw and the merge
//           stay the same);
//   Step 3  binary partitioning: the p+1 cut offsets of the sorted file,
//           found by binary search in place;
//   Step 4  redistribution — partition j travels to node j straight from
//           the sorted file, in block-multiple messages;
//   Step 5  final merge of the node's own partition with the p−1 received
//           runs, freeing each run behind the merge (core/merge_files.h).
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
#include "core/redistribute.h"
#include "core/sampling.h"
#include "core/splitter_tree.h"
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
  /// Node that sorts the samples and selects pivots.  A constant that
  /// perfbench's composed run reads; it goes with that run.
  static constexpr u32 designated_node = 0;
  /// Steps 3–5 always run phased; perfbench's composed run checks this
  /// flag, and it goes with that run.
  static constexpr bool pipelined = true;
  /// Per-destination credit window of the Step 4 exchange.  A constant that
  /// perfbench's composed run reads; it goes with that run.
  static constexpr u64 flow_window_chunks = kDefaultFlowWindow;
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
  /// Always 0: perfbench's composed run adds it to the Steps 3–5 total,
  /// and it goes with that run.
  static constexpr double t_pipeline = 0.0;

  // Block I/O per step (this node's disk).
  u64 io_seq_sort = 0;
  u64 io_sampling = 0;
  u64 io_partition = 0;
  u64 io_redistribute = 0;
  u64 io_final_merge = 0;
};

/// SPMD body: sorts the cluster-wide dataset whose share on this node is
/// `config.input`; on return `config.output` holds this node's globally
/// contiguous slice (node 0's output precedes node 1's, etc.).
template <Record T, typename Less = std::less<T>>
ExtPsrsReport ext_psrs_sort(net::NodeContext& ctx,
                            const hetero::PerfVector& perf,
                            const ExtPsrsConfig& config, Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  constexpr u32 root = ExtPsrsOptions::designated_node;

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
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, report.local_records, root);
    if (ad.applied) adapt_weights = ad.weights;
  }

  // ---- Step 2: regular sampling & pivot selection ---------------------
  const PhaseTimer sampling(bc);
  std::vector<T> pivots;
  {
    obs::ScopedSpan span(tr, "psrs.step2.sampling", "psrs");
    // Adaptive weights replace the static perf quantiles and always take
    // the flat path (the tree's digests reduce integer perf masses only —
    // see docs/ALGORITHM.md §Adaptive re-split).  They also densify the
    // regular sample: the oversample-1 sample only offers cut points at the
    // static perf quantiles, which quantises a weighted cut like 1/13 back
    // to ~1/p and leaves the re-split a no-op
    // (hetero::kAdaptResampleOversample).
    const bool adapt = !adapt_weights.empty();
    const bool tree = !adapt && splitter_uses_tree(config.splitter, p);
    u64 oversample = config.sampling_oversample;
    if (adapt) {
      const u64 cap =
          std::max<u64>(n / (perf.sum() * static_cast<u64>(p)), 1);
      oversample =
          std::min(std::max(oversample, hetero::kAdaptResampleOversample),
                   std::max(cap, oversample));
    }
    const PsrsSampling density = psrs_sampling(perf, n, oversample, tree);
    std::vector<T> samples;
    {
      pdm::BlockFile f = ctx.disk().open(sorted_local);
      pdm::BlockReader<T> reader(f);
      samples = draw_regular_sample<T>(reader, density.stride);
    }
    if (!tree) {
      PALADIN_ASSERT(samples.size() ==
                     perf.sample_count(rank, n, density.oversample));
    }
    report.samples_contributed = samples.size();
    pivots = select_splitters<T>(
        ctx, std::move(samples),
        [&](u64 pool) {
          return adapt ? weight_ranks(adapt_weights, pool)
                       : psrs_pivot_targets(perf, density.oversample);
        },
        tree, /*sorted=*/true, /*unique=*/false, perf.sum(), less);
    PALADIN_ASSERT(pivots.size() == p - 1);
  }
  if (tr) tr->counters().set("psrs.samples", report.samples_contributed);
  sampling.finish(report.t_sampling, report.io_sampling, "psrs.io.sampling",
                  "step2.sampling");

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
        config.message_records);
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
    for (u32 j = 0; j < p; ++j) {
      runs.push_back(j == rank ? piece(j) : exchanged.received[j].front());
    }
    report.final_records =
        merge_sorted_pieces<T, Less>(ctx.disk(), runs, config.output,
                                     config.sequential.memory_records, ctx,
                                     less)
            .merged;
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

/// What pipelined_exchange_merge produced on this node.
struct PipelineOutcome {
  u64 merged = 0;  ///< records in the final output file
};

/// Steps 3–5 of ext_psrs_sort as one call, for perfbench's composed run,
/// which stamps host time around each step; it goes with that run.  Cuts
/// `sorted_file` at the pivots, ships the pieces with the Step 4 exchange
/// and merges them into `output` in one pass, exactly as ext_psrs_sort
/// does whenever p ≤ M/B − 1.  Removes the landing files but not
/// `sorted_file`, which the caller removes.  `window_chunks` must be the
/// exchange's one credit window, kDefaultFlowWindow.
template <Record T, typename Less = std::less<T>>
PipelineOutcome pipelined_exchange_merge(net::NodeContext& ctx,
                                         const std::string& sorted_file,
                                         const std::string& output,
                                         std::span<const T> pivots,
                                         u64 message_records, u64 window_chunks,
                                         Less less = {}) {
  PALADIN_EXPECTS(window_chunks == kDefaultFlowWindow);
  const u32 p = ctx.comm().size();
  const u32 rank = ctx.comm().rank();
  const std::vector<u64> cuts = file_partition_cuts<T, Less>(
      ctx.disk(), sorted_file, pivots, ctx, less);
  const auto piece = [&](u32 j) {
    return seq::MergePiece{sorted_file, cuts[j], cuts[j + 1] - cuts[j]};
  };
  std::vector<std::vector<seq::MergePiece>> outgoing(p);
  for (u32 j = 0; j < p; ++j) {
    if (j != rank) outgoing[j].push_back(piece(j));
  }
  const std::string recv_prefix = output + ".step4";
  const RedistributeResult exchanged = redistribute_pieces<T>(
      ctx, outgoing,
      [&](u32 src, u64) { return received_name(recv_prefix, src); },
      message_records);
  std::vector<seq::MergePiece> runs;
  for (u32 j = 0; j < p; ++j) {
    runs.push_back(j == rank ? piece(j) : exchanged.received[j].front());
  }
  // A block buffer per run plus one for the output: always one pass.
  const u64 one_pass_memory =
      (u64{p} + 1) * ctx.disk().params().records_per_block(sizeof(T));
  PipelineOutcome out;
  out.merged = merge_sorted_pieces<T, Less>(ctx.disk(), runs, output,
                                            one_pass_memory, ctx, less)
                   .merged;
  for (u32 j = 0; j < p; ++j) {
    if (j != rank) ctx.disk().remove(runs[j].file);
  }
  return out;
}

}  // namespace paladin::core
