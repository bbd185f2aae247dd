// Multiway external merge sort — Rahn–Sanders–Singler, "Scalable
// Distributed-Memory External Sorting" (ICDE 2010), adapted to the
// heterogeneous simulated cluster.  Structurally the opposite of external
// PSRS: where Algorithm 1 finishes the local sort *before* any data moves
// (sort → sample sorted data → partition → exchange → p-way merge), this
// backend moves data after only one local pass and merges *everything*
// once:
//
//   Phase 1  run formation — one streaming pass turns the local share into
//            ~l_i/M memory-sized sorted runs (no local merge passes);
//   Phase 2  oversampled random splitters — each node samples its unsorted
//            input perf-proportionally; node 0 cuts the pooled sample at
//            the perf quantiles and broadcasts p−1 cut keys, with the
//            Axtmann–Sanders duplicate-robust dedup (select_sample_splitters
//            and core::select_splitters' `unique` mode);
//   Phase 3  one redistribution — every run is cut at the splitters by
//            the block search of core/partition_file.h *in the runs file*
//            (no partition copy on disk; at most ⌈log2(blocks + 1)⌉ + 1
//            block reads per splitter and run), and the R run pieces for
//            each peer go through the shared spill exchange
//            (core/redistribute.h: block-multiple, credit-windowed
//            messages), landing back to back in one file per source;
//   Phase 4  one global multiway merge — a single loser-tree pass over all
//            R·p surviving run pieces (core/merge_files.h's
//            merge_sorted_pieces) produces the node's contiguous sorted
//            slice.  No polyphase, no per-step intermediate sort.
//
// I/O per node ≈ 2 passes for run formation + 1 read + 1 write around the
// wire + 1 merge pass — the "just over two scans" shape the ICDE paper
// targets, versus external PSRS's sort-then-merge profile.  When the
// memory budget can neither buffer one block per piece (fan-in R·p exceeds
// max_fan_in at tiny test geometries) nor hold the pieces outright,
// merge_sorted_pieces degrades to the balanced multi-pass fallback.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/merge_files.h"
#include "core/partition_file.h"
#include "core/redistribute.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/kway_merge.h"
#include "seq/run_formation.h"

namespace paladin::core {

/// This backend's constants (the common core is BackendConfig).
struct ExtMultiwayOptions {
  /// Random samples drawn per unit of perf (node i draws
  /// oversample·p·perf[i], clamped to its share).  Larger than the
  /// distribution sort's: splitters here are final — there is no
  /// per-owner full sort afterwards to absorb imbalance.
  static constexpr u32 oversample = 32;
};

struct ExtMultiwayConfig : BackendConfig, ExtMultiwayOptions {};

struct ExtMultiwayReport : BackendReport {
  u64 initial_runs = 0;         ///< sorted runs after Phase 1
  u64 samples_contributed = 0;  ///< this node's share of the pooled sample
  u64 messages_sent = 0;        ///< Phase 3 data messages
  u64 effective_message_records = 0;  ///< message_records after clamping
  u64 merge_fan_in = 0;   ///< non-empty run pieces entering Phase 4
  u64 merge_passes = 0;   ///< 1 normally; >1 in the degenerate fallback

  // Virtual seconds / block I/O per phase (this node).
  double t_run_formation = 0.0;
  double t_splitters = 0.0;
  double t_exchange = 0.0;
  double t_merge = 0.0;
  u64 io_run_formation = 0;
  u64 io_splitters = 0;
  u64 io_exchange = 0;
  u64 io_merge = 0;
};

/// SPMD body: sorts the cluster-wide dataset whose share on this node is
/// `config.input`; on return `config.output` holds this node's globally
/// contiguous slice (node 0's output precedes node 1's, etc.).  Unlike
/// PSRS the share layout need not satisfy Equation 2 — the perf vector
/// only weights the splitter quantiles.
template <Record T, typename Less = std::less<T>>
ExtMultiwayReport ext_multiway_sort(net::NodeContext& ctx,
                                    const hetero::PerfVector& perf,
                                    const ExtMultiwayConfig& config,
                                    Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();

  BackendContext bc(ctx, perf, config);
  obs::Tracer* const tr = ctx.obs();

  ExtMultiwayReport report;
  report.local_records = ctx.disk().file_records<T>(config.input);
  if (tr) tr->counters().set("multiway.records_in", report.local_records);

  const PhaseTimer total(bc);
  obs::ScopedSpan sort_span(tr, "multiway.sort", "multiway");

  // ---- Phase 1: run formation (one pass, no local merge) --------------
  const std::string runs_file = config.output + ".mwruns";
  seq::RunLayout runs;
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase1.run_formation", "multiway");
    pdm::BlockFile in = ctx.disk().open(config.input);
    pdm::BlockReader<T> reader(in);
    pdm::BlockFile out = ctx.disk().create(runs_file);
    pdm::BlockWriter<T> writer(out);
    runs = seq::form_runs<T, Less>(config.sequential.run_formation, reader,
                                   writer, config.sequential.memory_records,
                                   ctx, less);
    span.end();
    report.initial_runs = runs.run_count();
    if (tr) tr->counters().set("multiway.initial_runs", report.initial_runs);
    phase.finish(report.t_run_formation, report.io_run_formation,
                 "multiway.io.run_formation", "phase1.run_formation");
    span.arg("runs", report.initial_runs);
    span.arg("blocks", report.io_run_formation);
  }

  if (p == 1) {
    // Degenerate single-node "cluster": Phase 4 directly on the runs.
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase4.merge", "multiway");
    report.merge_fan_in = runs.run_count();
    report.merge_passes = std::max<u64>(
        seq::merge_runs_balanced<T, Less>(ctx.disk(), runs_file, runs,
                                          config.output,
                                          config.sequential.memory_records,
                                          ctx, less),
        runs.run_count() > 0 ? 1 : 0);
    ctx.disk().remove(runs_file);
    span.end();
    report.final_records = report.local_records;
    if (tr) tr->counters().set("multiway.records_out", report.final_records);
    phase.finish(report.t_merge, report.io_merge, "multiway.io.merge",
                 "phase4.merge");
    report.t_total = total.seconds();
    span.arg("blocks", report.io_merge);
    return report;
  }

  // ---- Adaptive re-estimation (hetero/drift.h) ------------------------
  // Phase 1 (run formation) is the backend's big up-front local phase;
  // probe effective speeds after it and re-split the exchange targets
  // with the observed speed shares if they moved beyond the deadband.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled) {
    obs::ScopedSpan span(tr, "multiway.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, report.local_records, 0);
    if (ad.applied) adapt_weights = ad.weights;
  }

  // ---- Phase 2: oversampled random splitters --------------------------
  std::vector<T> splitters;
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase2.splitters", "multiway");
    const u64 want = std::min<u64>(
        report.local_records,
        static_cast<u64>(config.oversample) * p * perf[rank]);
    std::vector<T> sample =
        draw_random_sample<T>(ctx, config.input, want);
    report.samples_contributed = sample.size();
    splitters = select_sample_splitters<T, Less>(
        bc, std::move(sample), p - 1, &perf, /*unique_splitters=*/true, less,
        adapt_weights.empty() ? nullptr : &adapt_weights);
    span.end();
    if (tr) tr->counters().set("multiway.samples", report.samples_contributed);
    phase.finish(report.t_splitters, report.io_splitters,
                 "multiway.io.splitters", "phase2.splitters");
    span.arg("samples", report.samples_contributed);
    span.arg("blocks", report.io_splitters);
  }

  // ---- Phase 3: cut every run at the splitters; exchange the pieces ----
  // cuts[r][j] = absolute record offset (in the runs file) where run r's
  // piece for node j begins; cuts[r][p] = run end.  Every run's piece for
  // node j travels to j and lands back to back with src's other pieces in
  // `<output>.mwrecv.from<src>`.
  const std::string recv_prefix = config.output + ".mwrecv";
  std::vector<std::vector<u64>> cuts(runs.run_count());
  RedistributeResult exchanged;
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase3.exchange", "multiway");
    {
      // Cut before the records equal to each splitter (lower_bound): with
      // the upper_bound routing convention of route_file_by_splitters, a
      // record equal to splitter j−1 goes to partition j, even where dedup
      // left fewer splitters than p−1 (the missing partitions are empty).
      const auto at_or_below = [less](const T& a, const T& b) {
        return !less(b, a);
      };
      u64 run_start = 0;
      for (u64 r = 0; r < runs.run_count(); ++r) {
        const u64 run_end = run_start + runs.run_lengths[r];
        cuts[r] = file_partition_cuts<T>(ctx.disk(), runs_file,
                                         std::span<const T>(splitters), ctx,
                                         at_or_below, run_start, run_end);
        cuts[r].resize(p + 1, run_end);
        run_start = run_end;
      }
    }

    std::vector<std::vector<seq::MergePiece>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      if (j == rank) continue;
      for (u64 r = 0; r < runs.run_count(); ++r) {
        outgoing[j].push_back(
            {runs_file, cuts[r][j], cuts[r][j + 1] - cuts[r][j]});
      }
    }
    exchanged = redistribute_pieces<T>(
        ctx, outgoing,
        [&](u32 src, u64) { return received_name(recv_prefix, src); },
        config.message_records);
    report.messages_sent = exchanged.messages;
    report.effective_message_records = exchanged.effective_message_records;
    span.end();
    if (tr) {
      tr->counters().set("multiway.messages_sent", report.messages_sent);
      tr->counters().set("multiway.effective_message_records",
                         report.effective_message_records);
    }
    phase.finish(report.t_exchange, report.io_exchange, "multiway.io.exchange",
                 "phase3.exchange");
    span.arg("blocks", report.io_exchange);
    span.arg("messages", report.messages_sent);
  }

  // ---- Phase 4: one global multiway merge over all surviving pieces ----
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase4.merge", "multiway");
    std::vector<seq::MergePiece> pieces;
    for (u64 r = 0; r < runs.run_count(); ++r) {
      const u64 len = cuts[r][rank + 1] - cuts[r][rank];
      if (len > 0) pieces.push_back({runs_file, cuts[r][rank], len});
    }
    for (u32 off = 1; off < p; ++off) {
      for (const seq::MergePiece& piece :
           exchanged.received[(rank + p - off) % p]) {
        if (piece.len > 0) pieces.push_back(piece);
      }
    }
    report.merge_fan_in = pieces.size();
    // The headline single pass: one merge over all pieces straight to the
    // output file, with the balanced fallback when the memory budget
    // cannot buffer one block per piece.
    const MergeOutcome merged = merge_sorted_pieces<T, Less>(
        ctx.disk(), pieces, config.output, config.sequential.memory_records,
        ctx, less);
    report.final_records = merged.merged;
    report.merge_passes = merged.passes;

    ctx.disk().remove(runs_file);
    for (const std::vector<seq::MergePiece>& landed : exchanged.received) {
      if (!landed.empty()) ctx.disk().remove(landed.front().file);
    }
    span.end();
    if (tr) {
      tr->counters().set("multiway.records_out", report.final_records);
      tr->counters().set("multiway.merge_fan_in", report.merge_fan_in);
    }
    phase.finish(report.t_merge, report.io_merge, "multiway.io.merge",
                 "phase4.merge");
    span.arg("blocks", report.io_merge);
    span.arg("records", report.final_records);
    span.arg("fan_in", report.merge_fan_in);
  }
  report.t_total = total.seconds();
  return report;
}

}  // namespace paladin::core
