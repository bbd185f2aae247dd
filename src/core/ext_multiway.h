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
//            input perf-proportionally; a designated node sorts the pooled
//            sample and broadcasts p−1 perf-weighted cut keys (with the
//            Axtmann–Sanders duplicate-robust dedup, see
//            select_sample_splitters);
//   Phase 3  one redistribution — every run is cut at the splitters by
//            binary search *in the runs file* (no partition copy on disk),
//            and the run pieces travel to their owners in block-multiple,
//            credit-windowed messages, spilling to one file per source;
//   Phase 4  one global multiway merge — a single loser-tree pass over all
//            R·p surviving run pieces produces the node's contiguous
//            sorted slice.  No polyphase, no per-step intermediate sort.
//
// I/O per node ≈ 2 passes for run formation + 1 read + 1 write around the
// wire + 1 merge pass — the "just over two scans" shape the ICDE paper
// targets, versus external PSRS's sort-then-merge profile.  When the
// memory budget cannot buffer one block per piece (fan-in R·p exceeds
// max_fan_in at tiny test geometries) the merge degrades to the balanced
// multi-pass fallback, exactly like core/merge_files.h.
//
// Deadlock-freedom of Phase 3 is the redistribute.h argument verbatim: the
// exchange runs in p−1 lockstep offset phases; within a phase the pair
// moves chunks in rounds under a W-chunk credit window, so every wait is
// on a lexicographically smaller (phase, round, part) position of the
// partner.  Mailbox occupancy stays O(W · message_bytes) per pair.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/redistribute.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/parallel_merge.h"
#include "seq/run_formation.h"

namespace paladin::core {

/// Knobs specific to this backend (the common core is BackendConfig).
struct ExtMultiwayOptions {
  /// Random samples drawn per unit of perf (node i draws
  /// oversample·p·perf[i], clamped to its share).  Larger than the
  /// distribution sort's default: splitters here are final — there is no
  /// per-owner full sort afterwards to absorb imbalance.
  u32 oversample = 32;
  /// Node that sorts the pooled sample and broadcasts the splitters.
  u32 designated_node = 0;
  /// Deduplicate the sorted sample before cutting (Axtmann–Sanders robust
  /// splitter selection).  Keeps heavy duplicate mass from collapsing
  /// several splitters onto one key; see select_sample_splitters.  On the
  /// tree path (BackendConfig::splitter) the dedup runs per level in
  /// unique-value space — core/splitter_tree.h's merge_equal mode.
  bool unique_splitters = true;
  /// Per-pair credit window during the run-piece exchange.
  u64 flow_window_chunks = kDefaultFlowWindow;
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

namespace detail {

/// First record index in [lo, hi) of `reader`'s file that is not less than
/// `key` — std::lower_bound over on-disk records, one seek+read per probe.
/// Together with the upper_bound-over-splitters routing convention this
/// sends a record equal to splitter j−1 to partition j (ties route above
/// the splitter), so the file cuts agree exactly with
/// route_file_by_splitters even when dedup left equal splitters.
template <Record T, typename Less>
u64 file_lower_bound(pdm::BlockReader<T>& reader, u64 lo, u64 hi,
                     const T& key, Meter& meter, Less less) {
  u64 compares = 0;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    reader.seek_record(mid);
    T v;
    const bool ok = reader.next(v);
    PALADIN_ASSERT(ok);
    ++compares;
    if (less(v, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  meter.on_compares(compares);
  return lo;
}

}  // namespace detail

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
  PALADIN_EXPECTS(config.designated_node < ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  constexpr int kTagHeader = 70;
  constexpr int kTagData = 71;
  constexpr int kTagAck = 72;

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
                                          ctx, less,
                                          config.sequential.merge),
        runs.run_count() > 0 ? 1 : 0);
    if (!config.keep_intermediates) ctx.disk().remove(runs_file);
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
  // with the blended weights if they moved beyond the deadband.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled) {
    obs::ScopedSpan span(tr, "multiway.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, config.adaptive, report.local_records,
                            config.designated_node);
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
        bc, std::move(sample), p - 1, &perf, config.unique_splitters,
        config.designated_node, less,
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
  // piece for node j begins; cuts[r][p] = run end.
  const std::string recv_prefix = config.output + ".mwrecv";
  std::vector<std::vector<u64>> cuts(runs.run_count());
  std::vector<seq::RunLayout> recv_runs(p);  // piece lengths per source
  {
    const PhaseTimer phase(bc);
    obs::ScopedSpan span(tr, "multiway.phase3.exchange", "multiway");
    {
      pdm::BlockFile f = ctx.disk().open(runs_file);
      pdm::BlockReader<T> reader(f);
      u64 run_start = 0;
      for (u64 r = 0; r < runs.run_count(); ++r) {
        const u64 run_end = run_start + runs.run_lengths[r];
        cuts[r].assign(p + 1, run_end);
        cuts[r][0] = run_start;
        for (u32 j = 1; j <= splitters.size(); ++j) {
          // Cuts are monotone in j, so each search starts at the previous
          // cut instead of the run start.
          cuts[r][j] = detail::file_lower_bound<T, Less>(
              reader, cuts[r][j - 1], run_end, splitters[j - 1], ctx, less);
        }
        run_start = run_end;
      }
    }

    const u64 msg =
        clamped_message_records<T>(ctx.disk(), config.message_records);
    report.effective_message_records = msg;
    std::vector<T> chunk;
    chunk.reserve(msg);
    for (u32 offset = 1; offset < p; ++offset) {
      const u32 dst = (rank + offset) % p;
      const u32 src = (rank + p - offset) % p;

      // Per-run piece lengths as the pair header, both directions.
      std::vector<u64> send_pieces(runs.run_count());
      u64 send_total = 0;
      u64 send_chunks = 0;
      for (u64 r = 0; r < runs.run_count(); ++r) {
        send_pieces[r] = cuts[r][dst + 1] - cuts[r][dst];
        send_total += send_pieces[r];
        send_chunks += ceil_div(send_pieces[r], msg);
      }
      comm.template send_records<u64>(dst, kTagHeader, send_pieces);
      const std::vector<u64> recv_pieces =
          comm.template recv_records<u64>(src, kTagHeader);
      u64 recv_total = 0;
      u64 recv_chunks = 0;
      for (const u64 len : recv_pieces) {
        recv_total += len;
        recv_chunks += ceil_div(len, msg);
      }
      recv_runs[src].run_lengths = recv_pieces;
      recv_runs[src].total_records = recv_total;

      pdm::BlockFile f = ctx.disk().open(runs_file);
      pdm::BlockReader<T> reader(f);
      pdm::BlockFile rf = ctx.disk().create(received_name(recv_prefix, src));
      pdm::BlockWriter<T> writer(rf);

      // Sender-side walk over this destination's pieces, in run order.
      u64 send_run = 0;
      u64 piece_left = 0;
      u64 sent = 0;
      u64 got = 0;
      const u64 rounds = std::max(send_chunks, recv_chunks);
      for (u64 k = 0; k < rounds; ++k) {
        if (k < send_chunks) {
          if (k >= config.flow_window_chunks) {
            comm.recv_packet(dst, kTagAck);  // credit: chunk k−W consumed
            if (tr) tr->counters().add("multiway.acks_consumed", 1);
          }
          while (piece_left == 0) {
            PALADIN_ASSERT(send_run < runs.run_count());
            piece_left = send_pieces[send_run];
            if (piece_left > 0) reader.seek_record(cuts[send_run][dst]);
            ++send_run;
          }
          const u64 take = std::min(msg, piece_left);
          chunk.resize(take);
          const u64 read = reader.read_span(std::span<T>(chunk));
          PALADIN_ASSERT(read == take);
          comm.template send_records<T>(dst, kTagData, chunk);
          ++report.messages_sent;
          piece_left -= take;
          sent += take;
          if (tr) tr->counters().add("multiway.chunks_sent", 1);
        }
        if (k < recv_chunks) {
          std::vector<T> data = comm.template recv_records<T>(src, kTagData);
          PALADIN_ASSERT(!data.empty());
          writer.push_span(std::span<const T>(data));
          got += data.size();
          comm.send_value<u8>(src, kTagAck, 0);
          if (tr) tr->counters().add("multiway.acks_sent", 1);
        }
      }
      writer.flush();
      chunk.clear();
      PALADIN_ASSERT(sent == send_total);
      PALADIN_ASSERT(got == recv_total);
    }
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
      const u32 src = (rank + p - off) % p;
      const std::string name = received_name(recv_prefix, src);
      u64 pos = 0;
      for (const u64 len : recv_runs[src].run_lengths) {
        if (len > 0) pieces.push_back({name, pos, len});
        pos += len;
      }
    }
    report.merge_fan_in = pieces.size();

    const u64 fan_in =
        seq::max_fan_in<T>(ctx.disk(), config.sequential.memory_records);
    if (pieces.empty()) {
      pdm::BlockFile out = ctx.disk().create(config.output);
      pdm::BlockWriter<T> writer(out);
      writer.flush();
      report.final_records = 0;
    } else if (pieces.size() <= fan_in) {
      // The headline single pass: one merge over all pieces straight to
      // the output file (parallel engine per config.sequential.merge; one
      // block buffer per piece either way).
      pdm::BlockFile out = ctx.disk().create(config.output);
      pdm::BlockWriter<T> writer(out);
      const seq::MergeResult r = seq::merge_pieces<T, Less>(
          ctx.disk(), pieces, writer, ctx, less, config.sequential.merge);
      writer.flush();
      ctx.on_moves(r.merged);
      if (r.tail_compares > 0) ctx.on_compares(r.tail_compares);
      report.final_records = r.merged;
      report.merge_passes = 1;
    } else {
      // Degenerate memory budget (fan-in exceeds the block buffers M can
      // hold): concatenate the pieces into one runs file and fall back to
      // the balanced multi-pass merge, as core/merge_files.h does.
      const std::string cat = config.output + ".mwcat";
      seq::RunLayout cat_layout;
      {
        pdm::BlockFile out = ctx.disk().create(cat);
        pdm::BlockWriter<T> writer(out);
        for (const seq::MergePiece& piece : pieces) {
          pdm::BlockFile f = ctx.disk().open(piece.file);
          pdm::BlockReader<T> reader(f);
          reader.seek_record(piece.offset);
          const u64 copied = pdm::copy_records(reader, writer, piece.len);
          PALADIN_ASSERT(copied == piece.len);
          ctx.on_moves(copied);
          cat_layout.run_lengths.push_back(copied);
          cat_layout.total_records += copied;
        }
        writer.flush();
      }
      report.merge_passes = 1 + seq::merge_runs_balanced<T, Less>(
                                    ctx.disk(), cat, cat_layout,
                                    config.output,
                                    config.sequential.memory_records, ctx,
                                    less, config.sequential.merge);
      ctx.disk().remove(cat);
      report.final_records = ctx.disk().file_records<T>(config.output);
    }

    if (!config.keep_intermediates) {
      ctx.disk().remove(runs_file);
      for (u32 off = 1; off < p; ++off) {
        const u32 src = (rank + p - off) % p;
        ctx.disk().remove(received_name(recv_prefix, src));
      }
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
