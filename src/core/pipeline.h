// Fused steps 3–5 of Algorithm 1: a single overlapped
// partition → send → merge pipeline.  The phased path materialises p
// partition files, ships them, spills every received run to disk and reads
// all runs back for the merge — ≈ 2·Q/B + 4·l_i/B block I/Os.  Here the
// sorted file is read exactly once (the PartitionStream emits remote
// chunks straight into messages; the local partition self-sends through
// the same mailbox for free) and only the final merged output is written:
// ≈ Q/B + l_i/B, the paper's one-round-trip budget.
//
// Flow control: a sender may have at most `window_chunks` un-acknowledged
// data chunks in flight per destination; the receiver acks each chunk as
// the merge consumes it.  Per-stream end-of-stream markers (empty payloads)
// are credit-exempt and never acked.  Chunks are emitted in ascending
// destination order, which gives the deadlock-freedom argument: consider
// the lowest-numbered stream any blocked node still needs — its sender is
// either past that destination (chunks already delivered), blocked on
// credits that this receiver's merge will return, or itself merge-blocked,
// in which case its cooperative wait loop keeps pumping its own sends.
//
// Determinism: each node runs two logical clocks seeded from its node
// clock — a send-stream clock S (partition compares/moves, sorted-file
// reads, chunk sends, credit waits) and a merge-stream clock M (chunk
// receipts, acks, merge compares/moves, output writes).  Every charge is
// tied to a point in its own stream's deterministic order (the k-th chunk
// to dst, the ack consumed exactly when chunk k+W needs its credit, the
// chunk consumed exactly when the merge needs stream s), never to physical
// arrival order, so both clocks — and the node finish time
// max(S, M) merged back into the node clock — are pure functions of
// (seed, config) regardless of thread scheduling.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/types.h"
#include "core/merge_files.h"
#include "core/partition_file.h"
#include "net/cluster.h"
#include "net/virtual_clock.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/loser_tree.h"

namespace paladin::core {

inline constexpr int kTagPipelineData = 50;
inline constexpr int kTagPipelineAck = 51;

/// What the fused steps 3–5 produced on this node.
struct PipelineOutcome {
  std::vector<u64> partition_sizes;  ///< records sent to each rank (self incl.)
  u64 merged = 0;                    ///< records in the final output file
  u64 data_messages = 0;             ///< data chunks sent (EOS markers excl.)
  double send_finish = 0.0;          ///< send-stream clock at completion
  double merge_finish = 0.0;         ///< merge-stream clock at completion
};

/// Meter pricing compares/moves/seconds like NodeContext but onto an
/// explicit stream clock instead of the node clock.  Under an active
/// drift plan the divisor is the node's effective speed at the stream's
/// current instant; otherwise it is the cached static factor — the exact
/// pre-drift arithmetic.
class StreamMeter final : public Meter {
 public:
  StreamMeter(net::VirtualClock& clock, const net::CostModel& cost,
              const net::NodeContext& node)
      : clock_(&clock), cost_(&cost), node_(&node), speed_(node.speed()) {}

  void on_compares(u64 n) override {
    clock_->advance(static_cast<double>(n) * cost_->per_compare_seconds /
                    speed_now());
  }
  void on_moves(u64 n) override {
    clock_->advance(static_cast<double>(n) * cost_->per_move_seconds /
                    speed_now());
  }
  void on_seconds(double s) override { clock_->advance(s / speed_now()); }

 private:
  double speed_now() const {
    return node_->drift() != nullptr ? node_->speed_at(clock_->now()) : speed_;
  }

  net::VirtualClock* clock_;
  const net::CostModel* cost_;
  const net::NodeContext* node_;
  double speed_;
};

/// Runs the fused partition→send→merge pipeline on one node.
///
/// `sorted_file` is the node's step-2 output (sorted run of l_i records);
/// `pivots` the p−1 global pivots; `message_records` the (already
/// block-multiple) chunk size; `window_chunks` the per-destination credit
/// window.  Writes the node's final partition to `output` and returns the
/// outcome; ctx.clock() advances to max(send stream, merge stream).
template <Record T, typename Less = std::less<T>>
PipelineOutcome pipelined_exchange_merge(net::NodeContext& ctx,
                                         const std::string& sorted_file,
                                         const std::string& output,
                                         std::span<const T> pivots,
                                         u64 message_records, u64 window_chunks,
                                         Less less = {}) {
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  PALADIN_EXPECTS(pivots.size() + 1 == p);
  PALADIN_EXPECTS(message_records >= 1);
  PALADIN_EXPECTS(window_chunks >= 1);

  // Dual logical clocks, both seeded from the node clock (merge() is a
  // max, and a fresh VirtualClock sits at 0).
  net::VirtualClock send_clock;
  net::VirtualClock merge_clock;
  send_clock.merge(ctx.clock().now());
  merge_clock.merge(ctx.clock().now());

  // Disk charges route to whichever stream is executing: pump_send flips
  // `active` to the send clock around the sorted-file reads; everything
  // else (the merge's output writes) lands on the merge clock.  Restored
  // via NodeContext::install_disk_cost_sink() at the end.  Under drift the
  // divisor is the effective speed at the active stream's instant;
  // otherwise the original value-captured divisor (bit-identical path).
  net::VirtualClock* active = &merge_clock;
  if (ctx.drift() != nullptr) {
    const bool scale = ctx.config().cost.scale_disk_with_speed;
    ctx.disk().set_cost_sink([&active, &ctx, scale](double s) {
      active->advance(s / (scale ? ctx.speed_at(active->now()) : 1.0));
    });
  } else {
    const double divisor =
        ctx.config().cost.scale_disk_with_speed ? ctx.speed() : 1.0;
    ctx.disk().set_cost_sink(
        [&active, divisor](double s) { active->advance(s / divisor); });
  }

  StreamMeter send_meter(send_clock, ctx.config().cost, ctx);
  StreamMeter merge_meter(merge_clock, ctx.config().cost, ctx);

  // One span per stream, on its own track, stamped from its own clock.
  // Everything recorded below is a deterministic function of the stream
  // orders (the k-th chunk to dst, the ack consumed when a chunk needs its
  // credit), never of physical arrival order, so traces stay bitwise
  // reproducible.  In particular we do NOT count credit-gate retries: how
  // often try_recv comes back empty depends on thread scheduling.
  obs::Tracer* const tr = ctx.obs();
  obs::Tracer::SpanId send_span = 0;
  obs::Tracer::SpanId merge_span = 0;
  if (tr) {
    send_span = tr->open_at("pipeline.send", "pipeline", send_clock.now(),
                            obs::Track::kSend);
    merge_span = tr->open_at("pipeline.merge", "pipeline", merge_clock.now(),
                             obs::Track::kMerge);
  }

  PipelineOutcome out;

  {
    pdm::BlockFile in = ctx.disk().open(sorted_file);
    pdm::BlockReader<T> reader(in);
    PartitionStream<T, Less> stream(reader, pivots, message_records,
                                    send_meter, less);
    using Event = typename PartitionStream<T, Less>::Event;
    using EventKind = typename PartitionStream<T, Less>::EventKind;

    // Sender state.  One event may be staged when its destination has no
    // credit; pump_send retries it before producing the next.
    std::vector<u64> sent(p, 0);
    std::vector<u64> acked(p, 0);
    std::vector<u8> staged;
    Event staged_event;
    bool have_staged = false;
    bool send_done = false;

    // Drives the send half as far as credits allow.  Returns whether any
    // event shipped (the cooperative-wait loops use this to decide between
    // retrying and parking).  Runs with disk charges routed to the send
    // clock; safe to call re-entrantly from inside the merge's refill wait.
    auto pump_send = [&]() -> bool {
      if (send_done) return false;
      net::VirtualClock* const prev = active;
      active = &send_clock;
      bool progress = false;
      for (;;) {
        if (!have_staged) {
          staged = comm.pool().acquire();
          staged_event = stream.next(staged);
          if (staged_event.kind == EventKind::kDone) {
            comm.pool().release(std::move(staged));
            send_done = true;
            break;
          }
          have_staged = true;
        }
        const u32 dst = staged_event.partition;
        if (staged_event.kind == EventKind::kChunk) {
          // Credit gate: at most window_chunks un-acked chunks per stream.
          // Acks are consumed here — exactly when chunk sent[dst] needs the
          // credit — so the charge point is stream-determined.
          bool stalled = false;
          while (sent[dst] - acked[dst] >= window_chunks) {
            if (comm.try_recv_packet_on(send_clock, dst, kTagPipelineAck)) {
              ++acked[dst];
              if (tr) tr->counters().add("pipeline.acks_consumed", 1);
            } else {
              stalled = true;
              break;
            }
          }
          if (stalled) break;
          comm.isend_payload(send_clock, dst, kTagPipelineData,
                             std::move(staged));
          ++sent[dst];
          ++out.data_messages;
          if (tr) {
            tr->counters().add("pipeline.chunks_sent", 1);
            tr->instant_at("pipeline.chunk->" + std::to_string(dst),
                           "pipeline", send_clock.now(), obs::Track::kSend);
          }
        } else {
          // End-of-stream: empty payload, credit-exempt, never acked.
          PALADIN_ASSERT(staged.empty());
          comm.isend_payload(send_clock, dst, kTagPipelineData,
                             std::move(staged));
          if (tr) tr->counters().add("pipeline.eos_sent", 1);
        }
        have_staged = false;
        progress = true;
      }
      active = prev;
      return progress;
    };

    // Merge half: one network source per rank (the local partition arrives
    // as free self-sends), fed cooperatively by pump_send.  The tree runs
    // the key-cached kernel (seq/loser_tree.h) and each chunk refill
    // prefetches its head (NetworkRunSource::adopt); like the file-backed
    // merges in seq/kway_merge.h it is one serial tree per node.
    std::vector<NetworkRunSource<T>> net_sources;
    net_sources.reserve(p);
    for (u32 s = 0; s < p; ++s) {
      net_sources.emplace_back(comm, merge_clock, s, kTagPipelineData,
                               kTagPipelineAck, pump_send);
    }
    std::vector<NetworkRunSource<T>*> sources;
    for (auto& s : net_sources) sources.push_back(&s);

    pdm::BlockFile out_file = ctx.disk().create(output);
    pdm::BlockWriter<T> writer(out_file);
    {
      seq::LoserTree<T, NetworkRunSource<T>, Less> tree(std::move(sources),
                                                        less, &merge_meter);
      out.merged = tree.pop_run_into(writer);
    }
    writer.flush();
    merge_meter.on_moves(out.merged);

    // The merge finishing means every peer's stream to us closed, but our
    // own tail sends (destinations above our rank) may still be pending —
    // drive them home.  Peers still merging keep returning credits.
    while (!send_done) {
      const u64 seen = comm.inbox_deliveries();
      if (!pump_send()) comm.wait_any_delivery_beyond(seen);
    }
    // Acks for our final ≤ window_chunks chunks per stream may still be in
    // (or headed to) our mailbox; they are dead weight by construction and
    // intentionally left unconsumed.

    out.partition_sizes = stream.sizes();
  }

  // Restore the node-clock sink NodeContext installed, then fold both
  // streams into the node clock: the node is done when its slower stream
  // is.
  ctx.install_disk_cost_sink();
  out.send_finish = send_clock.now();
  out.merge_finish = merge_clock.now();
  if (tr) {
    tr->counters().add("pipeline.records_merged", out.merged);
    tr->arg(send_span, "chunks_sent", out.data_messages);
    tr->arg(merge_span, "records_merged", out.merged);
    tr->close_at(send_span, send_clock.now());
    tr->close_at(merge_span, merge_clock.now());
  }
  ctx.clock().merge(send_clock.now());
  ctx.clock().merge(merge_clock.now());
  return out;
}

}  // namespace paladin::core
