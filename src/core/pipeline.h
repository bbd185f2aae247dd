// Fused steps 3–5 of Algorithm 1: a single overlapped
// partition → send → merge pipeline.  The phased path cuts the sorted file
// in place, ships each partition out of it, spills every received run to
// disk and reads all runs back for the merge — ≈ 4·l_i/B block I/Os.  Here
// the sorted file is read exactly once (the PartitionStream emits remote
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
// Two passes.  Charged in that order on the host, the p merges would run
// one after another: node j's merge cannot start until node j−1's has
// drained.  So each node first moves and merges the data with nothing
// charged, then prices what it did:
//  * The data pass finds the node's p cuts in its sorted file by binary
//    search, sends every partition in PartitionStream's exact chunks (m
//    records from each cut, then an empty end-of-stream) round-robin to all
//    destinations under a host window of `window_chunks` per stream
//    (Communicator::host_send: no clock, no CommStats, no fault framing;
//    a stream out of credits never holds up another), and runs the loser
//    tree into the output file.  Instead of applying
//    them it logs, in order, the merge stream's charges: each source
//    refill, disk cost-sink call and meter call.  All nodes merge at once.
//  * The pricing pass is the charged protocol above.  The send half reads
//    the sorted file again through PartitionStream (charged reads, compares
//    and moves), passes the credit gate and sends real payloads; the merge
//    half replays the log — a refill is the charged receive plus ack with
//    the payload dropped, a disk entry goes through the disk sink's
//    expression on the merge clock, a meter entry through the merge meter.
// A node leaves its data pass only once every chunk it sent there was
// acked, so no uncharged packet outlives the pass and each inbox holds at
// most `window_chunks` chunks per stream, whichever pass they belong to.
//
// Determinism: each node runs two logical clocks seeded from its node
// clock — a send-stream clock S (partition compares/moves, sorted-file
// reads, chunk sends, credit waits) and a merge-stream clock M (chunk
// receipts, acks, merge compares/moves, output writes).  Every charge is
// tied to a point in its own stream's deterministic order (the k-th chunk
// to dst, the ack consumed exactly when chunk k+W needs its credit, the
// chunk consumed exactly when the merge needs stream s), never to physical
// arrival order.  The data pass feeds the merge the same chunks, so its
// log is a pure function of the input, and the pricing pass applies to
// both clocks the operations a single charged pass would, with the same
// arguments in the same order.  Both clocks — and the node finish time
// max(S, M) merged back into the node clock — are therefore pure functions
// of (seed, config) regardless of thread scheduling.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/prefetch.h"
#include "base/types.h"
#include "core/partition_file.h"
#include "core/wire_tags.h"
#include "net/cluster.h"
#include "net/virtual_clock.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/loser_tree.h"

namespace paladin::core {

/// What the fused steps 3–5 produced on this node.
struct PipelineOutcome {
  std::vector<u64> partition_sizes;  ///< records sent to each rank (self incl.)
  u64 merged = 0;                    ///< records in the final output file
  u64 data_messages = 0;             ///< data chunks sent (EOS markers excl.)
  double send_finish = 0.0;          ///< send-stream clock at completion
  double merge_finish = 0.0;         ///< merge-stream clock at completion
};

/// Meter pricing compares/moves/seconds like NodeContext but onto an
/// explicit stream clock instead of the node clock.  The divisor is the
/// node's effective speed at the stream's current instant (speed() when
/// no drift plan is active), the same expression as the node meter's.
class StreamMeter final : public Meter {
 public:
  StreamMeter(net::VirtualClock& clock, const net::CostModel& cost,
              const net::NodeContext& node)
      : clock_(&clock), cost_(&cost), node_(&node) {}

  void on_compares(u64 n) override {
    clock_->advance(static_cast<double>(n) * cost_->per_compare_seconds /
                    node_->speed_at(clock_->now()));
  }
  void on_moves(u64 n) override {
    clock_->advance(static_cast<double>(n) * cost_->per_move_seconds /
                    node_->speed_at(clock_->now()));
  }
  void on_seconds(double s) override {
    clock_->advance(s / node_->speed_at(clock_->now()));
  }

 private:
  net::VirtualClock* clock_;
  const net::CostModel* cost_;
  const net::NodeContext* node_;
};

/// One merge-stream charge as the data pass met it.
struct MergeCharge {
  enum class Kind : u8 { kRefill, kDisk, kCompares, kMoves, kSeconds };
  Kind kind = Kind::kRefill;
  u32 source = 0;        ///< kRefill: the stream's sending rank
  u64 count = 0;         ///< kCompares/kMoves: n
  double seconds = 0.0;  ///< kDisk/kSeconds: the amount charged
};

/// Meter that logs its calls for the pricing pass instead of pricing them.
class LoggingMeter final : public Meter {
 public:
  explicit LoggingMeter(std::vector<MergeCharge>& log) : log_(&log) {}

  void on_compares(u64 n) override {
    log_->push_back({MergeCharge::Kind::kCompares, 0, n, 0.0});
  }
  void on_moves(u64 n) override {
    log_->push_back({MergeCharge::Kind::kMoves, 0, n, 0.0});
  }
  void on_seconds(double s) override {
    log_->push_back({MergeCharge::Kind::kSeconds, 0, 0, s});
  }

 private:
  std::vector<MergeCharge>* log_;
};

/// LoserTree source fed straight from the mailbox by the uncharged host
/// calls: one instance per sending rank, consuming that rank's chunk stream
/// (data chunks carry >= 1 record; an empty payload is end-of-stream).
/// Each consumed data chunk is acknowledged with an empty message on
/// `ack_tag`, which is what returns a window credit to the sender.
///
/// Contract inherited from the tree: peek() may return nullptr only when
/// the stream is permanently exhausted.  Every refill first drives
/// `make_progress` (the owning node's send half), so the node keeps its
/// peers fed while it merges.  A dry-but-open source then *blocks* inside
/// peek(), cooperatively: it drives `make_progress` again and parks on the
/// mailbox only when that reports no progress either — without this two
/// merge-blocked nodes that still owe each other data would deadlock.
/// With a `log`, each refill first appends its kRefill entry.
template <Record T>
class NetworkRunSource {
 public:
  NetworkRunSource(net::Communicator& comm, u32 src, int data_tag, int ack_tag,
                   std::function<bool()> make_progress,
                   std::vector<MergeCharge>* log = nullptr)
      : comm_(&comm),
        src_(src),
        data_tag_(data_tag),
        ack_tag_(ack_tag),
        make_progress_(std::move(make_progress)),
        log_(log) {}

  const T* peek() {
    if (index_ < buffer_.size()) return &buffer_[index_];
    if (exhausted_) return nullptr;
    refill();
    return exhausted_ ? nullptr : &buffer_[index_];
  }

  void advance() {
    PALADIN_EXPECTS(index_ < buffer_.size());
    ++index_;
  }

  /// Fused advance()+peek() (see pdm::BlockReader::advance_peek); the
  /// chunk refill lands at the same point the separate sequence refills.
  const T* advance_peek() {
    PALADIN_EXPECTS(index_ < buffer_.size());
    ++index_;
    if (index_ < buffer_.size()) [[likely]] return &buffer_[index_];
    if (exhausted_) return nullptr;
    refill();
    return exhausted_ ? nullptr : &buffer_[index_];
  }

  /// Records already in memory past the cursor (never refills).
  std::span<const T> buffered() const {
    return std::span<const T>(buffer_).subspan(index_);
  }

  void advance_n(u64 n) {
    PALADIN_EXPECTS(index_ + n <= buffer_.size());
    index_ += static_cast<std::size_t>(n);
  }

 private:
  void refill() {
    if (log_ != nullptr) {
      log_->push_back({MergeCharge::Kind::kRefill, src_, 0, 0.0});
    }
    if (make_progress_) make_progress_();
    for (;;) {
      // Snapshot the delivery count *before* probing: a packet landing
      // between the failed probe and the wait then wakes us immediately.
      const u64 seen = comm_->inbox_deliveries();
      if (std::optional<std::vector<u8>> payload =
              comm_->host_try_recv(src_, data_tag_)) {
        if (payload->empty()) {
          exhausted_ = true;
          return;
        }
        adopt(std::move(*payload));
        comm_->host_send(src_, ack_tag_, {});
        return;
      }
      if (make_progress_ && make_progress_()) continue;
      comm_->wait_any_delivery_beyond(seen);
    }
  }

  void adopt(std::vector<u8> payload) {
    PALADIN_ASSERT(payload.size() % sizeof(T) == 0);
    buffer_.resize(payload.size() / sizeof(T));
    std::memcpy(buffer_.data(), payload.data(), payload.size());
    comm_->pool().release(std::move(payload));
    index_ = 0;
    // Copying a whole chunk just evicted the head from L1; the tree reads
    // it immediately after this refill.
    base::prefetch_read(buffer_.data());
  }

  net::Communicator* comm_;
  u32 src_;
  int data_tag_;
  int ack_tag_;
  std::function<bool()> make_progress_;
  std::vector<MergeCharge>* log_;
  std::vector<T> buffer_;
  std::size_t index_ = 0;
  bool exhausted_ = false;
};

namespace detail {

/// The data pass: ships this node's partitions of `sorted_file` to their
/// destinations and merges the incoming streams into `output`, charging
/// nothing.  Appends the merge stream's charges to `log` in the order a
/// charged merge applies them and returns the records merged.
template <Record T, typename Less>
u64 data_pass(net::NodeContext& ctx, const std::string& sorted_file,
              const std::string& output, std::span<const T> pivots,
              u64 message_records, u64 window_chunks, Less less,
              std::vector<MergeCharge>& log) {
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const pdm::BlockFile in = ctx.disk().open(sorted_file);
  pdm::FileHandle& file = *in.raw_handle();
  PALADIN_ASSERT(in.size_bytes() % sizeof(T) == 0);
  const u64 records = in.size_bytes() / sizeof(T);

  // Partition j is [next[j], end[j]): the records above pivots[j−1] and at
  // or below pivots[j] — PartitionStream's upper_bound tie rule.
  std::vector<u64> next(p, 0);
  std::vector<u64> end(p, records);
  for (u32 j = 0; j + 1 < p; ++j) {
    u64 lo = j == 0 ? 0 : end[j - 1];
    u64 hi = records;
    while (lo < hi) {
      const u64 mid = lo + (hi - lo) / 2;
      T v{};
      file.read_at(mid * sizeof(T),
                   std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(T)));
      if (less(pivots[j], v)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    end[j] = lo;
    next[j + 1] = lo;
  }

  // Send half: round-robin over the destinations, one chunk per stream and
  // sweep while its window has a credit; end-of-stream needs none.
  std::vector<u64> sent(p, 0);
  std::vector<u64> acked(p, 0);
  std::vector<u8> closed(p, 0);
  u32 open = p;
  auto pump = [&]() -> bool {
    bool progress = false;
    for (u32 d = 0; d < p; ++d) {
      while (acked[d] < sent[d] &&
             comm.host_try_recv(d, kTagPipelineHostAck).has_value()) {
        ++acked[d];
        progress = true;
      }
    }
    for (bool moved = open > 0; moved;) {
      moved = false;
      for (u32 d = 0; d < p; ++d) {
        if (closed[d] != 0) continue;
        if (next[d] == end[d]) {
          comm.host_send(d, kTagPipelineHostData, {});
          closed[d] = 1;
          --open;
          moved = true;
          continue;
        }
        if (sent[d] - acked[d] >= window_chunks) continue;
        const u64 n = std::min(message_records, end[d] - next[d]);
        std::vector<u8> payload = comm.pool().acquire();
        payload.resize(n * sizeof(T));
        file.read_at(next[d] * sizeof(T), payload);
        comm.host_send(d, kTagPipelineHostData, std::move(payload));
        next[d] += n;
        ++sent[d];
        moved = true;
      }
      progress = progress || moved;
    }
    return progress;
  };

  std::vector<NetworkRunSource<T>> net_sources;
  net_sources.reserve(p);
  for (u32 s = 0; s < p; ++s) {
    net_sources.emplace_back(comm, s, kTagPipelineHostData,
                             kTagPipelineHostAck, pump, &log);
  }
  std::vector<NetworkRunSource<T>*> sources;
  for (auto& s : net_sources) sources.push_back(&s);

  // The output writes are the merge stream's only disk traffic.
  ctx.disk().set_cost_sink([&log](double s) {
    log.push_back({MergeCharge::Kind::kDisk, 0, 0, s});
  });
  LoggingMeter meter(log);
  u64 merged = 0;
  {
    pdm::BlockFile out_file = ctx.disk().create(output);
    pdm::BlockWriter<T> writer(out_file);
    {
      seq::LoserTree<T, NetworkRunSource<T>, Less> tree(std::move(sources),
                                                        less, &meter);
      merged = tree.pop_run_into(writer);
    }
    writer.flush();
  }
  meter.on_moves(merged);
  ctx.install_disk_cost_sink();

  // The merge finishing means every stream to us closed; drive our own
  // tail home and collect every ack, so no uncharged packet is left for
  // the pricing pass (or the harvest-time inbox sweep) to meet.
  auto drained = [&] {
    if (open > 0) return false;
    for (u32 d = 0; d < p; ++d) {
      if (acked[d] < sent[d]) return false;
    }
    return true;
  };
  while (!drained()) {
    const u64 seen = comm.inbox_deliveries();
    if (!pump()) comm.wait_any_delivery_beyond(seen);
  }
  return merged;
}

}  // namespace detail

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

  PipelineOutcome out;
  std::vector<MergeCharge> log;
  out.merged = detail::data_pass<T, Less>(ctx, sorted_file, output, pivots,
                                          message_records, window_chunks,
                                          less, log);

  // ---- Pricing pass ----------------------------------------------------
  // Dual logical clocks, both seeded from the node clock (merge() is a
  // max, and a fresh VirtualClock sits at 0).
  net::VirtualClock send_clock;
  net::VirtualClock merge_clock;
  send_clock.merge(ctx.clock().now());
  merge_clock.merge(ctx.clock().now());

  // Disk charges: the sorted-file reads land on the send clock through the
  // sink; the logged output writes replay onto the merge clock through the
  // same expression.  The divisor is the effective speed at the charged
  // stream's instant, as in the node-clock sink NodeContext installed,
  // which install_disk_cost_sink() restores at the end.
  const bool scale = ctx.config().cost.scale_disk_with_speed;
  auto charge_disk = [&ctx, scale](net::VirtualClock& clk, double s) {
    clk.advance(s / (scale ? ctx.speed_at(clk.now()) : 1.0));
  };
  ctx.disk().set_cost_sink(
      [&charge_disk, &send_clock](double s) { charge_disk(send_clock, s); });

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
    // retrying and parking).
    auto pump_send = [&]() -> bool {
      if (send_done) return false;
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
      return progress;
    };

    // Merge half: replay the data pass's log.  A refill consumes the
    // stream's next message exactly as the merge did (charged receive, ack
    // for a data chunk) and drops the payload the data pass already merged.
    for (const MergeCharge& c : log) {
      switch (c.kind) {
        case MergeCharge::Kind::kRefill:
          for (;;) {
            const u64 seen = comm.inbox_deliveries();
            if (std::optional<net::Packet> pkt = comm.try_recv_packet_on(
                    merge_clock, c.source, kTagPipelineData)) {
              if (!pkt->payload.empty()) {
                comm.pool().release(std::move(pkt->payload));
                comm.isend_payload(merge_clock, c.source, kTagPipelineAck,
                                   {});
              }
              break;
            }
            if (!pump_send()) comm.wait_any_delivery_beyond(seen);
          }
          break;
        case MergeCharge::Kind::kDisk:
          charge_disk(merge_clock, c.seconds);
          break;
        case MergeCharge::Kind::kCompares:
          merge_meter.on_compares(c.count);
          break;
        case MergeCharge::Kind::kMoves:
          merge_meter.on_moves(c.count);
          break;
        case MergeCharge::Kind::kSeconds:
          merge_meter.on_seconds(c.seconds);
          break;
      }
    }

    // The replay finishing means every peer's stream to us closed, but our
    // own tail sends (destinations above our rank) may still be pending —
    // drive them home.  Peers still replaying keep returning credits.
    while (!send_done) {
      const u64 seen = comm.inbox_deliveries();
      if (!pump_send()) comm.wait_any_delivery_beyond(seen);
    }
    // Acks for our final ≤ window_chunks chunks per stream may still be in
    // (or headed to) our mailbox; they are dead weight by construction and
    // intentionally left unconsumed.

    out.partition_sizes = stream.sizes();
  }

  // Restore the node-clock sink, then fold both streams into the node
  // clock: the node is done when its slower stream is.
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
