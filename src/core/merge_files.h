// Step 5, and the spill merge of every backend: merge sorted pieces (file,
// offset, length) into one output file.  Single-pass (loser tree over one
// cursor per piece) when the memory budget admits the fan-in — always true
// for the p ≤ m−1 clusters the paper targets — otherwise the pieces are
// concatenated as runs and merged with the balanced multi-pass machinery.
// The file also holds the fused pipeline's network merge source.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/prefetch.h"
#include "base/types.h"
#include "net/communicator.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/parallel_merge.h"

namespace paladin::core {

/// LoserTree source fed straight from the mailbox: one instance per sending
/// rank, consuming that rank's chunk stream (data chunks carry >= 1 record;
/// an empty payload is end-of-stream).  Each consumed data chunk is
/// acknowledged with an empty message on `ack_tag`, which is what returns a
/// flow-control credit to the sender.
///
/// Contract inherited from the tree: peek() may return nullptr only when
/// the stream is permanently exhausted.  A dry-but-open source therefore
/// *blocks* inside peek(), cooperatively: while no chunk is queued it first
/// drives `make_progress` (the owning node's send half — without this two
/// merge-blocked nodes that still owe each other data would deadlock), and
/// only parks on the mailbox when that reports no progress either.  All
/// receive/ack charges land on the merge-stream clock at the consumption
/// point, which is determined by the merge order alone — not by when the
/// chunk physically arrived — keeping the virtual makespan
/// schedule-independent.
template <Record T>
class NetworkRunSource {
 public:
  NetworkRunSource(net::Communicator& comm, net::VirtualClock& clock, u32 src,
                   int data_tag, int ack_tag,
                   std::function<bool()> make_progress)
      : comm_(&comm),
        clock_(&clock),
        src_(src),
        data_tag_(data_tag),
        ack_tag_(ack_tag),
        make_progress_(std::move(make_progress)) {}

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

  u64 received_records() const { return received_; }

 private:
  void refill() {
    for (;;) {
      // Snapshot the delivery count *before* probing: a packet landing
      // between the failed probe and the wait then wakes us immediately.
      const u64 seen = comm_->inbox_deliveries();
      if (std::optional<net::Packet> pkt =
              comm_->try_recv_packet_on(*clock_, src_, data_tag_)) {
        if (pkt->payload.empty()) {
          exhausted_ = true;
          return;
        }
        adopt(std::move(pkt->payload));
        // Consuming the chunk frees one credit at the sender.  Self-acks
        // cost nothing (self-delivery is free) but keep the bookkeeping
        // uniform.
        comm_->isend_payload(*clock_, src_, ack_tag_, {});
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
    received_ += buffer_.size();
    // Copying a whole chunk just evicted the head from L1; the tree reads
    // it immediately after this refill.
    base::prefetch_read(buffer_.data());
  }

  net::Communicator* comm_;
  net::VirtualClock* clock_;
  u32 src_;
  int data_tag_;
  int ack_tag_;
  std::function<bool()> make_progress_;
  std::vector<T> buffer_;
  std::size_t index_ = 0;
  u64 received_ = 0;
  bool exhausted_ = false;
};

/// Absorb merge for the adaptive re-split path (hetero::AdaptiveConfig):
/// when a node's re-split slice fits the sequential memory budget, load
/// the sorted pieces and merge them with ⌈log2 k⌉ in-memory pairwise levels
/// — one read and one write pass of block I/O instead of the concatenate +
/// multi-pass external merge below, with the same log-factor comparison
/// bill a loser tree would charge.  Callers gate on the budget; the only
/// caller is ext_psrs once adaptation applied, so static and drift-free
/// runs keep their exact external-merge cost funnel.
template <Record T, typename Less = std::less<T>>
u64 merge_sorted_pieces_in_memory(pdm::Disk& disk,
                                  const std::vector<seq::MergePiece>& pieces,
                                  const std::string& output, Meter& meter,
                                  Less less = {}) {
  PALADIN_EXPECTS(!pieces.empty());
  std::vector<std::vector<T>> runs;
  runs.reserve(pieces.size());
  u64 total = 0;
  for (const seq::MergePiece& piece : pieces) {
    pdm::BlockFile f = disk.open(piece.file);
    pdm::BlockReader<T> reader(f);
    reader.seek_record(piece.offset);
    std::vector<T> run(piece.len);
    for (T& v : run) {
      const bool ok = reader.next(v);
      PALADIN_ASSERT(ok);
    }
    total += run.size();
    runs.push_back(std::move(run));
  }
  meter.on_moves(total);  // the load pass

  while (runs.size() > 1) {
    std::vector<std::vector<T>> next;
    next.reserve((runs.size() + 1) / 2);
    u64 level_records = 0;
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<T> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                 runs[i + 1].end(), std::back_inserter(merged), less);
      level_records += merged.size();
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 != 0) next.push_back(std::move(runs.back()));
    meter.on_compares(level_records);
    meter.on_moves(level_records);
    runs = std::move(next);
  }

  pdm::BlockFile out_file = disk.create(output);
  pdm::BlockWriter<T> writer(out_file);
  writer.push_span(std::span<const T>(runs.front()));
  writer.flush();
  return total;
}

struct MergeOutcome {
  u64 merged = 0;  ///< records written to the output
  /// Passes over the data: 0 for no pieces, 1 for the single loser-tree
  /// pass, and in the fallback the concatenation plus the balanced passes.
  u64 passes = 0;
};

/// The spill merge of every backend: merges the sorted `pieces` into
/// `output`.  One loser-tree pass when the memory budget holds a block
/// buffer per piece (M/B − 1 of them; always true for the p ≤ m−1
/// clusters the paper targets), otherwise the pieces are concatenated as
/// runs and merged with the balanced multi-pass machinery.
template <Record T, typename Less = std::less<T>>
MergeOutcome merge_sorted_pieces(pdm::Disk& disk,
                                 const std::vector<seq::MergePiece>& pieces,
                                 const std::string& output,
                                 u64 memory_records, Meter& meter,
                                 Less less = {},
                                 const seq::MergeTuning& tuning = {}) {
  MergeOutcome outcome;
  if (pieces.size() <= seq::max_fan_in<T>(disk, memory_records)) {
    pdm::BlockFile out_file = disk.create(output);
    pdm::BlockWriter<T> writer(out_file);
    const seq::MergeResult r =
        seq::merge_pieces<T, Less>(disk, pieces, writer, meter, less, tuning);
    writer.flush();
    if (!pieces.empty()) {
      meter.on_moves(r.merged);
      if (r.tail_compares > 0) meter.on_compares(r.tail_compares);
      outcome = {r.merged, 1};
    }
    return outcome;
  }

  // Degenerate memory budget: concatenate into a runs file and reuse the
  // balanced multi-pass merge.  The copy is block I/O only; it charges no
  // per-record moves.
  const std::string runs_name = output + ".cat";
  seq::RunLayout layout;
  {
    pdm::BlockFile cat_file = disk.create(runs_name);
    pdm::BlockWriter<T> writer(cat_file);
    for (const seq::MergePiece& piece : pieces) {
      pdm::BlockFile f = disk.open(piece.file);
      pdm::BlockReader<T> reader(f);
      reader.seek_record(piece.offset);
      const u64 len = pdm::copy_records(reader, writer, piece.len);
      PALADIN_ASSERT(len == piece.len);
      layout.run_lengths.push_back(len);
      layout.total_records += len;
    }
    writer.flush();
  }
  outcome.merged = layout.total_records;
  outcome.passes =
      1 + seq::merge_runs_balanced<T, Less>(disk, runs_name, layout, output,
                                            memory_records, meter, less,
                                            tuning);
  disk.remove(runs_name);
  return outcome;
}

}  // namespace paladin::core
