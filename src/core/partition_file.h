// Step 3 of Algorithm 1: cut a node's *sorted* local file at the p−1
// pivots.  Records equal to a pivot go to the lower partition (ties break
// toward lower ranks: upper_bound), which is what bounds the
// duplicate-induced imbalance by the multiplicity d (§3.1).  Three forms
// share that rule:
//  * file_partition_cuts — the phased path: cut offsets found by binary
//    search in the file, which stays in place while its pieces travel;
//  * PartitionStream — the fused pipeline: the file streamed as
//    per-partition chunk events;
//  * partition_cuts — cut offsets of an in-memory span.
#pragma once

#include <algorithm>
#include <cstring>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"

namespace paladin::core {

/// Names of the p partition files derived from a prefix.
inline std::string partition_name(const std::string& prefix, u32 j) {
  return prefix + ".part" + std::to_string(j);
}

/// On-disk counterpart of partition_cuts: the p+1 cut offsets of the sorted
/// file `sorted_file` under the same tie rule, with cuts[0] = 0 and
/// cuts[p] = its record count.  Nothing is moved or written.  For each
/// pivot a binary search over the block-start records of [previous cut,
/// end) — one block read and one comparison per probe — finds the block
/// that holds the cut; one more read of that block and a metered
/// upper_bound inside it place the cut.  That is at most
/// ⌈log2(⌈l/B⌉ + 1)⌉ + 1 block reads per pivot.
template <Record T, typename Less = std::less<T>>
std::vector<u64> file_partition_cuts(pdm::Disk& disk,
                                     const std::string& sorted_file,
                                     std::span<const T> pivots, Meter& meter,
                                     Less less = {}) {
  pdm::BlockFile in = disk.open(sorted_file);
  pdm::BlockReader<T> reader(in);
  const u64 records = reader.size_records();
  const u64 rpb = disk.params().records_per_block(sizeof(T));
  const u64 blocks = ceil_div(records, rpb);
  std::vector<u64> cuts(pivots.size() + 2, 0);
  cuts.back() = records;
  for (std::size_t j = 0; j < pivots.size(); ++j) {
    const u64 from = cuts[j];
    // The first block past the one holding `from` that starts above the
    // pivot; the cut lies in the block before it.
    u64 lo = from / rpb + 1;
    u64 hi = blocks;
    while (lo < hi) {
      const u64 mid = lo + (hi - lo) / 2;
      reader.seek_record(mid * rpb);
      meter.on_compares(1);
      if (less(pivots[j], reader.buffered().front())) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    u64 cut = std::max(from, (lo - 1) * rpb);
    if (cut < records) {
      reader.seek_record(cut);
      cut += seq::metered_upper_bound(reader.buffered(), pivots[j], meter,
                                      less);
    }
    cuts[j + 1] = cut;
  }
  return cuts;
}

/// Streaming, chunk-emitting partition for the pipelined redistribution:
/// turns the sorted input into a sequence of events, in ascending
/// partition order:
///
///   kChunk(j, n)      — the next n records of partition j, appended to the
///                       caller's payload buffer (never crosses a pivot,
///                       never exceeds chunk_records per event)
///   kEndOfStream(j)   — partition j is complete (emitted exactly once per
///                       partition, after its last chunk; empty partitions
///                       get a bare kEndOfStream)
///   kDone             — the input is fully consumed
///
/// The ascending-destination order is what the pipeline's deadlock-freedom
/// argument rests on, so it is a contract of this class, not an accident.
/// Costs are the paper's record-at-a-time bill: one comparison per record
/// that stays in a non-final partition, one per pivot-advance step, none
/// for the last partition; one move per record, charged per chunk.
/// Each charge lands at the event that produced it, so the sequence of
/// (event, charge) pairs is a pure function of the input — the determinism
/// pillar for the pipelined clock.
template <Record T, typename Less = std::less<T>>
class PartitionStream {
 public:
  enum class EventKind : u8 { kChunk, kEndOfStream, kDone };

  struct Event {
    EventKind kind = EventKind::kDone;
    u32 partition = 0;
    u64 records = 0;  ///< records appended to payload (kChunk only)
  };

  PartitionStream(pdm::BlockReader<T>& reader, std::span<const T> pivots,
                  u64 chunk_records, Meter& meter, Less less = {})
      : reader_(&reader),
        pivots_(pivots),
        chunk_records_(chunk_records),
        meter_(&meter),
        less_(less),
        p_(static_cast<u32>(pivots.size()) + 1),
        sizes_(p_, 0) {
    PALADIN_EXPECTS(chunk_records_ >= 1);
  }

  /// Produces the next event.  For kChunk the chunk's records are appended
  /// to `payload` (cleared first); for other kinds `payload` is untouched.
  Event next(std::vector<u8>& payload) {
    for (;;) {
      if (!pending_.empty()) {
        Event e = pending_.front();
        pending_.pop_front();
        return e;
      }
      if (done_) return Event{EventKind::kDone, 0, 0};

      // Fill one chunk for the current partition.  The fill never crosses
      // a pivot boundary: a boundary or EOF ends the chunk early and queues
      // the end-of-stream events it implies.
      payload.clear();
      const u32 part = current_;
      u64 filled = 0;
      u64 compares = 0;
      while (filled < chunk_records_) {
        std::span<const T> chunk = reader_->buffered();
        if (chunk.empty()) {
          // EOF: close the current and all remaining partitions.
          for (u32 j = current_; j < p_; ++j) {
            pending_.push_back(Event{EventKind::kEndOfStream, j, 0});
          }
          done_ = true;
          break;
        }
        if (current_ + 1 == p_) {
          // Last partition: everything remaining stays, no comparisons.
          const u64 take = std::min<u64>(chunk.size(), chunk_records_ - filled);
          append(payload, chunk.first(take));
          filled += take;
          reader_->advance_n(take);
          continue;
        }
        const auto past = std::upper_bound(chunk.begin(), chunk.end(),
                                           pivots_[current_], less_);
        const u64 stay = static_cast<u64>(past - chunk.begin());
        if (stay == 0) {
          // Boundary: the next record belongs to a later partition.  Close
          // streams up to its home, then flush what this fill gathered.
          const T& v = chunk.front();
          while (current_ + 1 < p_) {
            ++compares;
            if (!less_(pivots_[current_], v)) break;  // v <= pivot: stays
            pending_.push_back(Event{EventKind::kEndOfStream, current_, 0});
            ++current_;
          }
          break;
        }
        const u64 take = std::min<u64>(stay, chunk_records_ - filled);
        append(payload, chunk.first(take));
        compares += take;
        filled += take;
        reader_->advance_n(take);
      }

      meter_->on_compares(compares);
      if (filled > 0) {
        meter_->on_moves(filled);
        sizes_[part] += filled;
        return Event{EventKind::kChunk, part, filled};
      }
      // Nothing gathered (boundary/EOF on the first record): loop back and
      // drain the queued end-of-stream events.
    }
  }

  /// Records emitted so far per partition (complete once kDone is seen).
  const std::vector<u64>& sizes() const { return sizes_; }

 private:
  static void append(std::vector<u8>& payload, std::span<const T> records) {
    const std::size_t off = payload.size();
    payload.resize(off + records.size() * sizeof(T));
    std::memcpy(payload.data() + off, records.data(),
                records.size() * sizeof(T));
  }

  pdm::BlockReader<T>* reader_;
  std::span<const T> pivots_;
  u64 chunk_records_;
  Meter* meter_;
  Less less_;
  u32 p_;
  std::vector<u64> sizes_;
  u32 current_ = 0;
  bool done_ = false;
  std::deque<Event> pending_;
};

/// In-memory variant: cut points of a sorted span under the same tie rule
/// (record goes to the lowest partition whose pivot is >= record).
/// Returns p+1 offsets with cuts[0] = 0 and cuts[p] = data.size().
template <Record T, typename Less = std::less<T>>
std::vector<u64> partition_cuts(std::span<const T> sorted,
                                std::span<const T> pivots, Meter& meter,
                                Less less = {}) {
  std::vector<u64> cuts(pivots.size() + 2, 0);
  for (std::size_t j = 0; j < pivots.size(); ++j) {
    // Ties toward lower ranks == records equal to the pivot stay below the
    // cut == upper_bound.
    cuts[j + 1] = seq::metered_upper_bound(sorted, pivots[j], meter, less);
  }
  cuts.back() = sorted.size();
  for (std::size_t j = 1; j < cuts.size(); ++j) {
    PALADIN_ASSERT(cuts[j] >= cuts[j - 1]);
  }
  return cuts;
}

}  // namespace paladin::core
