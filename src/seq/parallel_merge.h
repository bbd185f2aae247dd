// Parallel in-node k-way merge with serial-identical accounting.
//
// merge_pieces() merges k sorted pieces (byte ranges of files) into a
// BlockWriter.  The serial path is exactly the classic loser-tree loop the
// call sites used to inline.  The parallel path splits the *output* range
// into contiguous segments by exact splitters — a binary search over the
// u64 key space, the single-node analogue of core/exact_splitters.h's
// distributed exact_cuts bisection, ties apportioned in piece order to
// match the tree's by-index tie-break — and co-merges the segments on a
// small deterministic thread pool.
//
// Wall-clock parallel, simulated-cost serial: the output bytes, IoStats,
// metered compare/move counts and the virtual-clock charge *sequence* are
// bit-identical to the serial tree (tests/test_merge_kernels.cpp proves
// it).  Three facts make this possible:
//
//  * Canonical tree state.  A loser tree's internal arrangement is a pure
//    function of the current leaf heads, so a fresh build at any output
//    rank reproduces the mid-merge state, and per-segment replay compare
//    counts compose to exactly the serial total.  Each worker counts its
//    own compares (build compares are discarded except for strip 0 /
//    thread 0, whose build *is* the serial build); the coordinator then
//    delivers the serial batches: the build batch before the merge, the
//    rest via MergeResult::tail_compares at the point the serial tree's
//    destructor would.
//  * Uniform block cost.  Disk::account charges the cost sink once per
//    block with one value (reads and writes alike), so within a stretch
//    between meter flushes only the *count* of block charges matters.
//    Workers read through uncharged raw handles (the raw_handle()
//    contract: the submitting side charges transfers at the synchronous
//    path's logical points) and the coordinator replays the serial read
//    schedule: first block of every piece, then the build-compare batch,
//    then the remaining blocks.  Output writes go through the caller's
//    real BlockWriter on the coordinator, charging themselves.
//  * Splitter probes are free.  Like a discarded prefetch, a probe read is
//    bytes the synchronous path would never have read; it goes through the
//    raw handle and is never accounted.
//
// Handles are not thread-safe, so every (thread, piece) pair gets its own
// handle, all opened on the coordinator; a separate set serves the probes.
// Workers touch no Disk/Meter state, and thread join provides the
// happens-before edge for their result buffers (TSan-clean).  Disk fault
// plans charge at physical transfer points, which no replay can imitate —
// faulted runs always take the serial path.
#pragma once

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "base/contracts.h"
#include "base/key_codec.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/disk.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/loser_tree.h"

namespace paladin::seq {

/// One sorted merge input: `len` records of `file` starting at record
/// `offset`.
struct MergePiece {
  std::string file;
  u64 offset = 0;
  u64 len = 0;
};

/// Knobs for the in-node merge.  threads == 1 is the serial tree verbatim;
/// 0 resolves to min(hardware_concurrency, 8).  The parallel path also
/// requires an exact KeyCodec with std::less, at least
/// min_parallel_records of input, and no active disk fault plan — anything
/// else falls back to serial.  Strips bound worker buffer memory: the
/// output range is processed strip_records at a time, each strip split
/// across the threads.
struct MergeTuning {
  u32 threads = 0;
  u64 min_parallel_records = u64{1} << 16;
  u64 strip_records = u64{1} << 21;
};

struct MergeResult {
  u64 merged = 0;
  /// Compare count not yet delivered to the meter: the caller emits it
  /// (after its on_moves) exactly where the serial tree's destructor
  /// flush would land.
  u64 tail_compares = 0;
};

inline u32 resolve_merge_threads(u32 requested) {
  if (requested != 0) return requested;
  const u32 hw = std::thread::hardware_concurrency();
  return std::clamp<u32>(hw == 0 ? 1 : hw, 1, 8);
}

namespace detail {

/// Uncharged block-buffered record reader over a raw FileHandle, for merge
/// workers.  Mirrors BlockReader's cursor contract (peek / advance /
/// buffered / advance_n) but performs plain chunked reads with no
/// accounting — the coordinator replays the charges.
template <Record T>
class RawReader {
 public:
  RawReader(pdm::FileHandle* handle, u64 chunk_records)
      : handle_(handle),
        chunk_(std::max<u64>(1, chunk_records)),
        size_records_(handle->size_bytes() / sizeof(T)) {}

  void seek(u64 record) {
    PALADIN_EXPECTS(record <= size_records_);
    next_ = record;
    buffer_.clear();
    first_ = 0;
  }

  const T* peek() {
    if (next_ >= size_records_) return nullptr;
    ensure();
    return &buffer_[next_ - first_];
  }

  void advance() {
    PALADIN_EXPECTS(next_ < size_records_);
    ensure();
    ++next_;
  }

  /// Fused advance()+peek() (see pdm::BlockReader::advance_peek).
  const T* advance_peek() {
    PALADIN_EXPECTS(next_ >= first_ && next_ < first_ + buffer_.size());
    ++next_;
    const u64 off = next_ - first_;
    if (off < buffer_.size()) [[likely]] return &buffer_[off];
    if (next_ >= size_records_) return nullptr;
    ensure();
    return &buffer_[next_ - first_];
  }

  std::span<const T> buffered() {
    if (next_ >= size_records_) return {};
    ensure();
    const u64 off = next_ - first_;
    return {buffer_.data() + off, buffer_.size() - off};
  }

  void advance_n(u64 n) {
    PALADIN_EXPECTS(next_ + n <= first_ + buffer_.size());
    next_ += n;
  }

 private:
  void ensure() {
    if (!buffer_.empty() && next_ >= first_ && next_ < first_ + buffer_.size())
      return;
    const u64 count = std::min(chunk_, size_records_ - next_);
    buffer_.resize(count);
    const u64 got = handle_->read_at(
        next_ * sizeof(T), std::span<u8>(reinterpret_cast<u8*>(buffer_.data()),
                                         count * sizeof(T)));
    PALADIN_ASSERT(got == count * sizeof(T));
    first_ = next_;
  }

  pdm::FileHandle* handle_;
  u64 chunk_;
  u64 size_records_;
  std::vector<T> buffer_;
  u64 first_ = 0;
  u64 next_ = 0;
};

/// Single uncharged probe read (splitter bisection only).
template <Record T>
u64 probe_key(pdm::FileHandle& handle, u64 record) {
  T v;
  const u64 got = handle.read_at(
      record * sizeof(T),
      std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(T)));
  PALADIN_ASSERT(got == sizeof(T));
  return base::KeyCodec<T>::encode(v);
}

/// Piece-relative cut positions such that the records below them are
/// exactly the first `target` records the serial tree emits.  Global
/// bisection over the encoded key space for the smallest key W with
/// count(enc <= W) >= target (the exact_cuts idiom, with per-piece
/// narrowing windows so each round is one bounded binary search per
/// piece); duplicates of W are then apportioned in piece order — the order
/// the stable tree emits equal keys.
template <Record T>
std::vector<u64> select_cuts(const std::vector<pdm::FileHandle*>& handles,
                             const std::vector<MergePiece>& pieces,
                             u64 target) {
  const std::size_t k = pieces.size();
  std::vector<u64> cut(k, 0);
  u64 total = 0;
  for (const MergePiece& p : pieces) total += p.len;
  if (target == 0) return cut;
  if (target >= total) {
    for (std::size_t i = 0; i < k; ++i) cut[i] = pieces[i].len;
    return cut;
  }

  auto key_at = [&](std::size_t i, u64 rel) {
    return probe_key<T>(*handles[i], pieces[i].offset + rel);
  };
  // First piece-relative index in [l, h) whose key compares `above(key)`;
  // h if none.
  auto partition_point = [&](std::size_t i, u64 l, u64 h, auto above) {
    while (l < h) {
      const u64 mid = l + (h - l) / 2;
      if (above(key_at(i, mid))) {
        h = mid;
      } else {
        l = mid + 1;
      }
    }
    return l;
  };

  // Invariant: count(enc <= whi) >= target; wlo == 0 or
  // count(enc <= wlo - 1) < target; lo/hi bracket each piece's
  // upper-bound position for every candidate inside [wlo, whi].
  std::vector<u64> lo(k, 0), hi(k);
  for (std::size_t i = 0; i < k; ++i) hi[i] = pieces[i].len;
  // W is the key of the target-th output record, so it lies between the
  // smallest head and the largest tail across the pieces.
  u64 wlo = ~u64{0};
  u64 whi = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (pieces[i].len == 0) continue;
    wlo = std::min(wlo, key_at(i, 0));
    whi = std::max(whi, key_at(i, pieces[i].len - 1));
  }
  std::vector<u64> ub(k);
  while (wlo < whi) {
    const u64 mid = wlo + (whi - wlo) / 2;
    u64 cnt = 0;
    for (std::size_t i = 0; i < k; ++i) {
      ub[i] = partition_point(i, lo[i], hi[i],
                              [&](u64 key) { return key > mid; });
      cnt += ub[i];
    }
    if (cnt >= target) {
      whi = mid;
      hi = ub;
    } else {
      wlo = mid + 1;
      lo = ub;
    }
  }
  const u64 w = wlo;

  // Below-W base per piece, then W-duplicates handed out in piece order.
  u64 need = target;
  for (std::size_t i = 0; i < k; ++i) {
    const u64 ub_w = partition_point(i, lo[i], hi[i],
                                     [&](u64 key) { return key > w; });
    const u64 lb_w = partition_point(i, lo[i], ub_w,
                                     [&](u64 key) { return key >= w; });
    cut[i] = lb_w;
    PALADIN_ASSERT(need >= lb_w);
    need -= lb_w;
  }
  for (std::size_t i = 0; i < k && need > 0; ++i) {
    const u64 ub_w = partition_point(i, cut[i], pieces[i].len,
                                     [&](u64 key) { return key > w; });
    const u64 take = std::min(need, ub_w - cut[i]);
    cut[i] += take;
    need -= take;
  }
  PALADIN_ASSERT(need == 0);
  return cut;
}

/// In-memory sink for one worker's output segment.
template <Record T>
struct VecSink {
  std::vector<T> v;
  void push(const T& r) { v.push_back(r); }
  void push_span(std::span<const T> s) { v.insert(v.end(), s.begin(), s.end()); }
};

/// The parallel strip-merge body.  A separate template so merge_pieces can
/// keep it behind `if constexpr` — select_cuts/probe_key need an exact key
/// codec and must never be instantiated for comparator-only record types.
template <Record T, typename Less>
MergeResult merge_pieces_parallel(pdm::Disk& disk,
                                  const std::vector<MergePiece>& pieces,
                                  pdm::BlockWriter<T>& out, Meter& meter,
                                  u64 total, u32 threads,
                                  const MergeTuning& tuning) {
  MergeResult result;
  const std::size_t k = pieces.size();
  const u64 rpb = disk.params().records_per_block(sizeof(T));
  const ByteCount block_bytes = disk.params().block_bytes;

  // Private handle per (thread, piece) plus a probe set — handles are
  // stateful and not thread-safe; Disk::open touches no shared counters.
  std::vector<std::vector<pdm::BlockFile>> files(threads + 1);
  for (auto& set : files) {
    set.reserve(k);
    for (const MergePiece& p : pieces) set.push_back(disk.open(p.file));
  }
  std::vector<pdm::FileHandle*> probe_handles;
  probe_handles.reserve(k);
  for (pdm::BlockFile& f : files[threads]) {
    probe_handles.push_back(f.raw_handle());
  }

  // Workers buffer about a block per piece, like the serial readers.
  const u64 chunk = std::max<u64>(rpb, u64{4096} / sizeof(T));
  using Worker = RunCursor<T, RawReader<T>>;
  std::vector<std::vector<RawReader<T>>> readers(threads);
  for (u32 t = 0; t < threads; ++t) {
    readers[t].reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      readers[t].emplace_back(files[t][i].raw_handle(), chunk);
    }
  }

  std::vector<u64> piece_records(k);  // whole-file sizes, for block bytes
  for (std::size_t i = 0; i < k; ++i) {
    piece_records[i] = files[threads][i].size_bytes() / sizeof(T);
  }
  // Bytes of the block whose first record index is `block_first` — the
  // serial reader fetches min(rpb, file_end - block_first) records.
  auto charge_block = [&](std::size_t i, u64 block_first) {
    const ByteCount bytes =
        std::min(rpb, piece_records[i] - block_first) * sizeof(T);
    disk.account(ceil_div(bytes, block_bytes), bytes, /*is_write=*/false);
  };

  struct Segment {
    std::vector<T> records;
    u64 build_compares = 0;
    u64 pop_compares = 0;
  };

  u64 emitted = 0;
  u64 build_batch = 0;  // strip 0 / thread 0's build == the serial build
  u64 tail = 0;
  std::vector<u64> prev_cuts(k, 0);
  bool first_strip = true;
  const u64 strip = std::max<u64>(1, tuning.strip_records);

  while (emitted < total) {
    const u64 strip_end = std::min(total, emitted + strip);
    const u64 len = strip_end - emitted;
    const u32 s_threads = static_cast<u32>(std::min<u64>(threads, len));

    // Boundary ranks -> per-piece cuts; cuts(emitted) was already computed
    // as the previous strip's end (select_cuts is deterministic in the
    // target rank, so the boundaries agree).
    std::vector<std::vector<u64>> cuts(s_threads + 1);
    cuts[0] = prev_cuts;
    for (u32 t = 1; t <= s_threads; ++t) {
      const u64 rank = emitted + (len * t) / s_threads;
      cuts[t] = select_cuts<T>(probe_handles, pieces, rank);
    }

    std::vector<Segment> segs(s_threads);
    std::vector<std::thread> pool;
    pool.reserve(s_threads);
    for (u32 t = 0; t < s_threads; ++t) {
      pool.emplace_back([&, t] {
        Segment& seg = segs[t];
        u64 seg_len = 0;
        std::vector<Worker> cursors;
        cursors.reserve(k);
        for (std::size_t i = 0; i < k; ++i) {
          readers[t][i].seek(pieces[i].offset + cuts[t][i]);
          cursors.emplace_back(&readers[t][i], pieces[i].len - cuts[t][i]);
          seg_len += cuts[t + 1][i] - cuts[t][i];
        }
        std::vector<Worker*> sources;
        sources.reserve(k);
        for (Worker& c : cursors) sources.push_back(&c);
        // No meter: the worker only counts.  A fresh build at the segment
        // boundary reproduces the serial tree's canonical state there.
        LoserTree<T, Worker, Less> tree(std::move(sources), Less{}, nullptr);
        seg.build_compares = tree.comparisons();
        seg.records.reserve(seg_len);
        VecSink<T> sink;
        sink.v.swap(seg.records);
        const u64 got = tree.pop_run_into(sink, seg_len);
        PALADIN_ASSERT(got == seg_len);
        sink.v.swap(seg.records);
        seg.pop_compares = tree.comparisons() - seg.build_compares;
      });
    }
    for (std::thread& th : pool) th.join();

    if (first_strip) {
      // Replay the serial charge schedule: the build's k initial block
      // fetches, the build-compare batch, then every remaining block of
      // every piece.  All read charges carry the same per-block cost as
      // the write charges the pushes below will make, so the cost sink
      // sees the serial sequence bit-for-bit.
      for (std::size_t i = 0; i < k; ++i) {
        if (pieces[i].len == 0) continue;
        charge_block(i, (pieces[i].offset / rpb) * rpb);
      }
      build_batch = segs[0].build_compares;
      if (build_batch > 0) meter.on_compares(build_batch);
      for (std::size_t i = 0; i < k; ++i) {
        if (pieces[i].len == 0) continue;
        const u64 first_block = pieces[i].offset / rpb;
        const u64 last_block = (pieces[i].offset + pieces[i].len - 1) / rpb;
        for (u64 b = first_block + 1; b <= last_block; ++b) {
          charge_block(i, b * rpb);
        }
      }
      first_strip = false;
    }

    for (u32 t = 0; t < s_threads; ++t) {
      out.push_span(std::span<const T>(segs[t].records));
      tail += segs[t].pop_compares;
    }
    prev_cuts = cuts[s_threads];
    emitted = strip_end;
  }

  result.merged = emitted;
  result.tail_compares = tail;
  return result;
}

}  // namespace detail

/// Merges `pieces` (each sorted) into `out`.  Delivers moves/tail-compares
/// through the returned MergeResult so the caller can keep its historical
/// meter order: push charges, then on_moves(merged), then
/// on_compares(tail_compares) — identical to the inlined tree it replaces.
template <Record T, typename Less = std::less<T>>
MergeResult merge_pieces(pdm::Disk& disk, const std::vector<MergePiece>& pieces,
                         pdm::BlockWriter<T>& out, Meter& meter, Less less = {},
                         const MergeTuning& tuning = {}) {
  MergeResult result;
  if (pieces.empty()) return result;

  u64 total = 0;
  for (const MergePiece& p : pieces) total += p.len;

  const u32 threads = resolve_merge_threads(tuning.threads);
  if constexpr (LoserTree<T, detail::RawReader<T>, Less>::kKeyCached) {
    if (threads > 1 && total >= tuning.min_parallel_records &&
        !disk.disk_faults_active()) {
      return detail::merge_pieces_parallel<T, Less>(disk, pieces, out, meter,
                                                    total, threads, tuning);
    }
  }

  // Serial path: the classic per-piece reader + loser tree, verbatim.
  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockReader<T>> readers;
  std::vector<RunCursor<T>> cursors;
  files.reserve(pieces.size());
  readers.reserve(pieces.size());
  cursors.reserve(pieces.size());
  for (const MergePiece& p : pieces) {
    files.push_back(disk.open(p.file));
    readers.emplace_back(files.back());
    readers.back().seek_record(p.offset);
    cursors.emplace_back(&readers.back(), p.len);
  }
  std::vector<RunCursor<T>*> sources;
  sources.reserve(cursors.size());
  for (auto& c : cursors) sources.push_back(&c);
  LoserTree<T, RunCursor<T>, Less> tree(std::move(sources), less, &meter);
  result.merged = tree.pop_run_into(out);
  result.tail_compares = tree.take_unreported();
  return result;
}

}  // namespace paladin::seq
