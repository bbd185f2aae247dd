// Tournament (loser) tree for k-way merging — the classic structure behind
// every merge in this library (Knuth TAOCP vol. 3, §5.4.1).  Each pop costs
// ⌈log2 k⌉ comparisons; exhausted sources act as +∞ sentinels.  Ties break
// by source index, which makes every merge stable with respect to source
// order and, more importantly, deterministic.
//
// Engineering (see docs/ALGORITHM.md, "Merge kernel engineering"): every
// internal node caches its loser inline, so a replay is one walk up a
// contiguous array instead of two pointer chases per level.  The tree has
// two node modes:
//
//  * Packed — the key codec (base/key_codec.h) replaces Less and its image
//    fits 32 bits (u32/i32 and narrower: DefaultKey's case).  A node is a
//    single u64 packing (key << 32 | source index), so a replay level is
//    ONE unsigned compare (the index bits break ties toward the lower
//    source), the winner record is decoded straight from the key, and each
//    live leaf caches its source's buffered span: the hot loop touches no
//    record memory at all.
//  * Comparator — every other (T, Less): 64-bit keys, wide records, custom
//    orders.  A node holds its loser's head pointer and source index, and
//    each level with two live contenders makes one comparator call.
//
// Comparison *counts* and the points where sources are peeked/refilled are
// identical in both modes, and identical to the classic two-pointer
// formulation, so metered virtual time does not depend on which mode ran.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <functional>
#include <span>
#include <vector>

#include "base/contracts.h"
#include "base/key_codec.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/prefetch.h"
#include "base/types.h"

namespace paladin::seq {

/// What the tree needs from a source: `peek()`, the head record (nullptr
/// when exhausted); `advance_peek()`, which consumes the head and returns
/// the next one; `buffered()`, the records already in memory from the head
/// on; and `advance_n(n)`, which consumes n of those.  MemCursor,
/// RunCursor and pdm::BlockReader all qualify.
template <typename S, typename T>
concept MergeSource = requires(S& s, u64 n) {
  { s.peek() } -> std::same_as<const T*>;
  { s.advance_peek() } -> std::same_as<const T*>;
  { s.buffered() } -> std::convertible_to<std::span<const T>>;
  s.advance_n(n);
};

template <Record T, typename Source, typename Less = std::less<T>>
class LoserTree {
  static_assert(MergeSource<Source, T>);

 public:
  /// Packed mode: the codec replaces Less and its image fits 32 bits.
  /// Each live leaf then also caches its source's buffered span (direct
  /// pos/end pointers) and advances the source lazily, one advance_n per
  /// drained span.  Refills land at the same logical record (the first
  /// touch past the buffered stretch) as the per-record advance-then-peek
  /// sequence, so IoStats, charge points and comparison counts are those
  /// of comparator mode.
  static constexpr bool kPacked = base::key_codec_replaces_less<T, Less>() &&
                                  base::key_codec_packs32<T>();

  /// Sources are referenced, not owned; they must outlive the tree.
  explicit LoserTree(std::vector<Source*> sources, Less less = {},
                     Meter* meter = nullptr)
      : sources_(std::move(sources)), less_(less), meter_(meter) {
    PALADIN_EXPECTS(!sources_.empty());
    // Pad the leaf count to a power of two; padded leaves are permanently
    // exhausted pseudo-sources.
    k_ = 1;
    while (k_ < sources_.size()) k_ *= 2;
    if constexpr (kPacked) {
      depth_ = static_cast<u32>(std::bit_width(k_) - 1);
      leaves_.assign(sources_.size(), LeafSpan{});
      packed_.assign(k_, kExhausted);
      set_winner_packed(build_packed(1));
    } else {
      nodes_.assign(k_, Node{});
      const Node w = build(1);
      winner_ = w.idx;
      cur_head_ = w.head;
    }
    flush_meter();
  }

  LoserTree(const LoserTree&) = delete;
  LoserTree& operator=(const LoserTree&) = delete;

  // Comparisons are delivered to the meter in one batch when the tree is
  // destroyed (plus one after build).  The batch boundaries are the same
  // whether records are popped one at a time or drained via pop_run_into,
  // so both modes advance the virtual clock through identical floating-
  // point additions.
  ~LoserTree() { flush_meter(); }

  /// Current minimum across all sources, nullptr when all are exhausted.
  const T* peek() const { return cur_head_; }

  /// Removes and returns the minimum.  Precondition: peek() != nullptr.
  T pop() {
    PALADIN_EXPECTS(cur_head_ != nullptr);
    T out = *cur_head_;
    advance_update(winner_);
    return out;
  }

  /// Consumes the minimum without copying it (caller already used peek()).
  void pop_discard() {
    PALADIN_EXPECTS(cur_head_ != nullptr);
    advance_update(winner_);
  }

  /// Bulk drain: emits up to `limit` records into `sink` (anything with
  /// push and push_span) in gallop-style batches.  While the winner's buffered tail
  /// stays ahead of every loser on its root path the outcome of each pop
  /// is a foregone conclusion, so the tail is emitted with one push_span
  /// and the replays are settled arithmetically: each skipped replay would
  /// have cost one comparison per live loser on the path and changed
  /// nothing.  The final record of each batch goes through a real replay,
  /// which also lands any block refill of the winner's source at exactly
  /// the point the per-record path would.
  template <typename Sink>
  u64 pop_run_into(Sink& sink, u64 limit = ~u64{0}) {
    u64 emitted = 0;
    // Adaptive regime switch: a gallop batch costs roughly twice a plain
    // replay when it degenerates to a single record (fully interleaved
    // runs), so after a streak of length-1 batches fall back to plain
    // pops for a stretch before probing again.  This is invisible to the
    // meter: a length-1 batch charges exactly the comparisons of a plain
    // pop (probes are uncounted, synthetic term is zero).
    u32 ones_streak = 0;
    while (emitted < limit && cur_head_ != nullptr) {
      if (ones_streak >= kGallopRetry) {
        const u64 todo = std::min<u64>(kFallbackStretch, limit - emitted);
        if constexpr (kPacked) {
          // Stage the stretch locally (records are <= 4 bytes in packed
          // mode) and hand it over in one push_span: the sink sees the
          // same records crossing the same block boundaries, and block
          // costs are uniform, so IoStats and the virtual clock are
          // unchanged — only the per-record push call and its buffer
          // bookkeeping disappear.
          T staged[kFallbackStretch];
          u64 n = 0;
          while (n < todo && cur_head_ != nullptr) {
            staged[n++] = cur_rec_;
            advance_update(winner_);
          }
          sink.push_span(std::span<const T>(staged, n));
          emitted += n;
        } else {
          u64 left = todo;
          while (left > 0 && cur_head_ != nullptr) {
            sink.push(*cur_head_);
            advance_update(winner_);
            ++emitted;
            --left;
          }
        }
        ones_streak = 0;
        continue;
      }
      std::span<const T> tail;
      if constexpr (kPacked) {
        const LeafSpan& ls = leaves_[winner_];
        tail = {ls.pos, static_cast<std::size_t>(ls.end - ls.pos)};
      } else {
        tail = sources_[winner_]->buffered();
      }
      PALADIN_ASSERT(!tail.empty());
      u64 n = std::min<u64>(tail.size(), limit - emitted);
      u64 live_losers = 0;
      for (std::size_t node = (k_ + winner_) / 2; node >= 1; node /= 2) {
        // Records the winner emits before `loser` takes over: strictly
        // smaller ones when the loser precedes the winner (the loser would
        // win ties), smaller-or-equal when the winner precedes the loser.
        if constexpr (kPacked) {
          const u64 nd = packed_[node];
          if (nd == kExhausted) continue;
          ++live_losers;
          const u64 loser_key = nd >> 32;
          if ((nd & 0xffffffffu) < winner_) {
            n = gallop(n, [&](u64 j) {
              return base::KeyCodec<T>::encode(tail[j]) < loser_key;
            });
          } else {
            n = gallop(n, [&](u64 j) {
              return base::KeyCodec<T>::encode(tail[j]) <= loser_key;
            });
          }
        } else {
          const Node& nd = nodes_[node];
          if (nd.head == nullptr) continue;
          ++live_losers;
          const T* head = nd.head;
          if (nd.idx < winner_) {
            n = gallop(n, [&](u64 j) { return less_(tail[j], *head); });
          } else {
            n = gallop(n, [&](u64 j) { return !less_(*head, tail[j]); });
          }
        }
      }
      PALADIN_ASSERT(n >= 1);  // the current winner beats every path loser
      sink.push_span(tail.first(n));
      compares_ += (n - 1) * live_losers;  // the skipped no-change replays
      if constexpr (kPacked) {
        LeafSpan& ls = leaves_[winner_];
        ls.pos += n;
        apply_head(winner_,
                   ls.pos != ls.end ? ls.pos : resync_span(winner_));
      } else {
        sources_[winner_]->advance_n(n);
        update(winner_);
      }
      emitted += n;
      ones_streak = n == 1 ? ones_streak + 1 : 0;
    }
    return emitted;
  }

  u64 comparisons() const { return compares_; }

  /// Comparisons counted but not yet delivered to the meter; marks them
  /// reported.  Lets seq::merge_pieces hand the tail batch to its caller,
  /// which emits it after charging the moves — where the destructor of a
  /// tree in the caller's own scope would.
  u64 take_unreported() {
    const u64 pending = compares_ - reported_;
    reported_ = compares_;
    return pending;
  }

 private:
  /// pop_run_into: consecutive single-record batches before switching to
  /// plain pops, and how many plain pops to do before probing again.
  static constexpr u32 kGallopRetry = 1;
  static constexpr u64 kFallbackStretch = 256;

  /// Loser cached at an internal node (comparator mode).  head == nullptr
  /// means the subtree loser is exhausted (or a padded pseudo-source); idx
  /// is then meaningless.
  struct Node {
    const T* head = nullptr;
    u32 idx = 0;
  };

  /// Builds the tree below internal node `node`; returns the winner of
  /// that subtree and caches losers on the path.  The left subtree holds
  /// strictly lower source indices than the right, so ties resolve to the
  /// left — one comparison per pair, exactly as the classic source_less.
  Node build(std::size_t node) {
    if (node >= k_) {
      const std::size_t idx = node - k_;  // leaf → source (maybe padded)
      const T* head = idx < sources_.size() ? sources_[idx]->peek() : nullptr;
      return Node{head, static_cast<u32>(idx)};
    }
    const Node l = build(2 * node);
    const Node r = build(2 * node + 1);
    bool l_wins;
    if (l.head == nullptr) {
      l_wins = false;
    } else if (r.head == nullptr) {
      l_wins = true;
    } else {
      ++compares_;
      l_wins = !less_(*r.head, *l.head);  // left index is lower: wins ties
    }
    nodes_[node] = l_wins ? r : l;
    return l_wins ? l : r;
  }

  /// Exponential search: the count (<= bound) of leading tail records for
  /// which `still_ahead(j)` holds, given it holds at 0.  Costs O(log n) of
  /// the result, so a 1-record answer (randomly interleaved runs) costs a
  /// single probe — no worse than the replay it replaces — while runs with
  /// source locality expand to whole-buffer drains.
  template <typename Pred>
  static u64 gallop(u64 bound, Pred still_ahead) {
    u64 last_true = 0;
    u64 probe = 1;
    while (probe < bound && still_ahead(probe)) {
      last_true = probe;
      probe *= 2;
    }
    u64 lo = last_true + 1;
    u64 hi = std::min<u64>(probe, bound);  // still_ahead(hi) false, or == bound
    while (lo < hi) {
      const u64 mid = lo + (hi - lo) / 2;
      if (still_ahead(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // --- packed mode -----------------------------------------------------
  /// Exhausted sources (and padded leaves) are +∞: all-ones sorts after
  /// every live packing, whose index bits stay below 2^32−1.
  static constexpr u64 kExhausted = ~u64{0};

  u64 leaf_packed(std::size_t idx) {
    if (idx >= sources_.size()) {
      ++exhausted_leaves_;  // padded pseudo-source
      return kExhausted;
    }
    const T* head = acquire_span(idx);
    if (head == nullptr) {
      ++exhausted_leaves_;  // empty from the start
      return kExhausted;
    }
    return (base::KeyCodec<T>::encode(*head) << 32) | static_cast<u64>(idx);
  }

  /// (Re)caches `idx`'s buffered span and returns its first record, or
  /// nullptr when the source is exhausted.  Some sources (the network
  /// stream) only refill inside peek(), so an empty span falls back to one
  /// peek — the same call, at the same record, the classic path makes.
  const T* acquire_span(std::size_t idx)
    requires kPacked
  {
    Source& src = *sources_[idx];
    std::span<const T> s = src.buffered();
    if (s.empty()) {
      if (src.peek() == nullptr) {
        leaves_[idx] = LeafSpan{};
        return nullptr;
      }
      s = src.buffered();
      PALADIN_ASSERT(!s.empty());
    }
    leaves_[idx] = {s.data(), s.data(), s.data() + s.size()};
    return s.data();
  }

  /// Span drained: reports the consumed records to the cursor in one
  /// advance_n and acquires the next stretch.
  const T* resync_span(std::size_t idx)
    requires kPacked
  {
    LeafSpan& ls = leaves_[idx];
    sources_[idx]->advance_n(static_cast<u64>(ls.end - ls.begin));
    return acquire_span(idx);
  }

  /// Builds the packed tree below `node`; returns the subtree winner.
  /// min/max on the packings implement contest-with-stable-ties outright:
  /// the left subtree holds the lower source indices, and for equal keys
  /// the lower index bits make the left packing smaller.
  u64 build_packed(std::size_t node) {
    if (node >= k_) return leaf_packed(node - k_);
    const u64 l = build_packed(2 * node);
    const u64 r = build_packed(2 * node + 1);
    compares_ += static_cast<u64>(l != kExhausted && r != kExhausted);
    const bool l_wins = l <= r;
    packed_[node] = l_wins ? r : l;
    return l_wins ? l : r;
  }

  /// Installs the overall winner: the record is decoded from the key
  /// (bit-identical — the codec is exact and invertible), so peek() serves
  /// it from the tree without touching the source's buffer again.
  void set_winner_packed(u64 w) {
    winner_ = static_cast<std::size_t>(w & 0xffffffffu);
    if (w != kExhausted) {
      cur_rec_ = base::KeyCodec<T>::decode(w >> 32);
      cur_head_ = &cur_rec_;
    } else {
      cur_head_ = nullptr;
    }
  }

  /// Consumes `source`'s head and replays with its successor.  The fused
  /// advance_peek reaches the same record, and lands any refill at the same
  /// logical point, as the advance-then-peek sequence it replaces.
  void advance_update(std::size_t source) {
    if constexpr (kPacked) {
      LeafSpan& ls = leaves_[source];
      const T* p = ls.pos + 1;
      if (p != ls.end) [[likely]] {
        ls.pos = p;
        apply_head(source, p);
      } else {
        apply_head(source, resync_span(source));
      }
    } else {
      apply_head(source, sources_[source]->advance_peek());
    }
  }

  /// Re-peeks `source` (landing any refill at exactly the point the
  /// classic formulation would) and replays its root path.
  void update(std::size_t source) {
    apply_head(source, sources_[source]->peek());
  }

  /// Replays `source`'s root path given its (possibly null) new head.
  void apply_head(std::size_t source, const T* head) {
    if constexpr (kPacked) {
      u64 c = kExhausted;
      if (head != nullptr) {
        // The very next record of this source is touched by the following
        // pop/gallop; start pulling its line now.
        base::prefetch_read(head + 1);
        c = (base::KeyCodec<T>::encode(*head) << 32) |
            static_cast<u64>(source);
        if (exhausted_leaves_ == 0) {
          // Every contender on the path is live, so each level counts one
          // comparison — settle the whole path up front (root paths all
          // have depth log2(k) in the padded tree) and run the replay with
          // no per-level liveness tests.
          compares_ += depth_;
          for (std::size_t node = (k_ + source) / 2; node >= 1; node /= 2) {
            const u64 nd = packed_[node];
            const bool take = nd < c;
            packed_[node] = take ? c : nd;
            c = take ? nd : c;
          }
          set_winner_packed(c);
          return;
        }
      } else {
        // Sources never revive, so this is the leaf's single transition.
        ++exhausted_leaves_;
      }
      // One compare and two conditional moves per level; ties and
      // exhaustion need no cases of their own.
      for (std::size_t node = (k_ + source) / 2; node >= 1; node /= 2) {
        const u64 nd = packed_[node];
        compares_ += static_cast<u64>(nd != kExhausted && c != kExhausted);
        const bool take = nd < c;
        packed_[node] = take ? c : nd;
        c = take ? nd : c;
      }
      set_winner_packed(c);
    } else {
      if (head != nullptr) base::prefetch_read(head + 1);
      replay(source, head);
    }
  }

  /// Replays the path from `source` (current head `head`) to the root.
  /// One comparison is counted per level where both contenders are live —
  /// the same count, in the same order, as the classic source_less walk.
  void replay(std::size_t source, const T* head) {
    u32 cur_idx = static_cast<u32>(source);
    const T* cur_head = head;
    for (std::size_t node = (k_ + source) / 2; node >= 1; node /= 2) {
      Node& nd = nodes_[node];
      if (nd.head == nullptr) continue;
      bool take;
      if (cur_head == nullptr) {
        take = true;
      } else {
        ++compares_;
        // One comparison resolves order-with-stable-ties: when the node's
        // loser precedes the contender it also wins ties, so it takes over
        // iff !(cur < node); symmetrically otherwise.
        take = nd.idx < cur_idx ? !less_(*cur_head, *nd.head)
                                : less_(*nd.head, *cur_head);
      }
      if (take) {
        std::swap(cur_head, nd.head);
        std::swap(cur_idx, nd.idx);
      }
    }
    winner_ = cur_idx;
    cur_head_ = cur_head;
  }

  void flush_meter() {
    if (meter_ != nullptr && compares_ > reported_) {
      meter_->on_compares(compares_ - reported_);
      reported_ = compares_;
    }
  }

  std::vector<Source*> sources_;
  Less less_;
  Meter* meter_;
  std::size_t k_ = 0;
  std::vector<Node> nodes_;  ///< cached losers (comparator mode only)
  std::vector<u64> packed_;  ///< single-u64 nodes (kPacked mode only)
  std::size_t winner_ = 0;
  const T* cur_head_ = nullptr;  ///< cached head of the current winner
  T cur_rec_{};                  ///< decoded winner record (kPacked only)
  u32 depth_ = 0;             ///< root-path length log2(k_) (kPacked only)
  u32 exhausted_leaves_ = 0;  ///< padded + dried-up leaves (kPacked only)

  /// Cached buffered stretch of one source (kPacked).  `pos` is the
  /// source's current head; records in [begin, pos) are consumed but not
  /// yet reported to the cursor; pos == nullptr marks exhaustion.
  struct LeafSpan {
    const T* begin = nullptr;
    const T* pos = nullptr;
    const T* end = nullptr;
  };
  std::vector<LeafSpan> leaves_;  ///< indexed by source (kPacked only)
  u64 compares_ = 0;
  u64 reported_ = 0;
};

}  // namespace paladin::seq
