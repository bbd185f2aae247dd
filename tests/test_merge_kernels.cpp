// Equivalence proofs for the optimized merge kernels (docs/ALGORITHM.md,
// "Merge kernel engineering").  Three layers are checked against their
// pre-optimization references:
//
//  1. Tree level: the optimized LoserTree vs a verbatim copy of the classic
//     pointer-chasing tree (ClassicLoserTree below) — identical output,
//     identical comparison counts, and identical meter batch sequences,
//     across every workload distribution, fan-in, per-record vs gallop
//     drains, and both node modes: packed (u32 under std::less) and
//     comparator (u64 under std::less, and 100-byte Datamation records in
//     memcmp order).
//  2. Codec level: KeyCodec encodings are strictly order-preserving.
//  3. Disk level: merge_run_group on the in-memory disk vs the real-file
//     posix disk — byte-identical output files, identical IoStats, and a
//     bit-identical *event sequence* (every meter batch and every
//     cost-sink charge, in order), which subsumes virtual-clock equality
//     under floating-point addition.  The spill merge
//     (core::merge_sorted_pieces) meets the same bar while it frees the
//     in-memory pieces behind its readers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/key_codec.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "core/merge_files.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/run_formation.h"
#include "test_params.h"
#include "workload/datamation.h"
#include "workload/generators.h"

namespace paladin {
namespace {

namespace fs = std::filesystem;
using workload::DatamationLess;
using workload::DatamationRecord;
using workload::Dist;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------
// ClassicLoserTree: verbatim copy of the pre-optimization tree (the
// pointer-chasing structure this PR replaced).  It is the semantic
// reference — the optimized tree must be indistinguishable from it in
// everything the simulation model observes.
// ---------------------------------------------------------------------

template <Record T, typename Source, typename Less = std::less<T>>
class ClassicLoserTree {
 public:
  explicit ClassicLoserTree(std::vector<Source*> sources, Less less = {},
                            Meter* meter = nullptr)
      : sources_(std::move(sources)), less_(less), meter_(meter) {
    PALADIN_EXPECTS(!sources_.empty());
    k_ = 1;
    while (k_ < sources_.size()) k_ *= 2;
    tree_.assign(k_, kNone);
    winner_ = build(1);
    flush_meter();
  }

  ClassicLoserTree(const ClassicLoserTree&) = delete;
  ClassicLoserTree& operator=(const ClassicLoserTree&) = delete;

  ~ClassicLoserTree() { flush_meter(); }

  const T* peek() {
    return winner_ < sources_.size() ? sources_[winner_]->peek() : nullptr;
  }

  void pop_discard() {
    PALADIN_EXPECTS(peek() != nullptr);
    sources_[winner_]->advance();
    replay(winner_);
  }

  template <typename Sink>
  u64 pop_run_into(Sink& sink, u64 limit = ~u64{0}) {
    u64 emitted = 0;
    u32 ones_streak = 0;
    while (emitted < limit && peek() != nullptr) {
      if (ones_streak >= kGallopRetry) {
        u64 todo = std::min<u64>(kFallbackStretch, limit - emitted);
        while (todo > 0) {
          const T* top = peek();
          if (top == nullptr) break;
          sink.push(*top);
          sources_[winner_]->advance();
          replay(winner_);
          ++emitted;
          --todo;
        }
        ones_streak = 0;
        continue;
      }
      Source& src = *sources_[winner_];
      const std::span<const T> tail = src.buffered();
      PALADIN_ASSERT(!tail.empty());
      u64 n = std::min<u64>(tail.size(), limit - emitted);
      u64 live_losers = 0;
      for (std::size_t node = (k_ + winner_) / 2; node >= 1; node /= 2) {
        const std::size_t loser = tree_[node];
        if (loser == kNone) continue;
        const T* head = peek_source(loser);
        if (head == nullptr) continue;
        ++live_losers;
        if (loser < winner_) {
          n = gallop(n, [&](u64 j) { return less_(tail[j], *head); });
        } else {
          n = gallop(n, [&](u64 j) { return !less_(*head, tail[j]); });
        }
      }
      PALADIN_ASSERT(n >= 1);
      sink.push_span(tail.first(n));
      src.advance_n(n);
      compares_ += (n - 1) * live_losers;
      replay(winner_);
      emitted += n;
      ones_streak = n == 1 ? ones_streak + 1 : 0;
    }
    return emitted;
  }

  u64 comparisons() const { return compares_; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr u32 kGallopRetry = 1;
  static constexpr u64 kFallbackStretch = 256;

  const T* peek_source(std::size_t s) {
    return s < sources_.size() ? sources_[s]->peek() : nullptr;
  }

  bool source_less(std::size_t a, std::size_t b) {
    const T* pa = peek_source(a);
    const T* pb = peek_source(b);
    if (pa == nullptr) return false;
    if (pb == nullptr) return true;
    ++compares_;
    return a < b ? !less_(*pb, *pa) : less_(*pa, *pb);
  }

  std::size_t build(std::size_t node) {
    if (node >= k_) return node - k_;
    const std::size_t l = build(2 * node);
    const std::size_t r = build(2 * node + 1);
    if (source_less(l, r)) {
      tree_[node] = r;
      return l;
    }
    tree_[node] = l;
    return r;
  }

  template <typename Pred>
  static u64 gallop(u64 bound, Pred still_ahead) {
    u64 last_true = 0;
    u64 probe = 1;
    while (probe < bound && still_ahead(probe)) {
      last_true = probe;
      probe *= 2;
    }
    u64 lo = last_true + 1;
    u64 hi = std::min<u64>(probe, bound);
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

  void replay(std::size_t source) {
    std::size_t cur = source;
    for (std::size_t node = (k_ + source) / 2; node >= 1; node /= 2) {
      if (tree_[node] != kNone && source_less(tree_[node], cur)) {
        std::swap(cur, tree_[node]);
      }
    }
    winner_ = cur;
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
  std::vector<std::size_t> tree_;
  std::size_t winner_ = kNone;
  u64 compares_ = 0;
  u64 reported_ = 0;
};

// ---------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------

// The optimized tree packs its nodes for u32/std::less and uses the
// comparator for keys whose image does not fit 32 bits and for records the
// codec cannot encode.
static_assert(seq::LoserTree<u32, seq::MemCursor<u32>>::kPacked);
static_assert(seq::LoserTree<i32, seq::MemCursor<i32>>::kPacked);
static_assert(!seq::LoserTree<u64, seq::MemCursor<u64>>::kPacked);
static_assert(!seq::LoserTree<i64, seq::MemCursor<i64>>::kPacked);
static_assert(!seq::LoserTree<DatamationRecord, seq::MemCursor<DatamationRecord>,
                              DatamationLess>::kPacked);
// A custom comparator on an encodable type must also select the comparator
// — the radix order only matches std::less.
static_assert(
    !seq::LoserTree<u32, seq::MemCursor<u32>, std::greater<u32>>::kPacked);
static_assert(!base::KeyCodec<float>::kEncodable);
static_assert(!base::KeyCodec<double>::kEncodable);

/// One meter or cost-sink charge; doubles are compared bit-for-bit.
struct Event {
  char kind;  ///< 'c' compares, 'm' moves, 's' seconds, 'i' disk sink
  u64 value;
  bool operator==(const Event&) const = default;
};

/// Meter that records the exact batch sequence it is handed.
class EventMeter final : public Meter {
 public:
  explicit EventMeter(std::vector<Event>& log) : log_(&log) {}
  void on_compares(u64 n) override { log_->push_back({'c', n}); }
  void on_moves(u64 n) override { log_->push_back({'m', n}); }
  void on_seconds(double s) override {
    log_->push_back({'s', std::bit_cast<u64>(s)});
  }

 private:
  std::vector<Event>* log_;
};

template <typename T>
struct VecSink {
  std::vector<T> out;
  void push(const T& v) { out.push_back(v); }
  void push_span(std::span<const T> s) {
    out.insert(out.end(), s.begin(), s.end());
  }
};

std::vector<u32> make_input(Dist dist, u64 n, u64 seed) {
  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = 4;
  spec.seed = seed;
  std::vector<u32> all;
  for (u32 node = 0; node < 4; ++node) {
    const auto part =
        workload::generate_share(spec, node, node * (n / 4), n / 4);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// Splits `keys` into k sorted runs with deliberately ragged lengths; when
/// k >= 3 the second run is left empty so exhausted-sentinel handling is
/// always on the matrix.
std::vector<std::vector<u32>> make_runs(const std::vector<u32>& keys, u32 k) {
  std::vector<std::vector<u32>> runs(k);
  const u64 n = keys.size();
  u64 pos = 0;
  for (u32 i = 0; i < k; ++i) {
    u64 len = (i + 1 == k) ? n - pos : n / k + (i % 3) * (n / (4 * k));
    if (k >= 3 && i == 1) len = 0;
    len = std::min<u64>(len, n - pos);
    runs[i].assign(keys.begin() + static_cast<std::ptrdiff_t>(pos),
                   keys.begin() + static_cast<std::ptrdiff_t>(pos + len));
    std::sort(runs[i].begin(), runs[i].end());
    pos += len;
  }
  return runs;
}

/// Widens a u32 key to a Datamation record: big-endian key in bytes 0–3
/// (so memcmp order equals the u32 order, and equal keys stay ties), with
/// the record's global id stamped into the payload.  Byte-comparing merge
/// outputs therefore detects any stability divergence — equal-key records
/// must be emitted in the same source order by both trees.
DatamationRecord widen(u32 key, u64 uid) {
  DatamationRecord r{};
  r.key[0] = static_cast<u8>(key >> 24);
  r.key[1] = static_cast<u8>(key >> 16);
  r.key[2] = static_cast<u8>(key >> 8);
  r.key[3] = static_cast<u8>(key);
  std::memcpy(r.payload, &uid, sizeof(uid));
  return r;
}

template <typename T>
void expect_records_eq(const std::vector<T>& a, const std::vector<T>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_TRUE(a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0)
      << what;
}

// ---------------------------------------------------------------------
// Codec level
// ---------------------------------------------------------------------

TEST(KeyCodec, UnsignedEncodingPreservesOrder) {
  const u32 vals32[] = {0, 1, 2, 0x7fffffffu, 0x80000000u, 0xfffffffeu,
                        0xffffffffu};
  for (u32 a : vals32) {
    for (u32 b : vals32) {
      EXPECT_EQ(a < b, base::KeyCodec<u32>::encode(a) <
                           base::KeyCodec<u32>::encode(b));
    }
  }
  const u64 vals64[] = {0, 1, u64{1} << 32, ~u64{0} - 1, ~u64{0}};
  for (u64 a : vals64) {
    for (u64 b : vals64) {
      EXPECT_EQ(a < b, base::KeyCodec<u64>::encode(a) <
                           base::KeyCodec<u64>::encode(b));
    }
  }
}

TEST(KeyCodec, SignedEncodingPreservesOrder) {
  const i32 vals[] = {std::numeric_limits<i32>::min(), -2, -1, 0, 1,
                      std::numeric_limits<i32>::max()};
  for (i32 a : vals) {
    for (i32 b : vals) {
      EXPECT_EQ(a < b, base::KeyCodec<i32>::encode(a) <
                           base::KeyCodec<i32>::encode(b));
    }
  }
  const i64 vals64[] = {std::numeric_limits<i64>::min(), -1, 0, 1,
                        std::numeric_limits<i64>::max()};
  for (i64 a : vals64) {
    for (i64 b : vals64) {
      EXPECT_EQ(a < b, base::KeyCodec<i64>::encode(a) <
                           base::KeyCodec<i64>::encode(b));
    }
  }
}

// ---------------------------------------------------------------------
// Tree level: optimized vs classic, full distribution × fan-in matrix
// ---------------------------------------------------------------------

/// Everything one in-memory merge run produces.
template <typename T>
struct TreeObserved {
  std::vector<T> output;
  u64 comparisons = 0;
  std::vector<Event> events;
};

template <typename Tree, typename T, typename Less>
TreeObserved<T> run_tree(const std::vector<std::vector<T>>& runs, Less less,
                         bool bulk) {
  TreeObserved<T> obs;
  EventMeter meter(obs.events);
  std::vector<seq::MemCursor<T>> cursors;
  cursors.reserve(runs.size());
  for (const auto& r : runs) cursors.emplace_back(std::span<const T>(r));
  std::vector<seq::MemCursor<T>*> sources;
  for (auto& c : cursors) sources.push_back(&c);
  {
    Tree tree(std::move(sources), less, &meter);
    if (bulk) {
      VecSink<T> sink;
      tree.pop_run_into(sink);
      obs.output = std::move(sink.out);
    } else {
      while (const T* top = tree.peek()) {
        obs.output.push_back(*top);
        tree.pop_discard();
      }
    }
    obs.comparisons = tree.comparisons();
  }
  return obs;
}

template <typename T, typename Less>
void check_tree_matrix(const std::vector<std::vector<T>>& runs, Less less,
                       const std::string& what) {
  using Classic = ClassicLoserTree<T, seq::MemCursor<T>, Less>;
  using Fast = seq::LoserTree<T, seq::MemCursor<T>, Less>;
  const auto ref = run_tree<Classic, T>(runs, less, /*bulk=*/false);
  const auto ref_bulk = run_tree<Classic, T>(runs, less, /*bulk=*/true);
  const auto got = run_tree<Fast, T>(runs, less, /*bulk=*/false);
  const auto got_bulk = run_tree<Fast, T>(runs, less, /*bulk=*/true);

  // The classic tree's own invariant first: gallop drains are
  // count-neutral.  Then the optimized tree against it, both modes.
  EXPECT_EQ(ref.comparisons, ref_bulk.comparisons) << what;
  for (const auto* o : {&ref_bulk, &got, &got_bulk}) {
    expect_records_eq(ref.output, o->output, what);
    EXPECT_EQ(ref.comparisons, o->comparisons) << what;
    // Same meter batches in the same order — the virtual clock advances
    // through identical floating-point additions.
    EXPECT_EQ(ref.events, o->events) << what;
  }
}

TEST(MergeKernels, OptimizedTreeMatchesClassicOnAllDistributions) {
  constexpr u64 kRecords = 4096;
  for (Dist dist : workload::kAllDists) {
    const auto keys = make_input(dist, kRecords, /*seed=*/77);
    for (u32 k : {2u, 3u, 8u, 64u}) {
      const std::string what = std::string(workload::to_string(dist)) +
                               "/k=" + std::to_string(k);
      SCOPED_TRACE(what);
      const auto runs = make_runs(keys, k);

      // Packed mode: u32 keys under std::less.
      check_tree_matrix<u32>(runs, std::less<u32>{}, what + "/u32");

      // Comparator mode on 64-bit keys: the u32 key moves to the high half
      // (order and ties unchanged) and its complement fills the low half,
      // so the values span all 64 bits.
      std::vector<std::vector<u64>> wide64(runs.size());
      for (std::size_t i = 0; i < runs.size(); ++i) {
        for (u32 key : runs[i]) {
          wide64[i].push_back((u64{key} << 32) | u64{~key});
        }
      }
      check_tree_matrix<u64>(wide64, std::less<u64>{}, what + "/u64");

      // Comparator mode on wide records under memcmp order, with ids
      // in the payload so stability divergences change the output bytes.
      std::vector<std::vector<DatamationRecord>> wide(runs.size());
      u64 uid = 0;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        wide[i].reserve(runs[i].size());
        for (u32 key : runs[i]) wide[i].push_back(widen(key, uid++));
      }
      check_tree_matrix<DatamationRecord>(wide, DatamationLess{},
                                          what + "/wide");
    }
  }
}

TEST(MergeKernels, SingleSourceAndAllEmptyEdgeCases) {
  const std::vector<std::vector<u32>> single = {{1, 2, 2, 3}};
  check_tree_matrix<u32>(single, std::less<u32>{}, "single-source");
  const std::vector<std::vector<u32>> empty = {{}, {}, {}};
  check_tree_matrix<u32>(empty, std::less<u32>{}, "all-empty");
}

// ---------------------------------------------------------------------
// Disk level: in-memory vs posix backend
// ---------------------------------------------------------------------

/// A scratch directory for posix-backed cases, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("paladin_mrgk_" + tag + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_id()))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  static u64 next_id() {
    static std::atomic<u64> counter{0};
    return counter.fetch_add(1);
  }

  fs::path path_;
};

struct DiskObserved {
  std::vector<u32> output;
  pdm::IoStats stats;
  std::vector<Event> events;  ///< meter batches and cost-sink charges, in order
  u64 merged = 0;
};

struct DiskMergeCase {
  const char* label;
  bool posix;
};

void expect_disk_identical(const DiskObserved& base, const DiskObserved& got,
                           const std::string& what) {
  EXPECT_EQ(base.merged, got.merged) << what;
  EXPECT_EQ(base.output, got.output) << what;
  EXPECT_EQ(base.stats.blocks_read, got.stats.blocks_read) << what;
  EXPECT_EQ(base.stats.blocks_written, got.stats.blocks_written) << what;
  EXPECT_EQ(base.stats.bytes_read, got.stats.bytes_read) << what;
  EXPECT_EQ(base.stats.bytes_written, got.stats.bytes_written) << what;
  EXPECT_EQ(base.stats.files_created, got.stats.files_created) << what;
  // The full charge sequence, bit for bit: meter batches and per-block
  // disk-sink charges must interleave identically, so any downstream
  // virtual clock sums the same doubles in the same order.
  EXPECT_EQ(base.events, got.events) << what;
}

/// Forms ragged sorted runs from `dist`, writes them back-to-back, merges
/// them with `merge_run_group` on the disk `mode` describes, and captures
/// everything the simulation model can observe.  The event log starts
/// after setup so only the merge itself is compared.
DiskObserved run_disk_merge(Dist dist, u64 n, u32 k,
                            const DiskMergeCase& mode) {
  ScratchDir dir(std::string("d") + std::to_string(static_cast<int>(dist)));
  const pdm::DiskParams params = pdm::DiskParams::fast();
  pdm::Disk disk = mode.posix ? pdm::Disk::posix(dir.path(), params)
                              : pdm::Disk::in_memory(params);

  const auto keys = make_input(dist, n, /*seed=*/123);
  const auto runs = make_runs(keys, k);
  seq::RunLayout layout;
  {
    pdm::BlockFile f = disk.create("runs");
    pdm::BlockWriter<u32> w(f);
    for (const auto& r : runs) {
      for (u32 v : r) w.push(v);
      layout.run_lengths.push_back(r.size());
      layout.total_records += r.size();
    }
    w.flush();
  }

  DiskObserved obs;
  disk.set_cost_sink([&obs](double s) {
    obs.events.push_back({'i', std::bit_cast<u64>(s)});
  });
  EventMeter meter(obs.events);
  {
    pdm::BlockFile out = disk.create("out");
    pdm::BlockWriter<u32> w(out);
    obs.merged =
        seq::merge_run_group<u32>(disk, "runs", layout, 0, k, w, meter);
    w.flush();
  }
  obs.stats = disk.stats();

  disk.set_cost_sink([](double) {});
  pdm::BlockFile out = disk.open("out");
  pdm::BlockReader<u32> reader(out);
  obs.output.reserve(obs.merged);
  while (const u32* v = reader.peek()) {
    obs.output.push_back(*v);
    reader.advance();
  }
  return obs;
}

// Disk accounting happens above the backend, so the merge's whole event
// sequence must not depend on whether real files or memory hold the bytes.
TEST(MergeKernels, DiskMergeCostsIndependentOfBackend) {
  constexpr u64 kRecords = 12000;
  constexpr u32 kPieces = 6;
  const DiskMergeCase mem{"mem", false};
  const DiskMergeCase posix{"posix", true};
  const Dist kDists[] = {Dist::kUniform, Dist::kZero, Dist::kZipf,
                         Dist::kSorted, Dist::kStaggered};
  for (Dist dist : kDists) {
    const std::string what = workload::to_string(dist);
    SCOPED_TRACE(what);
    const DiskObserved base = run_disk_merge(dist, kRecords, kPieces, mem);
    ASSERT_EQ(base.merged, kRecords) << what;
    ASSERT_TRUE(std::is_sorted(base.output.begin(), base.output.end()))
        << what;
    expect_disk_identical(base, run_disk_merge(dist, kRecords, kPieces, posix),
                          what + "/" + posix.label);
  }
}

// ---------------------------------------------------------------------
// Spill merge: freeing the pieces behind the readers
// ---------------------------------------------------------------------

// MemBackend frees storage in whole 1 MiB chunks: 2^18 u32 records.
constexpr u64 kChunkRecords = (u64{1} << 20) / sizeof(u32);
// Pieces A = [0, kA) and B = [kA, kA + kB) share "shared", followed by a
// tail of records in no piece; C = [kHead, kHead + kC) sits in "other"
// behind a head in no piece.  A ends and C starts inside a chunk, and
// the pieces hold 5.6 MB in all.
constexpr u64 kA = 300000;
constexpr u64 kB = 500000;
constexpr u64 kTail = 1000;
constexpr u64 kHead = 1000;
constexpr u64 kC = 600000;
constexpr u32 kOutside = 0xfeedbeef;  // the head and tail records

struct SpillMergeInput {
  std::vector<u32> a, b, c;
};

SpillMergeInput spill_merge_input(Dist dist) {
  const std::vector<u32> keys = make_input(dist, kA + kB + kC, 321);
  SpillMergeInput in;
  in.a.assign(keys.begin(), keys.begin() + kA);
  in.b.assign(keys.begin() + kA, keys.begin() + kA + kB);
  in.c.assign(keys.begin() + kA + kB, keys.end());
  for (std::vector<u32>* run : {&in.a, &in.b, &in.c}) {
    std::sort(run->begin(), run->end());
  }
  return in;
}

/// Lays the three pieces out on `disk` and merges them with
/// core::merge_sorted_pieces, capturing what the model can observe; the
/// event log starts after setup.
DiskObserved run_spill_merge(pdm::Disk& disk, const SpillMergeInput& in) {
  {
    pdm::BlockFile f = disk.create("shared");
    pdm::BlockWriter<u32> w(f);
    w.push_span(std::span<const u32>(in.a));
    w.push_span(std::span<const u32>(in.b));
    for (u64 i = 0; i < kTail; ++i) w.push(kOutside);
    w.flush();
  }
  {
    pdm::BlockFile f = disk.create("other");
    pdm::BlockWriter<u32> w(f);
    for (u64 i = 0; i < kHead; ++i) w.push(kOutside);
    w.push_span(std::span<const u32>(in.c));
    w.flush();
  }
  const std::vector<seq::MergePiece> pieces = {
      {"shared", 0, kA}, {"shared", kA, kB}, {"other", kHead, kC}};

  DiskObserved obs;
  disk.set_cost_sink([&obs](double s) {
    obs.events.push_back({'i', std::bit_cast<u64>(s)});
  });
  EventMeter meter(obs.events);
  const core::MergeOutcome m = core::merge_sorted_pieces<u32>(
      disk, pieces, "out", /*memory_records=*/u64{1} << 16, meter);
  EXPECT_EQ(m.passes, 1u);
  obs.merged = m.merged;
  obs.stats = disk.stats();
  disk.set_cost_sink([](double) {});
  obs.output = pdm::read_file<u32>(disk, "out");
  return obs;
}

/// Reads record `index` of `name` straight through the block file.
u32 record_at(pdm::Disk& disk, const std::string& name, u64 index) {
  pdm::BlockFile f = disk.open(name);
  u32 v = 0;
  f.read_at(index * sizeof(u32),
            std::span<u8>(reinterpret_cast<u8*>(&v), sizeof(v)));
  return v;
}

class SpillMergeFreeBehind : public ::testing::TestWithParam<Dist> {};

// Real files keep every byte, so the in-memory merge, which frees its
// pieces as it passes them, must match the posix merge in output, IoStats
// and the whole charge sequence.  Afterwards a chunk that lies wholly
// inside a piece is gone, and every chunk that a piece shares with
// another piece or with records outside the pieces still reads.
TEST_P(SpillMergeFreeBehind, ReleasesOnlyChunksInsideEachPiece) {
  const SpillMergeInput in = spill_merge_input(GetParam());
  std::vector<u32> expected = in.a;
  expected.insert(expected.end(), in.b.begin(), in.b.end());
  expected.insert(expected.end(), in.c.begin(), in.c.end());
  std::sort(expected.begin(), expected.end());

  pdm::Disk mem = pdm::Disk::in_memory(pdm::DiskParams::fast());
  const DiskObserved base = run_spill_merge(mem, in);
  EXPECT_EQ(base.output, expected);
  ScratchDir dir("spill");
  pdm::Disk posix = pdm::Disk::posix(dir.path(), pdm::DiskParams::fast());
  expect_disk_identical(base, run_spill_merge(posix, in), "posix");

  // Chunks 0 and 2 of "shared" lie inside A and B, chunk 1 of "other"
  // inside C: released.
  EXPECT_THROW(record_at(mem, "shared", 0), ContractViolation);
  EXPECT_THROW(record_at(mem, "shared", 2 * kChunkRecords),
               ContractViolation);
  EXPECT_THROW(record_at(mem, "other", kChunkRecords), ContractViolation);
  // Chunk 1 of "shared" holds A's end and B's start, chunk 3 B's end and
  // the tail; chunk 0 of "other" holds the head and C's start, chunk 2
  // C's end.  All still read.
  for (pdm::Disk* disk : {&mem, &posix}) {
    EXPECT_EQ(record_at(*disk, "shared", kA - 1), in.a.back());
    EXPECT_EQ(record_at(*disk, "shared", kA), in.b.front());
    EXPECT_EQ(record_at(*disk, "shared", kA + kB - 1), in.b.back());
    EXPECT_EQ(record_at(*disk, "shared", kA + kB), kOutside);
    EXPECT_EQ(record_at(*disk, "other", 0), kOutside);
    EXPECT_EQ(record_at(*disk, "other", kHead), in.c.front());
    EXPECT_EQ(record_at(*disk, "other", kHead + kC - 1), in.c.back());
  }
  // The posix files keep every byte.
  EXPECT_EQ(record_at(posix, "shared", 0), in.a.front());
  EXPECT_EQ(record_at(posix, "other", kChunkRecords),
            in.c[kChunkRecords - kHead]);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, SpillMergeFreeBehind,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// A 100-byte record gives 327 records to a 32 KiB block, and a 32,700-byte
// block does not divide a 1 MiB chunk, so a piece's last block can run
// over a chunk boundary into the next piece of the same file.  Piece A
// ends 76 bytes before the boundary at 1 MiB and its last block runs
// 30,524 bytes past it; piece B, 3 MiB of keys all below A's, drains
// before A reads that block.  B frees only chunks inside its own whole
// blocks, so A's last block still reads and the merge matches posix.
TEST(SpillMergeFreeBehindBlocks, NeighbourBlockOverAChunkBoundaryStillReads) {
  constexpr u64 kChunkBytes = u64{1} << 20;
  constexpr u64 kRecordsA = kChunkBytes / sizeof(DatamationRecord);
  constexpr u64 kRecordsB = 3 * kRecordsA;
  std::vector<DatamationRecord> a, b;
  for (u64 i = 0; i < kRecordsB; ++i) b.push_back(widen(static_cast<u32>(i), i));
  for (u64 i = 0; i < kRecordsA; ++i) {
    a.push_back(widen(static_cast<u32>(kRecordsB + i), kRecordsB + i));
  }

  struct Observed {
    std::vector<DatamationRecord> output;
    pdm::IoStats stats;
    std::vector<Event> events;
  };
  const auto merge = [&](pdm::Disk& disk) {
    {
      pdm::BlockFile f = disk.create("shared");
      pdm::BlockWriter<DatamationRecord> w(f);
      w.push_span(std::span<const DatamationRecord>(a));
      w.push_span(std::span<const DatamationRecord>(b));
      w.flush();
    }
    Observed obs;
    disk.set_cost_sink([&obs](double s) {
      obs.events.push_back({'i', std::bit_cast<u64>(s)});
    });
    EventMeter meter(obs.events);
    const core::MergeOutcome m =
        core::merge_sorted_pieces<DatamationRecord, DatamationLess>(
            disk, {{"shared", 0, kRecordsA}, {"shared", kRecordsA, kRecordsB}},
            "out", /*memory_records=*/u64{1} << 12, meter);
    EXPECT_EQ(m.passes, 1u);
    EXPECT_EQ(m.merged, kRecordsA + kRecordsB);
    obs.stats = disk.stats();
    disk.set_cost_sink([](double) {});
    obs.output = pdm::read_file<DatamationRecord>(disk, "out");
    return obs;
  };
  const auto key_at = [](pdm::Disk& disk, u64 index) {
    pdm::BlockFile f = disk.open("shared");
    DatamationRecord r{};
    f.read_at(index * sizeof(r),
              std::span<u8>(reinterpret_cast<u8*>(&r), sizeof(r)));
    return std::vector<u8>(std::begin(r.key), std::end(r.key));
  };

  pdm::Disk mem = pdm::Disk::in_memory(pdm::DiskParams::fast());
  const Observed base = merge(mem);
  std::vector<DatamationRecord> expected = b;
  expected.insert(expected.end(), a.begin(), a.end());
  expect_records_eq(base.output, expected, "memory");
  ScratchDir dir("spill-blocks");
  pdm::Disk posix = pdm::Disk::posix(dir.path(), pdm::DiskParams::fast());
  const Observed got = merge(posix);
  expect_records_eq(base.output, got.output, "posix");
  EXPECT_EQ(base.stats.blocks_read, got.stats.blocks_read);
  EXPECT_EQ(base.stats.blocks_written, got.stats.blocks_written);
  EXPECT_EQ(base.events, got.events);

  // Chunk 2 lies inside B's whole blocks: released.  Chunk 1 holds A's
  // last block: it still reads, on both sides of the boundary.
  EXPECT_THROW(key_at(mem, 2 * kChunkBytes / sizeof(DatamationRecord) + 1),
               ContractViolation);
  for (pdm::Disk* disk : {&mem, &posix}) {
    EXPECT_EQ(key_at(*disk, kRecordsA - 1),
              std::vector<u8>(std::begin(a.back().key), std::end(a.back().key)));
    EXPECT_EQ(key_at(*disk, kRecordsA),
              std::vector<u8>(std::begin(b.front().key),
                              std::end(b.front().key)));
  }
}

}  // namespace
}  // namespace paladin
