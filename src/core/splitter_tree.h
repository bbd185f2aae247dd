// Step 2's splitter selection, for every backend, flat or tree.
//
// select_splitters (at the end of this header) is the one collective: it
// pools every node's sample at node 0, cuts the pool at the ranks of one
// of core/sampling.h's rank rules, and broadcasts the cuts.  ext-psrs, the
// three random-sample backends (through core/backend.h's
// select_sample_splitters), in-core PSRS and bench_scalability all call
// it.  It pools the samples one of two ways:
//
//  * flat — the paper's Step 2: gather ≈ p·Σperf samples at the designated
//    node and sort them serially, an O(p²) sample volume and a single-node
//    serial bottleneck that dominates the makespan once p reaches the
//    hundreds (bench_scalability quantifies the crossover);
//  * tree — following the recursive pivot-group hierarchy of *Robust
//    Massively Parallel Sorting* (AMS, PAPERS.md), the nodes form
//    ≈√p-sized pivot-sorter groups: each group leader merges its members'
//    sorted samples with the loser-tree kernel, re-samples the merged run
//    into a bounded *weighted digest*, and forwards the digest up a
//    (possibly multi-level) tree.  No node ever holds more than
//    fanout·digest_budget ≈ O(p·polylog p) samples, the per-level merges
//    run concurrently across groups, and the final leader — always the
//    designated node — cuts the root digest by cumulative weight.
//
// Weight discipline: a digest point {v, w} asserts "w of the represented
// leaf samples are ≤ v (and greater than the previous digest point)".
// Stratified re-sampling emits a point every W = ⌈total/budget⌉ weight
// units, so total weight is conserved exactly and the root's rank error is
// at most one stratum per group per level: ≤ levels·total/budget overall.
// With the default budget max(4p, 2·levels·Σperf) and the tree path's 2×
// leaf oversampling, that error stays within the slack of the perf-
// weighted 2× sublist-expansion bound (docs/ALGORITHM.md works the
// arithmetic; *Optimal Round and Sample-Size Complexity for Partitioning
// in Parallel Sorting*, PAPERS.md, gives the general schedule).
//
// The geometry is a function of p alone (fanout ⌈√p⌉ clamped to [2, 32])
// and the budget of p and the rule's mass; neither is a setting.  A
// degenerate gather — one group (fanout ≥ p) and no re-sampling (budget ≥
// total) — reproduces the flat path *exactly*: the root digest is the
// fully merged sample multiset, and weighted_select at a rule's ranks picks
// the flat path's splitters (tests/test_splitter_tree.cpp pins this for
// every rule by calling splitter_tree_gather with those arguments).
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/sampling.h"
#include "core/wire_tags.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/trace.h"
#include "seq/counting.h"
#include "seq/cursors.h"
#include "seq/loser_tree.h"

namespace paladin::core {

/// kAuto switches to the tree at p >= this.
inline constexpr u32 kTreeThreshold = 32;

/// How Step 2 (and the sample-splitter phases of the other backends)
/// selects splitters.  kAuto picks flat below kTreeThreshold — so the
/// paper-scale runs (and the golden traces) keep the exact flat path — and
/// the tree above it.
enum class SplitterStrategy : u8 {
  kAuto,
  kFlat,
  kTree,
};

inline constexpr SplitterStrategy kAllSplitterStrategies[] = {
    SplitterStrategy::kAuto,
    SplitterStrategy::kFlat,
    SplitterStrategy::kTree,
};

inline const char* to_string(SplitterStrategy s) {
  switch (s) {
    case SplitterStrategy::kAuto: return "auto";
    case SplitterStrategy::kFlat: return "flat";
    case SplitterStrategy::kTree: return "tree";
  }
  PALADIN_UNREACHABLE();
}

/// Splitter selection for every backend; lives in BackendConfig.  The
/// default auto heuristic keeps the paper-scale runs flat (bit-identical
/// to the paper's path) and uses the √p-ary tree from kTreeThreshold up.
struct SplitterConfig {
  SplitterStrategy strategy = SplitterStrategy::kAuto;
};

/// Extra leaf-sampling densification on the tree path (multiplies the
/// backend's own oversample).  2 halves the leaf quantisation error,
/// buying the slack the digest re-sampling spends — see the bound
/// arithmetic in docs/ALGORITHM.md.
inline constexpr u64 kTreeLeafOversample = 2;

/// Whether this configuration routes splitter selection through the tree.
inline bool splitter_uses_tree(const SplitterConfig& cfg, u32 p) {
  if (p <= 1) return false;
  switch (cfg.strategy) {
    case SplitterStrategy::kFlat: return false;
    case SplitterStrategy::kTree: return true;
    case SplitterStrategy::kAuto: return p >= kTreeThreshold;
  }
  PALADIN_UNREACHABLE();
}

/// Group size per level: ⌈√p⌉ clamped to [2, 32].
inline u32 splitter_fanout(u32 p) {
  u32 g = 1;
  while (static_cast<u64>(g) * g < p) ++g;
  return std::clamp<u32>(g, 2, 32);
}

/// Tree depth: ⌈log_fanout p⌉.
inline u32 splitter_levels(u32 p, u32 fanout) {
  PALADIN_EXPECTS(fanout >= 2);
  u32 levels = 0;
  u64 active = p;
  while (active > 1) {
    active = ceil_div(active, static_cast<u64>(fanout));
    ++levels;
  }
  return levels;
}

/// Max digest points a node forwards per level: max(4p, 2·levels·Σperf).
inline u64 splitter_digest_budget(u32 p, u32 levels, u64 sum_perf) {
  return std::max<u64>(4 * static_cast<u64>(p),
                       2 * static_cast<u64>(levels) * sum_perf);
}

/// One digest point: `weight` represented leaf samples are ≤ `value` (and
/// above the previous point of the same digest).
template <Record T>
struct WeightedSample {
  T value;
  u64 weight;
};

/// Per-node observability of one tree gather, mirrored into the obs
/// counters splitter.levels / splitter.fanout / splitter.samples_forwarded.
struct SplitterTreeStats {
  u32 levels = 0;
  u32 fanout = 0;
  /// Digest points this node sent upward (0 for the root).
  u64 samples_forwarded = 0;
};

/// Merges `runs` (each sorted by value) with a loser tree charged to
/// `meter` and re-samples the merged stream into at most `digest_budget`
/// stratified points (weight conserved exactly).  With `merge_equal`,
/// equal-valued points are folded first with weight = max — the digest
/// then approximates the *unique-value* distribution (the Axtmann–Sanders
/// dedup mode), where max is the lossless fold as long as no re-sampling
/// happened below (each unique value counts once however many runs carry
/// it).
template <Record T, typename Less = std::less<T>>
std::vector<WeightedSample<T>> merge_weighted_runs(
    Meter& meter, std::vector<std::vector<WeightedSample<T>>>& runs,
    u64 digest_budget, bool merge_equal, Less less = {}) {
  using WS = WeightedSample<T>;
  PALADIN_EXPECTS(digest_budget >= 1);

  u64 total_points = 0;
  u64 total_weight = 0;
  for (const auto& run : runs) {
    for (const WS& ws : run) total_weight += ws.weight;
    total_points += run.size();
  }

  std::vector<seq::MemCursor<WS>> cursors;
  cursors.reserve(runs.size());
  for (const auto& run : runs) {
    cursors.emplace_back(std::span<const WS>(run));
  }
  std::vector<seq::MemCursor<WS>*> sources;
  sources.reserve(cursors.size());
  for (auto& c : cursors) sources.push_back(&c);
  auto value_less = [&less](const WS& a, const WS& b) {
    return less(a.value, b.value);
  };
  seq::LoserTree<WS, seq::MemCursor<WS>, decltype(value_less)> tree(
      std::move(sources), value_less, &meter);

  // Stratum width: emit a point every W weight units.  W == 1 keeps every
  // merged point — the lossless mode the degenerate configs rely on.
  const u64 strat =
      std::max<u64>(1, ceil_div(total_weight, digest_budget));
  std::vector<WS> out;
  out.reserve(std::min<u64>(total_points, digest_budget + 1));
  u64 acc = 0;
  T last{};
  auto feed = [&](const WS& ws) {
    acc += ws.weight;
    last = ws.value;
    if (acc >= strat) {
      out.push_back({ws.value, acc});
      acc = 0;
    }
  };

  WS cur{};
  bool have = false;
  u64 popped = 0;
  while (const WS* top = tree.peek()) {
    if (merge_equal && have && !less(cur.value, top->value) &&
        !less(top->value, cur.value)) {
      cur.weight = std::max(cur.weight, top->weight);
    } else {
      if (have) feed(cur);
      cur = *top;
      have = true;
    }
    ++popped;
    tree.pop_discard();
  }
  if (have) feed(cur);
  if (acc > 0) out.push_back({last, acc});  // trailing partial stratum
  meter.on_moves(popped);
  PALADIN_ASSERT(popped == total_points);
  return out;
}

/// Collective: reduces every node's sorted weighted sample up the group
/// tree to `root`; returns the root digest there (empty elsewhere).
/// Participants are ordered root-first (root, then the other ranks
/// ascending) so the final leader is always the designated node; each
/// non-leader sends exactly once, leaders receive members in ascending
/// order, so the result — and the virtual-time schedule — is
/// deterministic.  All sends go through the Communicator funnel, so the
/// digest streams get fault framing/retransmission for free.
template <Record T, typename Less = std::less<T>>
std::vector<WeightedSample<T>> splitter_tree_gather(
    net::NodeContext& ctx, u32 root, u32 fanout, u64 digest_budget,
    bool merge_equal, std::vector<WeightedSample<T>> digest, Less less = {},
    SplitterTreeStats* stats = nullptr) {
  using WS = WeightedSample<T>;
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  PALADIN_EXPECTS(root < p);
  PALADIN_EXPECTS(fanout >= 2);
  obs::Tracer* const tr = ctx.obs();

  if (stats != nullptr) {
    stats->levels = splitter_levels(p, fanout);
    stats->fanout = fanout;
  }
  if (p == 1) return digest;

  // Participant index: 0 = root, then the other ranks in ascending order.
  auto rank_of = [root](u64 participant) -> u32 {
    if (participant == 0) return root;
    const u32 r = static_cast<u32>(participant - 1);
    return r < root ? r : r + 1;
  };
  u32 idx = rank == root ? 0 : 1 + (rank < root ? rank : rank - 1);

  u32 active = p;
  u64 stride = 1;  // current-level index j sits at participant j·stride
  u32 level = 0;
  while (active > 1) {
    ++level;
    const u32 group = idx / fanout;
    const u32 lead = group * fanout;
    obs::ScopedSpan span(tr, "splitter.level" + std::to_string(level),
                         "splitter");
    if (idx != lead) {
      // Member: forward the digest to the group leader and drop out.
      comm.template send_records<WS>(rank_of(static_cast<u64>(lead) * stride),
                                     kTagSplitterDigest,
                                     std::span<const WS>(digest));
      if (stats != nullptr) stats->samples_forwarded += digest.size();
      span.arg("points_sent", digest.size());
      digest.clear();
      return digest;
    }
    // Leader: merge my digest with the members' (ascending index order).
    std::vector<std::vector<WS>> runs;
    runs.reserve(fanout);
    runs.push_back(std::move(digest));
    // At most `active`, as is the next level's count below: both casts
    // are exact.
    const u32 end = static_cast<u32>(
        std::min<u64>(static_cast<u64>(lead) + fanout, active));
    for (u32 m = lead + 1; m < end; ++m) {
      runs.push_back(comm.template recv_records<WS>(
          rank_of(static_cast<u64>(m) * stride), kTagSplitterDigest));
    }
    digest = merge_weighted_runs<T, Less>(ctx, runs, digest_budget,
                                          merge_equal, less);
    span.arg("points_kept", digest.size());
    span.end();
    active = static_cast<u32>(ceil_div(active, fanout));
    idx = group;
    stride *= fanout;
  }
  return digest;
}

/// Selects, for each (1-based, non-decreasing) cumulative-weight target,
/// the first digest point whose cumulative weight reaches it (clamped to
/// the last point) — the weighted generalisation of "the r-th smallest
/// sample".  With unit weights this is exactly digest[min(t−1, size−1)],
/// the flat paths' index arithmetic.
template <Record T>
std::vector<T> weighted_select(std::span<const WeightedSample<T>> digest,
                               std::span<const u64> targets) {
  PALADIN_EXPECTS(!digest.empty() || targets.empty());
  std::vector<T> out;
  out.reserve(targets.size());
  u64 cum = 0;  // weight strictly before digest[d]
  std::size_t d = 0;
  u64 prev = 0;
  for (u64 t : targets) {
    PALADIN_EXPECTS(t >= 1 && t >= prev);
    prev = t;
    while (d + 1 < digest.size() && cum + digest[d].weight < t) {
      cum += digest[d].weight;
      ++d;
    }
    out.push_back(digest[d].value);
  }
  return out;
}

namespace detail {

template <Record T>
std::vector<WeightedSample<T>> unit_weights(std::vector<T> values) {
  std::vector<WeightedSample<T>> out;
  out.reserve(values.size());
  for (const T& v : values) out.push_back({v, 1});
  return out;
}

}  // namespace detail

/// Step 2's PSRS sampling density: the oversample the PSRS ranks assume and
/// the stride every node draws its regular sample at.
struct PsrsSampling {
  u64 oversample = 1;
  u64 stride = 1;
};

/// Flat samples at `oversample` (PerfVector::sample_stride, which rejects
/// n < p·Σperf·oversample); the tree densifies it by kTreeLeafOversample and
/// clamps the stride (sample_stride_clamped), so it survives huge p.
inline PsrsSampling psrs_sampling(const hetero::PerfVector& perf, u64 n,
                                  u64 oversample, bool tree) {
  if (!tree) return {oversample, perf.sample_stride(n, oversample)};
  const u64 o = oversample * kTreeLeafOversample;
  return {o, perf.sample_stride_clamped(n, o)};
}

/// Step 2's one selection collective, for every backend: pools every
/// node's `sample` at node 0, cuts the pool at the 1-based ranks
/// `ranks(S)` returns for a pool of S (a rank rule of core/sampling.h), and
/// broadcasts the cut keys, so every node returns the same splitters in
/// sorted order.
///
///  * Flat (`tree` false): the samples are gathered unsorted, given one
///    metered sort at node 0 and cut at sorted[min(r−1, S−1)].
///  * Tree: the √p-ary digest gather above pools them; a `sorted` sample
///    (PSRS's regular draw) enters as is, any other gets a local metered
///    sort first.  weighted_select picks at the same ranks, in units of
///    digest weight — the same records whenever every weight is 1.  The
///    digest budget is splitter_digest_budget(p, levels, `mass`).
///
/// With `unique` the pool is de-duplicated before the cut (Axtmann–Sanders
/// robust-sorting style): heavy duplicate mass cannot collapse several
/// splitters onto one key, which would funnel the whole duplicate class —
/// and the partitions pinched between the equal splitters — onto a single
/// node.  Flat de-duplicates the sorted pool; the tree de-duplicates each
/// local sample and folds equal digest points (merge_equal).  The pool must
/// hold more samples than splitters before de-duplication; in unique mode
/// the tree, which cannot count them, needs only a non-empty digest, and
/// cuts collapse onto the distinct values when they are fewer.
template <Record T, typename RankRule, typename Less = std::less<T>>
std::vector<T> select_splitters(net::NodeContext& ctx, std::vector<T> sample,
                                RankRule&& ranks, bool tree, bool sorted,
                                bool unique, u64 mass, Less less = {}) {
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  constexpr u32 root = 0;
  const auto dedup = [&less](std::vector<T>& v) {
    const auto equiv = [&less](const T& a, const T& b) {
      return !less(a, b) && !less(b, a);
    };
    v.erase(std::unique(v.begin(), v.end(), equiv), v.end());
  };
  constexpr char kTooFew[] = "not enough samples for the requested splitters";

  std::vector<T> splitters;
  SplitterTreeStats stats;
  if (!tree) {
    std::vector<T> pool =
        comm.template gather_records<T>(std::span<const T>(sample), root);
    if (comm.rank() == root) {
      const u64 pooled = pool.size();
      seq::metered_sort(std::span<T>(pool), ctx, less);
      if (unique) dedup(pool);
      const std::vector<u64> cuts = ranks(pool.size());
      PALADIN_EXPECTS_MSG(pooled > cuts.size(), kTooFew);
      splitters = pick_ranks(std::span<const T>(pool), cuts);
    }
  } else {
    if (!sorted) seq::metered_sort(std::span<T>(sample), ctx, less);
    if (unique) dedup(sample);
    const u32 fanout = splitter_fanout(p);
    const std::vector<WeightedSample<T>> digest =
        splitter_tree_gather<T, Less>(
            ctx, root, fanout,
            splitter_digest_budget(p, splitter_levels(p, fanout), mass),
            /*merge_equal=*/unique, detail::unit_weights<T>(std::move(sample)),
            less, &stats);
    if (comm.rank() == root) {
      u64 total = 0;
      for (const auto& ws : digest) total += ws.weight;
      const std::vector<u64> cuts = ranks(total);
      PALADIN_EXPECTS_MSG(total > (unique ? 0 : cuts.size()), kTooFew);
      splitters = weighted_select<T>(
          std::span<const WeightedSample<T>>(digest), cuts);
    }
  }
  splitters = comm.template bcast_records<T>(std::move(splitters), root);
  if (obs::Tracer* const tr = ctx.obs(); tree && tr != nullptr) {
    tr->counters().set("splitter.levels", stats.levels);
    tr->counters().set("splitter.fanout", stats.fanout);
    tr->counters().add("splitter.samples_forwarded", stats.samples_forwarded);
  }
  return splitters;
}

}  // namespace paladin::core
