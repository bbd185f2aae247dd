// Step 2 of the paper's Algorithm 1: regular sampling of each node's
// *sorted* local file, and the rank rules the designated node cuts the
// pooled sample at.
//
// Node i reads samples at local positions off−1, 2·off−1, … (the paper's
// fseek/fread loop), where off = n/(p·Σperf) is identical on every node —
// so every sample "represents" the same number of sorted records.  The
// draw seeks once per sample while samples are a block or more apart and
// streams the file once when they are denser (read_positions, which the
// random draws of the other backends share).  Node i therefore
// contributes about p·perf[i]−1 samples, and pivot j at the PSRS rank
// r_j (psrs_pivot_targets) gives node j a final partition proportional to
// perf[j].  The homogeneous case degenerates to classic PSRS pivots.  The
// selection itself — gather, sort, cut, broadcast — is
// core::select_splitters (core/splitter_tree.h), for every backend.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/types.h"
#include "hetero/perf_vector.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"

namespace paladin::core {

/// Reads the records at `positions` (ascending record indices of
/// `reader`'s file; repeats allowed), in whichever of two forms moves fewer
/// blocks — every block transfer costs the same (pdm::DiskParams), so
/// counting them decides.  When the positions outnumber the blocks from
/// the first position's to the last one's, those blocks stream once;
/// otherwise each position costs one seek and one block read.  Either way
/// at most min(positions, ⌈l/B⌉) block reads.
template <Record T>
std::vector<T> read_positions(pdm::BlockReader<T>& reader,
                              std::span<const u64> positions) {
  std::vector<T> records;
  if (positions.empty()) return records;
  PALADIN_EXPECTS(std::is_sorted(positions.begin(), positions.end()));
  PALADIN_EXPECTS(positions.back() < reader.size_records());
  records.reserve(positions.size());
  const u64 rpb = reader.records_per_block();
  const bool stream =
      positions.size() > positions.back() / rpb - positions.front() / rpb + 1;
  if (stream) reader.seek_record(positions.front());
  for (const u64 pos : positions) {
    if (!stream) reader.seek_record(pos);
    while (reader.position() < pos) {
      reader.advance_n(
          std::min<u64>(reader.buffered().size(), pos - reader.position()));
    }
    records.push_back(*reader.peek());
  }
  return records;
}

/// The paper's regular sample positions in a sorted file of `size`
/// records with stride `off`: off−1, 2·off−1, …, while pos ≤ size−off−1.
///
/// Degenerate stride: callers compute off = n/(p·Σperf·oversample) with
/// floor division, which underflows to 0 once p·Σperf outgrows n (huge p,
/// small n).  Instead of feeding 0 into the stride loop (whose `i = off−1`
/// start would wrap), off == 0 degrades to off == 1 — the densest regular
/// sample, every record — which keeps the selection well-defined at any
/// scale.  PerfVector::sample_stride_clamped produces the same fallback
/// at the stride-computation site.
inline std::vector<u64> regular_sample_positions(u64 size, u64 off) {
  if (off == 0) off = 1;
  std::vector<u64> positions;
  if (size < off) return positions;
  positions.reserve(size / off);
  for (u64 i = off - 1; i + off + 1 <= size; i += off) {  // overflow-safe
    positions.push_back(i);
  }
  return positions;
}

/// Reads the regular sample of a sorted local file with stride `off`
/// (regular_sample_positions).  At the paper's strides, a block or more
/// apart, that is its fseek/fread loop; at sub-block strides the file
/// streams once instead (read_positions).
template <Record T>
std::vector<T> draw_regular_sample(pdm::BlockReader<T>& sorted, u64 off) {
  const std::vector<u64> positions =
      regular_sample_positions(sorted.size_records(), off);
  return read_positions(sorted, std::span<const u64>(positions));
}

/// In-memory variant for the in-core algorithm (same positions).
template <Record T>
std::vector<T> draw_regular_sample(std::span<const T> sorted, u64 off) {
  std::vector<T> samples;
  for (const u64 i : regular_sample_positions(sorted.size(), off)) {
    samples.push_back(sorted[i]);
  }
  return samples;
}

/// Step 2's rank rules.  Each returns the 1-based ranks, non-decreasing,
/// at which the designated node cuts a pool of S sorted samples (or S units
/// of digest weight on the tree path, core/splitter_tree.h), one rank per
/// splitter.  core::select_splitters applies whichever rule its caller
/// passes, flat or tree, so a rule is written once.
///
/// PSRS (ext-psrs, in-core PSRS): pivot j must approximate the global
/// quantile q_j = cum_j/Σperf (cum_j = perf[0]+…+perf[j]).  Node i's samples
/// sit at local quantiles t/(o·p·perf[i]), so the number of samples at or
/// below q_j is exactly r_j = Σ_i ⌊o·p·perf[i]·cum_j/Σperf⌋ — pivot j is the
/// r_j-th smallest sample.  In the homogeneous case r_j = o·p·j, the classic
/// PSRS regular positions.  (Taking p·cum_j unconditionally — the naive
/// generalisation — is biased high whenever Σperf ∤ p·perf[i]·cum_j, which
/// measurably overloads slow nodes.)  The ranks do not depend on S.
inline std::vector<u64> psrs_pivot_targets(const hetero::PerfVector& perf,
                                           u64 oversample = 1) {
  const u32 p = perf.node_count();
  PALADIN_EXPECTS(oversample >= 1);
  std::vector<u64> targets;
  targets.reserve(p - 1);
  u64 cum = 0;
  for (u32 j = 0; j + 1 < p; ++j) {
    cum += perf[j];
    u64 rank = 0;  // samples at or below the target quantile
    for (u32 i = 0; i < p; ++i) {
      rank += oversample * p * perf[i] * cum / perf.sum();
    }
    targets.push_back(std::max<u64>(rank, 1));
  }
  return targets;
}

/// Perf quantiles (ext-distribution, ext-multiway): the p−1 cuts of a
/// random sample at q_j = cum_j/Σperf, cut j at ⌊S·cum_j/Σperf⌋ + 1.
inline std::vector<u64> perf_quantile_ranks(const hetero::PerfVector& perf,
                                            u64 pool) {
  std::vector<u64> ranks;
  ranks.reserve(perf.node_count() - 1);
  u64 cum = 0;
  for (u32 j = 0; j + 1 < perf.node_count(); ++j) {
    cum += perf[j];
    ranks.push_back(pool * cum / perf.sum() + 1);
  }
  return ranks;
}

/// Even cuts (both overpartitioning sorts): `cuts` splitters into cuts + 1
/// equal buckets, cut j (1-based) at ⌊j·S/(cuts+1)⌋ + 1.
inline std::vector<u64> even_ranks(u64 cuts, u64 pool) {
  std::vector<u64> ranks;
  ranks.reserve(cuts);
  for (u64 j = 1; j <= cuts; ++j) ranks.push_back(j * pool / (cuts + 1) + 1);
  return ranks;
}

/// Adaptive weights (hetero::AdaptiveConfig): cut j at ⌊S·(w_0+…+w_j)⌋ + 1,
/// the observed-weight quantiles instead of the static perf ones
/// (docs/ALGORITHM.md §Adaptive re-split).  `weights` are normalized (sum
/// 1), one per node; a prefix that reaches 1.0 in double cuts at rank S.
inline std::vector<u64> weight_ranks(std::span<const double> weights,
                                     u64 pool) {
  PALADIN_EXPECTS(!weights.empty());
  std::vector<u64> ranks;
  ranks.reserve(weights.size() - 1);
  double cum = 0.0;
  for (std::size_t j = 0; j + 1 < weights.size(); ++j) {
    cum += weights[j];
    ranks.push_back(std::min<u64>(
        static_cast<u64>(static_cast<double>(pool) * cum) + 1, pool));
  }
  return ranks;
}

/// The flat pick: for each 1-based rank r, `sorted[min(r−1, S−1)]`.
template <Record T>
std::vector<T> pick_ranks(std::span<const T> sorted,
                          std::span<const u64> ranks) {
  PALADIN_EXPECTS(!sorted.empty() || ranks.empty());
  std::vector<T> picks;
  picks.reserve(ranks.size());
  for (const u64 rank : ranks) {
    picks.push_back(sorted[std::min<u64>(rank - 1, sorted.size() - 1)]);
  }
  return picks;
}

/// Sorts gathered PSRS samples (consumed: sorted in place, charged to the
/// meter) and picks the p−1 perf-weighted pivots at psrs_pivot_targets —
/// the flat path of core::select_splitters as one local call.
template <Record T, typename Less = std::less<T>>
std::vector<T> select_pivots(std::vector<T>& samples,
                             const hetero::PerfVector& perf, Meter& meter,
                             Less less = {}, u64 oversample = 1) {
  PALADIN_EXPECTS_MSG(samples.size() >= perf.node_count(),
                      "too few samples to select p-1 pivots");
  seq::metered_sort(std::span<T>(samples), meter, less);
  return pick_ranks(std::span<const T>(samples),
                    psrs_pivot_targets(perf, oversample));
}

}  // namespace paladin::core
