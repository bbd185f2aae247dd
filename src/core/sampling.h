// Step 2 of the paper's Algorithm 1: regular sampling of each node's
// *sorted* local file and pivot selection at the designated node.
//
// Node i reads samples at local positions off−1, 2·off−1, … (the paper's
// fseek/fread loop), where off = n/(p·Σperf) is identical on every node —
// so every sample "represents" the same number of sorted records.  The
// draw seeks once per sample while samples are a block or more apart and
// streams the file once when they are denser (read_positions, which the
// random draws of the other backends share).  Node i
// therefore contributes p·perf[i]−1 samples, and the designated node picks
// pivot j at index p·(perf[0]+…+perf[j]) − 1 of the sorted sample list,
// giving node j a final partition proportional to perf[j].  The
// homogeneous case degenerates to classic PSRS pivots.
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

/// Sorts the gathered samples and selects the p−1 perf-weighted pivots.
///
/// Pivot j must approximate the global quantile q_j = cum_j/Σperf (cum_j =
/// perf[0]+…+perf[j]).  Node i's samples sit at local quantiles
/// t/(p·perf[i]), so the number of samples at or below q_j is exactly
/// r_j = Σ_i ⌊p·perf[i]·cum_j/Σperf⌋ — pivot j is the r_j-th smallest
/// sample.  In the homogeneous case r_j = p·j, the classic PSRS regular
/// positions.  (Taking p·cum_j unconditionally — the naive generalisation —
/// is biased high whenever Σperf ∤ p·perf[i]·cum_j, which measurably
/// overloads slow nodes.)  `samples` is consumed (sorted in place, charged
/// to the meter).
/// The p−1 pivot ranks r_j (1-based, non-decreasing) in the gathered
/// sample list — shared between the flat selection below and the
/// tree-path selection (core/splitter_tree.h), so the two cannot drift.
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

template <Record T, typename Less = std::less<T>>
std::vector<T> select_pivots(std::vector<T>& samples,
                             const hetero::PerfVector& perf, Meter& meter,
                             Less less = {}, u64 oversample = 1) {
  const u32 p = perf.node_count();
  PALADIN_EXPECTS_MSG(samples.size() >= p,
                      "too few samples to select p-1 pivots");
  seq::metered_sort(std::span<T>(samples), meter, less);

  std::vector<T> pivots;
  pivots.reserve(p - 1);
  for (const u64 rank : psrs_pivot_targets(perf, oversample)) {
    const u64 index = std::min<u64>(rank - 1, samples.size() - 1);
    pivots.push_back(samples[index]);
  }
  return pivots;
}

/// Adaptive variant (hetero::AdaptiveConfig): pivots cut the sorted sample
/// at the *observed weight* quantiles instead of the static perf quantiles —
/// pivot j at index ⌊S·(w_0+…+w_j)⌋ of the S gathered samples.  Because
/// the global sample stride made every sample represent equal record mass,
/// this targets a final partition proportional to w_j: records the static
/// split would have left on a slowed node land on its faster peers
/// (docs/ALGORITHM.md §Adaptive re-split).  `weights` must be normalized
/// (sum 1) with one entry per node.
template <Record T, typename Less = std::less<T>>
std::vector<T> select_weighted_pivots(std::vector<T>& samples,
                                      const std::vector<double>& weights,
                                      Meter& meter, Less less = {}) {
  const u64 p = weights.size();
  PALADIN_EXPECTS(p >= 1);
  PALADIN_EXPECTS_MSG(samples.size() >= p,
                      "too few samples to select p-1 pivots");
  seq::metered_sort(std::span<T>(samples), meter, less);

  std::vector<T> pivots;
  pivots.reserve(p - 1);
  double cum = 0.0;
  for (u64 j = 0; j + 1 < p; ++j) {
    cum += weights[j];
    const u64 index = std::min<u64>(
        static_cast<u64>(static_cast<double>(samples.size()) * cum),
        samples.size() - 1);
    pivots.push_back(samples[index]);
  }
  return pivots;
}

}  // namespace paladin::core
