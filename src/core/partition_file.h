// Step 3 of Algorithm 1: cut a node's *sorted* local file at the p−1
// pivots.  Records equal to a pivot go to the lower partition (ties break
// toward lower ranks: upper_bound), which is what bounds the
// duplicate-induced imbalance by the multiplicity d (§3.1).  Two forms
// share that rule:
//  * file_partition_cuts — cut offsets found by binary search in the file,
//    which stays in place while its pieces travel;
//  * partition_cuts — cut offsets of an in-memory span.
#pragma once

#include <algorithm>
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
