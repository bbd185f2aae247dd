// Metered in-core sorting primitives.  Merges, binary searches and
// partitions charge the comparisons they actually make (CountingLess here,
// the loser tree's own counters).  In-memory sorts are the exception: they
// are priced by a model of their input, (n records, d distinct keys), so a
// sort's simulated time depends only on the multiset it sorts, never on
// which kernel sorted it or on the host.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <ratio>
#include <span>
#include <utility>

#include "base/key_codec.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"

namespace paladin::seq {

/// Comparator adaptor that counts invocations.
template <typename Less>
struct CountingLess {
  Less less;
  u64* counter;

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    ++*counter;
    return less(a, b);
  }
};

/// The model's compares per record per ⌈log2 d⌉ level: std::sort's counted
/// compares on uniform 2^20-record u32 runs come to 1.208·n·log2 n.
using SortCompareFactor = std::ratio<121, 100>;

namespace detail {

/// Compares charged for sorting `n` records holding `distinct` distinct
/// keys: max(n − 1, ⌈c·n·⌈log2 d⌉⌉) with c = SortCompareFactor, in integer
/// arithmetic.  All-equal input costs the n − 1 compares that confirm it.
constexpr u64 modeled_sort_compares(u64 n, u64 distinct) {
  if (n == 0) return 0;
  const u64 levels = ilog2_ceil(distinct);
  return std::max(n - 1, ceil_div(SortCompareFactor::num * n * levels,
                                  SortCompareFactor::den));
}

/// Number of distinct keys in a sorted span: one pass over adjacent pairs.
template <Record T, typename Less>
u64 count_distinct_sorted(std::span<const T> sorted, Less less) {
  if (sorted.empty()) return 0;
  u64 distinct = 1;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (less(sorted[i - 1], sorted[i])) ++distinct;
  }
  return distinct;
}

/// Below this many records std::sort beats the radix sort's fixed cost
/// (the 256-bucket prefix sums per digit).
inline constexpr std::size_t kRadixCutoff = 64;

/// LSD radix sort on 8-bit digits of the exact codec image (std::sort
/// below kRadixCutoff).  One histogram pass counts every digit at once; a
/// digit that is the same for every record is skipped.  Equal images are
/// identical records, so the output is byte-identical to std::sort's.
template <Record T>
void radix_sort(std::span<T> data) {
  using Codec = base::KeyCodec<T>;
  constexpr u32 kDigits = Codec::kEncodedBits / 8;
  const std::size_t n = data.size();
  if (n < kRadixCutoff) {
    std::sort(data.begin(), data.end());
    return;
  }
  auto digit = [](const T& v, u32 d) {
    return (Codec::encode(v) >> (8 * d)) & 0xFF;
  };
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const T& v : data) {
    for (u32 d = 0; d < kDigits; ++d) ++counts[d][digit(v, d)];
  }
  std::unique_ptr<T[]> scratch;
  T* src = data.data();
  T* dst = nullptr;
  for (u32 d = 0; d < kDigits; ++d) {
    auto& offsets = counts[d];
    if (offsets[digit(src[0], d)] == n) continue;
    if (!scratch) {
      scratch = std::make_unique_for_overwrite<T[]>(n);
      dst = scratch.get();
    }
    std::size_t sum = 0;
    for (std::size_t& c : offsets) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[digit(src[i], d)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy_n(src, n, data.data());
}

}  // namespace detail

/// Sorts `data` in memory and charges the meter the modeled compares for
/// its (n, distinct keys) plus one move per record.  When the key codec
/// can replace `less` the sort is a radix sort, otherwise std::sort; the
/// charge is the same either way.
template <Record T, typename Less = std::less<T>>
void metered_sort(std::span<T> data, Meter& meter, Less less = {}) {
  if constexpr (base::key_codec_replaces_less<T, Less>()) {
    detail::radix_sort(data);
  } else {
    std::sort(data.begin(), data.end(), less);
  }
  const u64 distinct =
      detail::count_distinct_sorted(std::span<const T>(data), less);
  meter.on_compares(detail::modeled_sort_compares(data.size(), distinct));
  meter.on_moves(data.size());
}

/// std::upper_bound with comparison charging; used by the partitioning step.
template <Record T, typename Less = std::less<T>>
u64 metered_upper_bound(std::span<const T> sorted, const T& value,
                        Meter& meter, Less less = {}) {
  u64 compares = 0;
  auto it = std::upper_bound(sorted.begin(), sorted.end(), value,
                             CountingLess<Less>{less, &compares});
  meter.on_compares(compares);
  return static_cast<u64>(it - sorted.begin());
}

}  // namespace paladin::seq
