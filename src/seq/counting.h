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
#include <limits>
#include <memory>
#include <optional>
#include <ratio>
#include <span>
#include <type_traits>
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

/// Histograms of the exact codec image's 8-bit digits, one per digit.
template <Record T>
using DigitCounts =
    std::array<std::array<std::size_t, 256>,
               base::KeyCodec<T>::kEncodedBits / 8>;

constexpr std::size_t digit(u64 image, std::size_t d) {
  return (image >> (8 * d)) & 0xFF;
}

/// Adds every digit of every record in `data` to `counts` in one pass.
template <Record T>
void add_digit_counts(std::span<const T> data, DigitCounts<T>& counts) {
  for (const T& v : data) {
    const u64 image = base::KeyCodec<T>::encode(v);
    for (std::size_t d = 0; d < counts.size(); ++d) {
      ++counts[d][digit(image, d)];
    }
  }
}

/// LSD radix sort on 8-bit digits of the exact codec image, given the
/// digit counts of all of `data`; a digit that is the same for every
/// record is skipped.  Equal images are identical records, so the output
/// is byte-identical to std::sort's.
template <Record T>
void radix_sort(std::span<T> data, DigitCounts<T>& counts) {
  using Codec = base::KeyCodec<T>;
  const std::size_t n = data.size();
  std::unique_ptr<T[]> scratch;
  T* src = data.data();
  T* dst = nullptr;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    auto& offsets = counts[d];
    if (offsets[digit(Codec::encode(src[0]), d)] == n) continue;
    if (!scratch) {
      scratch = std::make_unique_for_overwrite<T[]>(n);
      dst = scratch.get();
    }
    std::size_t sum = 0;
    for (std::size_t& c : offsets) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[digit(Codec::encode(src[i]), d)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy_n(src, n, data.data());
}

/// Most distinct keys the counting kernel accepts.  Its hash table is 8·K
/// two-byte slots, 64 KiB at K = 4096, and its (image, count) entries take
/// 32 KiB with 32-bit keys: both stay in a core's L2 cache, and at load
/// ≤ 1/8 a lookup rarely needs a second probe.
inline constexpr std::size_t kCountingMaxDistinct = 4096;

/// Most distinct keys the counting kernel accepts in a run of `n` records:
/// kCountingMaxDistinct, or n/32 if smaller, so neither the table nor the
/// sort of the distinct keys outweighs the run.
constexpr std::size_t counting_max_distinct(std::size_t n) {
  return std::min(kCountingMaxDistinct, n / 32);
}

/// Counting sort of the exact codec image for runs that hold few distinct
/// keys: one pass counts each image in an open-addressing table, then the
/// distinct images are sorted and each is written back `count` times.
/// Returns the number of distinct keys.  As soon as a (K+1)-th distinct
/// key appears, K = counting_max_distinct(n), it stops and returns
/// nullopt, with `data` untouched and `counts` holding the digit counts of
/// all of `data` (those of the records it read come from the table): a
/// declined attempt costs its hash pass over the records it read, less the
/// radix sort's counting pass over them.  Equal images are identical
/// records, so the output is byte-identical to std::sort's.
template <Record T>
std::optional<u64> counting_sort(std::span<T> data, DigitCounts<T>& counts) {
  using Codec = base::KeyCodec<T>;
  using Image = std::conditional_t<Codec::kEncodedBits <= 32, u32, u64>;
  struct Entry {
    Image image;
    u32 count;
  };
  const std::size_t n = data.size();
  const std::size_t max_distinct = counting_max_distinct(n);
  if (max_distinct == 0 || n > std::numeric_limits<u32>::max()) {
    add_digit_counts(std::span<const T>(data), counts);
    return std::nullopt;
  }
  std::array<Entry, kCountingMaxDistinct> entries;
  std::array<u16, 8 * kCountingMaxDistinct> slots;  ///< entry index + 1
  const u32 bits = ilog2_ceil(8 * max_distinct);
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::fill_n(slots.begin(), mask + 1, u16{0});
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const Image image = static_cast<Image>(Codec::encode(data[r]));
    // Fibonacci hashing: the top bits of image·2^64/φ.
    std::size_t i = (u64{image} * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    while (slots[i] != 0 && entries[slots[i] - 1u].image != image) {
      i = (i + 1) & mask;
    }
    if (slots[i] == 0) {
      if (distinct == max_distinct) {
        for (std::size_t e = 0; e < distinct; ++e) {
          for (std::size_t d = 0; d < counts.size(); ++d) {
            counts[d][digit(entries[e].image, d)] += entries[e].count;
          }
        }
        add_digit_counts(std::span<const T>(data).subspan(r), counts);
        return std::nullopt;
      }
      entries[distinct] = Entry{image, 0};
      slots[i] = static_cast<u16>(++distinct);
    }
    ++entries[slots[i] - 1u].count;
  }
  std::sort(entries.begin(), entries.begin() + distinct,
            [](const Entry& a, const Entry& b) { return a.image < b.image; });
  T* out = data.data();
  for (std::size_t e = 0; e < distinct; ++e) {
    out = std::fill_n(out, entries[e].count, Codec::decode(entries[e].image));
  }
  return distinct;
}

/// Sorts `data` by the exact codec image: std::sort below kRadixCutoff;
/// above it the kernel follows one property of the run, whether it holds
/// at most counting_max_distinct(n) distinct keys.  If it does the
/// counting kernel sorts it, else the LSD radix does.  Returns the number
/// of distinct keys when the counting kernel sorted, nullopt otherwise.
template <Record T>
std::optional<u64> codec_sort(std::span<T> data) {
  if (data.size() < kRadixCutoff) {
    std::sort(data.begin(), data.end());
    return std::nullopt;
  }
  DigitCounts<T> counts{};
  const std::optional<u64> distinct = counting_sort(data, counts);
  if (!distinct) radix_sort(data, counts);
  return distinct;
}

}  // namespace detail

/// Sorts `data` in memory and charges the meter the modeled compares for
/// its (n, distinct keys) plus one move per record.  When the key codec
/// can replace `less` the sort is detail::codec_sort (a counting sort for
/// a run holding few distinct keys, a radix sort for any other), otherwise
/// std::sort.  The charge is the same whichever kernel ran.
template <Record T, typename Less = std::less<T>>
void metered_sort(std::span<T> data, Meter& meter, Less less = {}) {
  std::optional<u64> distinct;
  if constexpr (base::key_codec_replaces_less<T, Less>()) {
    distinct = detail::codec_sort(data);
  } else {
    std::sort(data.begin(), data.end(), less);
  }
  if (!distinct) {
    distinct = detail::count_distinct_sorted(std::span<const T>(data), less);
  }
  meter.on_compares(detail::modeled_sort_compares(data.size(), *distinct));
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
