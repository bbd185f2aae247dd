// Key normalization for the merge hot path.  A KeyCodec maps a record to a
// u64 "radix prefix" whose unsigned order agrees with the record's natural
// order, so the loser tree can cache one machine word per source and replay
// with branch-free u64 compares instead of pointer chases through the
// comparator (Rahn/Sanders/Singler, *Scalable Distributed-Memory External
// Sorting*: tournament trees win or lose on exactly this).
//
// Two independent capabilities:
//
//  * kEncodable — encode() exists and is monotone: a < b  ⇒  enc(a) < enc(b).
//    Enough for prefetch hints and gallop pre-filters.
//  * kExact     — additionally enc(a) == enc(b)  ⇔  neither a < b nor b < a.
//    Enough to *replace* the comparator outright when the comparator is
//    std::less<T> (a custom comparator may order the same bytes
//    differently): key_codec_replaces_less() is that one test, and the
//    key-cached loser tree and metered_sort's radix path are both gated
//    on it.
//
// The primary template is the comparator fallback: not encodable, so every
// consumer keeps calling Less.  Integral specializations are provided;
// floating point is deliberately left out (−0.0 vs +0.0 compare equal under
// < but carry different bit patterns, and NaNs are not ordered at all, so
// no u64 image can be exact).
#pragma once

#include <concepts>
#include <functional>
#include <type_traits>

#include "base/types.h"

namespace paladin::base {

template <typename T>
struct KeyCodec {
  static constexpr bool kEncodable = false;
  static constexpr bool kExact = false;
};

/// Unsigned integrals: zero-extend.  Order and equality are preserved
/// verbatim, so the codec is exact and invertible (decode(encode(v)) is
/// bit-identical to v), and the image occupies the low sizeof(T)*8 bits.
template <typename T>
  requires std::unsigned_integral<T>
struct KeyCodec<T> {
  static constexpr bool kEncodable = true;
  static constexpr bool kExact = true;
  static constexpr u32 kEncodedBits = sizeof(T) * 8;
  static constexpr u64 encode(T v) { return static_cast<u64>(v); }
  static constexpr T decode(u64 e) { return static_cast<T>(e); }
};

/// Signed integrals: flip the sign bit (two's complement order becomes
/// unsigned order), then zero-extend.  Exact and invertible; the image
/// occupies the low sizeof(T)*8 bits.
template <typename T>
  requires std::signed_integral<T>
struct KeyCodec<T> {
  static constexpr bool kEncodable = true;
  static constexpr bool kExact = true;
  static constexpr u32 kEncodedBits = sizeof(T) * 8;
  static constexpr u64 encode(T v) {
    using U = std::make_unsigned_t<T>;
    return static_cast<u64>(static_cast<U>(v)) ^
           (u64{1} << (sizeof(T) * 8 - 1));
  }
  static constexpr T decode(u64 e) {
    using U = std::make_unsigned_t<T>;
    return static_cast<T>(
        static_cast<U>(e ^ (u64{1} << (sizeof(T) * 8 - 1))));
  }
};

/// True when the codec can stand in for `Less` outright: the image is exact
/// and `Less` is std::less<T>, so ordering (and equality) by the u64 image
/// is ordering by the comparator.
template <typename T, typename Less>
constexpr bool key_codec_replaces_less() {
  return KeyCodec<T>::kExact && std::is_same_v<Less, std::less<T>>;
}

/// True when the codec is exact and its image fits 32 bits — the loser
/// tree then packs (key, source index) into one u64 so a replay level is a
/// single unsigned compare with tie-breaking included (loser_tree.h).
template <typename T>
constexpr bool key_codec_packs32() {
  if constexpr (KeyCodec<T>::kExact) {
    return KeyCodec<T>::kEncodedBits <= 32;
  } else {
    return false;
  }
}

}  // namespace paladin::base
