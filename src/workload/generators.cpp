#include "workload/generators.h"

#include <algorithm>
#include <cmath>

#include "base/contracts.h"
#include "base/math_util.h"

namespace paladin::workload {

namespace {

constexpr u64 kKeySpan = u64{1} << 32;

/// Sub-range [bucket*span/p, (bucket+1)*span/p) of the key space.
DefaultKey bucket_value(Xoshiro256& rng, u32 bucket, u32 p) {
  const u64 width = kKeySpan / p;
  const u64 base = width * bucket;
  return static_cast<DefaultKey>(base + rng.next_below(width));
}

DefaultKey gaussian_value(Xoshiro256& rng) {
  const double g = rng.next_gaussian();
  const double v = 2147483648.0 + g * 536870912.0;  // mean 2^31, sigma 2^29
  return static_cast<DefaultKey>(
      std::clamp(v, 0.0, 4294967295.0));
}

}  // namespace

const char* to_string(Dist dist) {
  switch (dist) {
    case Dist::kUniform: return "uniform";
    case Dist::kGaussian: return "gaussian";
    case Dist::kZero: return "zero";
    case Dist::kBucketSorted: return "bucket-sorted";
    case Dist::kGGroup: return "g-group";
    case Dist::kStaggered: return "staggered";
    case Dist::kSorted: return "sorted";
    case Dist::kReverseSorted: return "reverse-sorted";
    case Dist::kDuplicates: return "duplicates";
    case Dist::kAlmostSorted: return "almost-sorted";
    case Dist::kZipf: return "zipf";
  }
  PALADIN_UNREACHABLE();
}

std::vector<DefaultKey> generate_share(const WorkloadSpec& spec, u32 node,
                                       u64 offset, u64 count) {
  PALADIN_EXPECTS(spec.node_count >= 1);
  PALADIN_EXPECTS(offset + count <= spec.total_records ||
                  spec.total_records == 0);
  Xoshiro256 rng(mix64(spec.seed) ^ mix64(0xa0a0ULL + node));
  std::vector<DefaultKey> out;
  out.reserve(count);
  const u32 p = spec.node_count;

  switch (spec.dist) {
    case Dist::kUniform:
      for (u64 i = 0; i < count; ++i) {
        out.push_back(static_cast<DefaultKey>(rng.next()));
      }
      break;

    case Dist::kGaussian:
      for (u64 i = 0; i < count; ++i) out.push_back(gaussian_value(rng));
      break;

    case Dist::kZero:
      out.assign(count, DefaultKey{0x5eed5eed});
      break;

    case Dist::kBucketSorted: {
      // The share is split into p consecutive blocks; block b holds keys
      // from sub-range b — every node's data is already "bucketised".
      const u64 block = ceil_div(count, p);
      for (u64 i = 0; i < count; ++i) {
        const u32 b = static_cast<u32>(std::min<u64>(i / block, p - 1));
        out.push_back(bucket_value(rng, b, p));
      }
      break;
    }

    case Dist::kGGroup: {
      // Block j of node i draws from the sub-range of node
      // (i + j·(p/2+1)) mod p — data each node holds is spread over all
      // ranges but in a systematic, non-uniform block pattern.
      const u64 block = ceil_div(count, p);
      for (u64 i = 0; i < count; ++i) {
        const u64 j = std::min<u64>(i / block, p - 1);
        const u32 b = static_cast<u32>((node + j * (p / 2 + 1)) % p);
        out.push_back(bucket_value(rng, b, p));
      }
      break;
    }

    case Dist::kStaggered: {
      const u32 b = static_cast<u32>((2 * node + 1) % p);
      for (u64 i = 0; i < count; ++i) out.push_back(bucket_value(rng, b, p));
      break;
    }

    case Dist::kSorted: {
      // Key = global rank scaled over the key span (ties when n > 2^32).
      const u64 n = std::max<u64>(spec.total_records, 1);
      for (u64 i = 0; i < count; ++i) {
        const u64 g = offset + i;
        out.push_back(static_cast<DefaultKey>((g * kKeySpan) / n));
      }
      break;
    }

    case Dist::kReverseSorted: {
      const u64 n = std::max<u64>(spec.total_records, 1);
      for (u64 i = 0; i < count; ++i) {
        const u64 g = n - 1 - (offset + i);
        out.push_back(static_cast<DefaultKey>((g * kKeySpan) / n));
      }
      break;
    }

    case Dist::kAlmostSorted: {
      // Sorted backbone with ~1% of keys nudged by a small random delta —
      // the nearly-in-order inputs replacement selection thrives on.
      const u64 n = std::max<u64>(spec.total_records, 1);
      for (u64 i = 0; i < count; ++i) {
        const u64 g = offset + i;
        u64 v = (g * kKeySpan) / n;
        if (rng.next_below(100) == 0) {
          const u64 nudge = rng.next_below(kKeySpan / 64);
          v = rng.next_below(2) ? v + nudge : (v > nudge ? v - nudge : 0);
        }
        out.push_back(static_cast<DefaultKey>(
            std::min<u64>(v, kKeySpan - 1)));
      }
      break;
    }

    case Dist::kDuplicates: {
      PALADIN_EXPECTS(spec.dup_fraction >= 0.0 && spec.dup_fraction <= 1.0);
      for (u64 i = 0; i < count; ++i) {
        if (rng.next_double() < spec.dup_fraction) {
          out.push_back(DefaultKey{0x80000000});
        } else {
          out.push_back(static_cast<DefaultKey>(rng.next()));
        }
      }
      break;
    }

    case Dist::kZipf: {
      // Zipf(θ≈1) over 1024 distinct keys via the inverse CDF of the
      // continuous approximation: rank r = ⌊e^{u·ln K}⌋−1 appears with
      // probability ∝ 1/(r+1).  The rank is hash-scattered over the key
      // space so the hot keys are exact duplicates in no particular order
      // — heavy duplicate mass without kDuplicates' single pinned value,
      // adversarial for splitter selection.
      constexpr u64 kZipfKeys = 1024;
      const double ln_k = std::log(static_cast<double>(kZipfKeys));
      for (u64 i = 0; i < count; ++i) {
        const double u = rng.next_double();
        const u64 r = std::min<u64>(
            static_cast<u64>(std::exp(u * ln_k)) - 1, kZipfKeys - 1);
        out.push_back(static_cast<DefaultKey>(mix64(0x21bf00ULL + r)));
      }
      break;
    }
  }
  PALADIN_ENSURES(out.size() == count);
  return out;
}

}  // namespace paladin::workload
