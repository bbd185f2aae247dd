// Input generators.  The paper ships "eight different benchmarks
// corresponding to eight different inputs" without naming them; we adopt
// the standard sorting-benchmark suite of the PSRS lineage (Li et al. 1993,
// Blelloch et al. 1991, Helman–JáJá–Bader 1996), which the paper's
// references evaluate on, plus a parametric duplicates generator for the
// §3.1 duplicate-keys analysis.  All generators are deterministic functions
// of (spec, node, offset) so any node can produce its slice independently.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "pdm/typed_io.h"

namespace paladin::workload {

enum class Dist : u8 {
  kUniform = 0,    ///< iid uniform over the full key range (benchmark 0)
  kGaussian,       ///< iid normal, mean 2^31, sigma 2^29, clamped
  kZero,           ///< every key identical — the all-duplicates extreme
  kBucketSorted,   ///< each node's share is p consecutive key sub-ranges
  kGGroup,         ///< g-group pattern: block j of node i drawn from the
                   ///< range of node (i⊕shift(j)) — adversarial for naive
                   ///< samplers
  kStaggered,      ///< node i draws only from key sub-range (2i+1) mod p
  kSorted,         ///< globally already sorted
  kReverseSorted,  ///< globally reverse sorted
  kDuplicates,     ///< dup_fraction of keys equal one value, rest uniform
  kAlmostSorted,   ///< globally sorted with ~1% locally displaced keys
  kZipf,           ///< Zipf-skewed over ~1K distinct hash-scattered keys —
                   ///< heavy duplicate mass, adversarial for samplers
};

/// The paper's eight benchmark inputs (§4), in benchmark order.
inline constexpr Dist kAllBenchmarks[] = {
    Dist::kUniform,      Dist::kGaussian,  Dist::kZero,
    Dist::kBucketSorted, Dist::kGGroup,    Dist::kStaggered,
    Dist::kSorted,       Dist::kReverseSorted,
};

/// Every distribution, for name parsing and exhaustive sweeps.
inline constexpr Dist kAllDists[] = {
    Dist::kUniform,   Dist::kGaussian,      Dist::kZero,
    Dist::kBucketSorted, Dist::kGGroup,     Dist::kStaggered,
    Dist::kSorted,    Dist::kReverseSorted, Dist::kDuplicates,
    Dist::kAlmostSorted, Dist::kZipf,
};

const char* to_string(Dist dist);

struct WorkloadSpec {
  Dist dist = Dist::kUniform;
  u64 total_records = 0;  ///< global n
  u32 node_count = 1;     ///< p (shapes the partitioned distributions)
  u64 seed = 42;
  /// Only for kDuplicates: fraction of records pinned to one key.
  double dup_fraction = 0.25;
};

/// Generates the `count` records of node `node` that occupy global
/// positions [offset, offset+count).
std::vector<DefaultKey> generate_share(const WorkloadSpec& spec, u32 node,
                                       u64 offset, u64 count);

/// Writes node `node`'s share straight to a file on its disk.
inline void write_share(const WorkloadSpec& spec, u32 node, u64 offset,
                        u64 count, pdm::Disk& disk, const std::string& name) {
  const std::vector<DefaultKey> data = generate_share(spec, node, offset, count);
  pdm::write_file<DefaultKey>(disk, name, std::span<const DefaultKey>(data));
}

}  // namespace paladin::workload
