// The paper's `perf` array: relative node speeds as small positive
// integers (perf[i] = 4 ⇒ node i is 4× faster than a speed-1 node).
// PerfVector owns the arithmetic the algorithm builds on:
//
//  * Equation 2 — admissible input sizes n = k · Σperf · lcm(perf), which
//    make every node's share an exact integer;
//  * proportional shares — node i holds l_i = n·perf[i]/Σperf records;
//  * the regular-sampling parameters of Step 2 — the global sample stride
//    off = n/(p·Σperf) and node i's sample count p·perf[i]−1.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"

namespace paladin::hetero {

class PerfVector {
 public:
  explicit PerfVector(std::vector<u32> perf);

  u32 node_count() const { return static_cast<u32>(perf_.size()); }
  u32 operator[](u32 i) const { return perf_.at(i); }
  std::span<const u32> values() const { return perf_; }

  /// Σ_i perf[i].
  u64 sum() const { return sum_; }

  /// lcm(perf, p) of Equation 2; std::overflow_error past 64 bits.
  u64 lcm() const { return lcm_of(perf_); }

  bool homogeneous() const;

  /// Equation 2 with multiplier k: n = k · Σperf · lcm(perf) — the paper's
  /// canonical family of input sizes; std::overflow_error past 64 bits.
  u64 admissible_size(u64 k) const {
    PALADIN_EXPECTS(k >= 1);
    return checked_mul(checked_mul(k, sum_, "admissible size exceeds 64 bits"),
                       lcm(), "admissible size exceeds 64 bits");
  }

  /// What the algorithm actually requires of n: every share
  /// n·perf[i]/Σperf must be an integer, i.e. Σperf | n.  (The paper's own
  /// experimental size 16777220 on {4,4,1,1} satisfies this but not the
  /// literal Equation-2 form — Equation 2 is sufficient, not necessary.)
  bool is_admissible(u64 n) const { return n > 0 && n % sum_ == 0; }

  /// Smallest admissible size >= n.
  u64 round_up_admissible(u64 n) const {
    return round_up(n == 0 ? 1 : n, sum_);
  }

  /// Node i's share of an admissible n: l_i = n·perf[i]/Σperf.
  u64 share(u32 i, u64 n) const {
    PALADIN_EXPECTS_MSG(n % sum_ == 0,
                        "input size must be a multiple of sum(perf)");
    return (n / sum_) * perf_.at(i);
  }

  /// All shares; sums to n.
  std::vector<u64> shares(u64 n) const;

  /// Record offset of node i's share within the global input [0, n).
  u64 share_offset(u32 i, u64 n) const;

  /// Step-2 sample stride: the number of records each sample represents —
  /// identical on every node, which is the property that carries the PSRS
  /// load-balance theorem to the heterogeneous case.  Matches the paper's
  /// code, which computes off = blocksize/(perf[i]·nprocs) with integer
  /// (floor) division, so n need not divide p·Σperf exactly (the paper's
  /// own n = 16777220 does not).  Requires n ≥ p·Σperf so every node can
  /// sample at all.
  /// `oversample` (>= 1) densifies the sample by that factor: node i then
  /// contributes ~oversample·p·perf[i] − 1 samples, shrinking the pivot
  /// quantisation error proportionally.  1 reproduces the paper exactly.
  u64 sample_stride(u64 n, u64 oversample = 1) const {
    PALADIN_EXPECTS(oversample >= 1);
    const u64 unit = sum_ * node_count() * oversample;
    PALADIN_EXPECTS_MSG(n >= unit, "input too small to sample regularly");
    return n / unit;
  }

  /// Tree-path stride (core/splitter_tree.h): like sample_stride, but
  /// degrades to the densest regular sample (off = 1, every record)
  /// instead of failing when n < p·Σperf·oversample — the huge-p /
  /// small-n corner the multi-level selection must survive.  Pairs with
  /// the off == 0 fallback in core::draw_regular_sample.
  u64 sample_stride_clamped(u64 n, u64 oversample = 1) const {
    PALADIN_EXPECTS(oversample >= 1);
    const u64 unit = sum_ * node_count() * oversample;
    return n >= unit ? n / unit : 1;
  }

  /// Number of samples node i draws in Step 2: the paper's loop visits
  /// positions off−1, 2·off−1, … while pos ≤ l_i−off−1, i.e.
  /// ⌊l_i/off⌋ − 1 samples — exactly p·perf[i] − 1 when the sizes divide
  /// evenly.
  u64 sample_count(u32 i, u64 n, u64 oversample = 1) const {
    const u64 l = share(i, n);
    const u64 off = sample_stride(n, oversample);
    const u64 picks = l / off;
    return picks > 0 ? picks - 1 : 0;
  }

  std::string to_string() const;

 private:
  std::vector<u32> perf_;
  u64 sum_ = 0;
};

}  // namespace paladin::hetero
