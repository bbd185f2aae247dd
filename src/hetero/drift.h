// Deterministic speed drift and the knobs of the adaptive answer to it.
//
// The paper fixes perf[] for the whole run; real heterogeneous clusters
// drift (Cérin/Dubacq/Roch, PAPERS.md).  This module makes a node's
// *effective* speed a function of virtual time: a seeded DriftPlan carves
// the virtual timeline into fixed-length epochs and decides, per
// (rank, epoch), a slowdown factor that divides the node's static perf
// factor inside the net/pdm cost funnels.  It reuses the FaultPlan hashing
// idiom (src/fault/fault.h): every speed change is a pure hash of
// (seed, rank, epoch) — never of wall-clock time, thread scheduling, or a
// shared stateful RNG — so a drifted run's makespan, digests and traces
// are bitwise-reproducible per (seed, plan, config).
//
// Determinism contract (docs/ROBUSTNESS.md §Speed drift): an empty plan
// never reaches the oracle — NodeContext::drift() stays nullptr, so every
// cost funnel's divisor NodeContext::speed_at(t) is the static speed() —
// and the empty-plan arithmetic is bit-for-bit the pre-drift arithmetic.
//
// AdaptiveConfig lives here too: it is the sort-side response to drift
// (re-estimate effective speeds from an observed probe span, re-split the
// partition targets between steps 3–5), consumed by core/backend.h.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "base/contracts.h"
#include "base/rng.h"
#include "base/types.h"

namespace paladin::hetero {

/// The random half of a plan: each node draws, per *regime* (a block of
/// `regime_epochs` consecutive epochs), whether it runs degraded.  A
/// degraded regime divides the node's effective speed by `slow_factor`.
struct DriftSpec {
  /// Epoch length in virtual seconds; every speed decision is constant
  /// within one epoch.  Must be > 0 whenever the plan is active.
  double epoch_seconds = 1.0;
  double slow_prob = 0.0;   ///< per (rank, regime) degradation probability
  double slow_factor = 1.0; ///< speed divisor while degraded; >= 1
  u64 regime_epochs = 4;    ///< epochs sharing one random draw; >= 1

  bool active() const { return slow_prob > 0.0 && slow_factor > 1.0; }
};

/// The scripted half of a plan: rank `rank` runs at `factor`x slowdown for
/// epochs in [from_epoch, until_epoch).  Used by benches and tests to
/// place one precise mid-run slowdown; combines with the random half by
/// max (the worse slowdown wins).
struct ForcedSlowdown {
  u32 rank = 0;
  u64 from_epoch = 0;
  u64 until_epoch = std::numeric_limits<u64>::max();  ///< exclusive
  double factor = 1.0;                                ///< >= 1
};

/// A complete, seeded description of how node speeds drift.  Default
/// constructed (no probability, no forced entries) means "no drift": the
/// hooks never consult the oracle and behaviour is bitwise-identical to a
/// build without one.
struct DriftPlan {
  u64 seed = 0;
  DriftSpec spec;
  std::vector<ForcedSlowdown> forced;

  bool active() const { return spec.active() || !forced.empty(); }
};

/// One node's deterministic speed oracle.  Owned by the node context
/// (null when no plan is active); every cost funnel that divides by the
/// node speed asks `factor_at(now)` instead when drift is on.
class DriftOracle {
 public:
  DriftOracle(const DriftPlan& plan, u32 rank) : plan_(plan), rank_(rank) {
    PALADIN_EXPECTS(plan_.spec.epoch_seconds > 0.0);
    PALADIN_EXPECTS(plan_.spec.slow_factor >= 1.0);
    PALADIN_EXPECTS(plan_.spec.regime_epochs >= 1);
    for (const ForcedSlowdown& f : plan_.forced) {
      PALADIN_EXPECTS(f.factor >= 1.0);
      PALADIN_EXPECTS(f.from_epoch <= f.until_epoch);
    }
  }

  const DriftPlan& plan() const { return plan_; }
  u32 rank() const { return rank_; }

  /// Epoch index containing virtual time `t` (clamped below at 0).
  u64 epoch_of(double t) const {
    if (t <= 0.0) return 0;
    return static_cast<u64>(t / plan_.spec.epoch_seconds);
  }

  /// Slowdown factor (>= 1) in force during `epoch`; the effective node
  /// speed is static_speed / factor.  Pure function of (seed, rank, epoch).
  double factor_at_epoch(u64 epoch) const {
    double f = 1.0;
    if (plan_.spec.active() &&
        fraction(epoch / plan_.spec.regime_epochs) < plan_.spec.slow_prob) {
      f = plan_.spec.slow_factor;
    }
    for (const ForcedSlowdown& fs : plan_.forced) {
      if (fs.rank == rank_ && epoch >= fs.from_epoch &&
          epoch < fs.until_epoch) {
        f = std::max(f, fs.factor);
      }
    }
    return f;
  }

  /// Slowdown factor in force at virtual time `t`.
  double factor_at(double t) const { return factor_at_epoch(epoch_of(t)); }

 private:
  /// Uniform fraction in [0, 1) per regime — the FaultPlan hash chain with
  /// a fixed op constant so drift draws are independent of fault draws on
  /// the same seed.
  double fraction(u64 regime) const {
    u64 h = mix64(plan_.seed + 0x9e3779b97f4a7c15ULL * 0xd41fULL);
    h = mix64(h ^ (u64{rank_} + 0x517cc1b727220a95ULL));
    h = mix64(h ^ regime);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  DriftPlan plan_;
  u32 rank_;
};

/// The sort's answer to drift (consumed by core/backend.h): between the
/// sequential-sort/sampling phase and the exchange, every backend may
/// re-estimate per-node effective speeds from an observed probe span and
/// re-split its partition targets by the observed speed shares.  Off by
/// default; when off (or when the estimate moves less than the deadband)
/// the static perf-proportional path runs verbatim.
struct AdaptiveConfig {
  bool enabled = false;
};

/// Deadband: if no node's observed speed share moves by at least this
/// relative fraction from its static share, adaptation is declined and the
/// run is bit-identical to the static path.
inline constexpr double kAdaptMinRelativeChange = 0.10;

/// Compares charged by the speed probe.  The probe measures the virtual
/// time the drifted meter bills for a known amount of work, which *is* the
/// node's current effective speed — an observed duration, not an oracle
/// peek.
inline constexpr u64 kAdaptProbeCompares = 4096;

/// Sample densification once weights apply.  The paper's oversample-1
/// regular sample only offers cut points at the static perf quantiles
/// (e.g. multiples of 1/p on an equal cluster), so a weighted cut like 1/13
/// would snap back to ~1/p and the re-split would be a no-op.  When
/// adaptation fires, Step 2 raises the sampling oversample to at least this
/// value (clamped so n ≥ p·Σperf·oversample still holds), shrinking the
/// pivot quantisation error to ~1/(p²·oversample).  Drift-free and declined
/// runs never resample, preserving static bit-identity.
inline constexpr u64 kAdaptResampleOversample = 32;

/// `drift_plan_to_string` / `parse_drift_plan` round-trip a plan through
/// the CLI --drift flag and the soak tier's PALADIN_SOAK_REPRO lines:
///   seed=7,epoch=0.5,prob=0.25,factor=4,regime=2,force=0:8:inf:4
/// where each force= entry is rank:from_epoch:until_epoch:factor and
/// until_epoch may be "inf".  The parser accepts exactly the plans a
/// DriftOracle accepts: anything else throws std::invalid_argument (or
/// std::out_of_range for a number too large for its field).
inline std::string drift_plan_to_string(const DriftPlan& plan) {
  std::ostringstream os;
  os.precision(17);  // round-trips any double exactly
  os << "seed=" << plan.seed << ",epoch=" << plan.spec.epoch_seconds
     << ",prob=" << plan.spec.slow_prob
     << ",factor=" << plan.spec.slow_factor
     << ",regime=" << plan.spec.regime_epochs;
  for (const ForcedSlowdown& f : plan.forced) {
    os << ",force=" << f.rank << ":" << f.from_epoch << ":";
    if (f.until_epoch == std::numeric_limits<u64>::max()) {
      os << "inf";
    } else {
      os << f.until_epoch;
    }
    os << ":" << f.factor;
  }
  return os.str();
}

inline DriftPlan parse_drift_plan(const std::string& spec) {
  // The whole of `text` as a finite number of value's type; unlike stoull,
  // from_chars rejects "-1" for an unsigned field instead of wrapping it.
  auto number = [](const std::string& text, auto value) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      throw std::out_of_range("drift spec number out of range: " + text);
    }
    if (ec != std::errc() || ptr != end) {
      throw std::invalid_argument("drift spec number malformed: " + text);
    }
    if (!std::isfinite(static_cast<double>(value))) {
      throw std::invalid_argument("drift spec number must be finite: " + text);
    }
    return value;
  };
  auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument("drift spec " + what);
  };
  DriftPlan plan;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("drift spec item missing '=': " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = number(val, u64{});
    } else if (key == "epoch") {
      plan.spec.epoch_seconds = number(val, 0.0);
      require(plan.spec.epoch_seconds > 0.0, "epoch must be > 0: " + val);
    } else if (key == "prob") {
      plan.spec.slow_prob = number(val, 0.0);
    } else if (key == "factor") {
      plan.spec.slow_factor = number(val, 0.0);
      require(plan.spec.slow_factor >= 1.0, "factor must be >= 1: " + val);
    } else if (key == "regime") {
      plan.spec.regime_epochs = number(val, u64{});
      require(plan.spec.regime_epochs >= 1, "regime must be >= 1: " + val);
    } else if (key == "force") {
      ForcedSlowdown f;
      std::istringstream fs(val);
      std::string part;
      std::vector<std::string> parts;
      while (std::getline(fs, part, ':')) parts.push_back(part);
      if (parts.size() != 4) {
        throw std::invalid_argument("drift force entry needs "
                                    "rank:from:until:factor: " + val);
      }
      f.rank = number(parts[0], u32{});
      f.from_epoch = number(parts[1], u64{});
      f.until_epoch = parts[2] == "inf" ? std::numeric_limits<u64>::max()
                                        : number(parts[2], u64{});
      f.factor = number(parts[3], 0.0);
      require(f.from_epoch <= f.until_epoch,
              "force from must not exceed until: " + val);
      require(f.factor >= 1.0, "force factor must be >= 1: " + val);
      plan.forced.push_back(f);
    } else {
      throw std::invalid_argument("unknown drift spec key: " + key);
    }
  }
  return plan;
}

}  // namespace paladin::hetero
