// One entry point over the parallel external sorts, for callers that want
// to select the backend by configuration (the benches, the CLI, A/B
// experiments) rather than by #include.  All four backends share the input
// convention (node-local file, perf-proportional shares for PSRS; any
// share layout for the others) and the success criterion (a sorted
// permutation), but differ in output layout: PSRS, distribution sort and
// the multiway merge sort leave one contiguous slice per node;
// overpartitioning leaves per-bucket files.  The report's `layout` field
// records which, and core/backend.h's collect_sorted_output consumes it.
//
// Config plumbing is structural, not per-field: every backend config
// derives from BackendConfig plus its own option struct, so the dispatch
// assembles it with two slice-assignments and slices the common
// BackendReport back out of whatever the backend returned.
#pragma once

#include <algorithm>
#include <string>

#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/ext_distribution.h"
#include "core/ext_multiway.h"
#include "core/ext_overpartition.h"
#include "core/ext_psrs.h"
#include "core/splitter_tree.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/export.h"

namespace paladin::core {

/// Assembles the exporters' input from a finished observed run: every
/// node's harvested trace (ClusterConfig::observe must have been set) plus
/// the makespan.  Callers add run metadata via ClusterTrace::set_meta.
template <typename R>
obs::ClusterTrace collect_cluster_trace(const net::RunOutcome<R>& outcome) {
  obs::ClusterTrace trace;
  trace.makespan = outcome.makespan;
  for (const net::NodeReport& n : outcome.nodes) {
    if (n.trace) trace.nodes.push_back(*n.trace);
  }
  return trace;
}

/// The --obs-out contract shared by the CLI and the benches: writes
/// `<prefix>.trace.json` (Chrome trace_event, for Perfetto) and
/// `<prefix>.report.json` (RunReport).  Returns false if either write
/// failed.
inline bool write_obs_outputs(const obs::ClusterTrace& trace,
                              const std::string& prefix) {
  bool ok = obs::write_text_file(prefix + ".trace.json",
                                 obs::chrome_trace_json(trace));
  ok = obs::write_text_file(prefix + ".report.json",
                            obs::run_report_json(trace)) &&
       ok;
  return ok;
}

enum class ParallelSortAlgorithm : u8 {
  kExtPsrs,          ///< the paper's Algorithm 1 (default)
  kExtDistribution,  ///< DeWitt probabilistic splitting
  kExtOverpartition, ///< Li–Sevcik overpartitioning
  kExtMultiway,      ///< Rahn–Sanders–Singler multiway merge sort
};

inline constexpr ParallelSortAlgorithm kAllAlgorithms[] = {
    ParallelSortAlgorithm::kExtPsrs,
    ParallelSortAlgorithm::kExtDistribution,
    ParallelSortAlgorithm::kExtOverpartition,
    ParallelSortAlgorithm::kExtMultiway,
};

inline const char* to_string(ParallelSortAlgorithm a) {
  switch (a) {
    case ParallelSortAlgorithm::kExtPsrs: return "ext-psrs";
    case ParallelSortAlgorithm::kExtDistribution: return "ext-distribution";
    case ParallelSortAlgorithm::kExtOverpartition: return "ext-overpartition";
    case ParallelSortAlgorithm::kExtMultiway: return "ext-multiway";
  }
  PALADIN_UNREACHABLE();
}

/// Driver-level configuration: the shared BackendConfig core plus the
/// option struct of each backend that has one (only the selected
/// backend's options are read).
struct ParallelSortConfig : BackendConfig {
  ParallelSortAlgorithm algorithm = ParallelSortAlgorithm::kExtPsrs;
  ExtPsrsOptions psrs;
  ExtOverpartitionOptions overpartition;
  ExtMultiwayOptions multiway;
};

/// Smallest input the configured backend can sort on `perf`: an admissible
/// n (hetero/perf_vector.h) whose sample holds enough keys to cut the
/// backend's splitters.  Below it a sampling contract fails, so the CLI
/// rejects such an input and the service pads a job up to this size.
inline u64 minimum_input(const ParallelSortConfig& config,
                         const hetero::PerfVector& perf) {
  const u64 p = perf.node_count();
  switch (config.algorithm) {
    case ParallelSortAlgorithm::kExtPsrs:
      // Flat Step 2, and any re-split, samples every n/(p·Σperf·oversample)
      // records (PerfVector::sample_stride).  The tree path clamps that
      // stride to 1 and then draws n − p samples, of which it needs p.
      if (config.adaptive.enabled ||
          !splitter_uses_tree(config.splitter, perf.node_count())) {
        return perf.sum() * p * config.psrs.sampling_oversample;
      }
      return perf.round_up_admissible(2 * p);
    case ParallelSortAlgorithm::kExtOverpartition: {
      // Node i samples min(l_i, s·kOverpartitionOversample) of its
      // l_i = u·perf[i] records, and p·s − 1 bucket splitters need p·s
      // samples; u = s always suffices.
      const u64 s = config.overpartition.s;
      const u64 cap = s * kOverpartitionOversample;
      for (u64 u = 1; u < s; ++u) {
        u64 samples = 0;
        for (u32 i = 0; i < perf.node_count(); ++i) {
          samples += std::min<u64>(u * perf[i], cap);
        }
        if (samples >= p * s) return u * perf.sum();
      }
      return s * perf.sum();
    }
    case ParallelSortAlgorithm::kExtDistribution:
    case ParallelSortAlgorithm::kExtMultiway:
      // Node i samples at least perf[i] ≥ 1 records: Σperf ≥ p samples.
      return perf.round_up_admissible(1);
  }
  PALADIN_UNREACHABLE();
}

/// Uniform per-node result across the algorithms — the common slice of
/// whatever the backend reported (including output layout and, for the
/// bucket layout, the owned-bucket list).
using ParallelSortReport = BackendReport;

namespace detail {

/// Builds a backend's full config from the shared core plus its own
/// options — both are bases of `Config`, so this is two slice-assignments
/// — runs the backend, and returns the common slice of its report.
template <typename Config, typename Options, typename Fn>
ParallelSortReport run_backend(const BackendConfig& common,
                               const Options& options, Fn&& run) {
  Config config;
  static_cast<BackendConfig&>(config) = common;
  static_cast<Options&>(config) = options;
  return run(config);
}

}  // namespace detail

/// SPMD body: dispatches to the selected backend.
template <Record T, typename Less = std::less<T>>
ParallelSortReport parallel_external_sort(net::NodeContext& ctx,
                                          const hetero::PerfVector& perf,
                                          const ParallelSortConfig& config,
                                          Less less = {}) {
  switch (config.algorithm) {
    case ParallelSortAlgorithm::kExtPsrs:
      return detail::run_backend<ExtPsrsConfig>(
          config, config.psrs, [&](const ExtPsrsConfig& c) {
            return ext_psrs_sort<T, Less>(ctx, perf, c, less);
          });
    case ParallelSortAlgorithm::kExtDistribution: {
      ExtDistributionConfig c;
      static_cast<BackendConfig&>(c) = config;
      return ext_distribution_sort<T, Less>(ctx, perf, c, less);
    }
    case ParallelSortAlgorithm::kExtOverpartition:
      return detail::run_backend<ExtOverpartitionConfig>(
          config, config.overpartition, [&](const ExtOverpartitionConfig& c) {
            return ext_overpartition_sort<T, Less>(ctx, perf, c, less);
          });
    case ParallelSortAlgorithm::kExtMultiway:
      return detail::run_backend<ExtMultiwayConfig>(
          config, config.multiway, [&](const ExtMultiwayConfig& c) {
            return ext_multiway_sort<T, Less>(ctx, perf, c, less);
          });
  }
  PALADIN_UNREACHABLE();
}

}  // namespace paladin::core
