// The sort-as-a-service job model (docs/SERVICE.md): one JobSpec is one
// complete out-of-core sort request — input size and record width, input
// distribution, backend algorithm, a requested node slice, a priority and
// an arrival time on the shared virtual-time axis.  The service admits a
// workload of specs, schedules each onto a slice of the shared cluster
// (FIFO or fair-share), and reports per-job latency and digests.  One
// admitted job is exactly one backend run through
// core::parallel_external_sort — the whole single-run machinery of
// docs/ALGORITHM.md, re-entered per job.
#pragma once

#include <string>
#include <vector>

#include "base/types.h"
#include "core/sort_driver.h"
#include "workload/generators.h"

namespace paladin::service {

/// How admitted jobs are multiplexed onto the shared nodes.
enum class SchedulePolicy : u8 {
  /// One job at a time, in arrival order (ties: priority, then id), each
  /// at its full requested width on the fastest nodes.  Simple and
  /// exclusive — and a pathological job head-of-line-blocks everyone.
  kFifo,
  /// Width-capped slices (no job may hold more than half the cluster) on
  /// the earliest-available nodes, so small jobs overlap a monster job in
  /// virtual time on the nodes it cannot occupy.
  kFairShare,
};

inline constexpr SchedulePolicy kAllPolicies[] = {
    SchedulePolicy::kFifo,
    SchedulePolicy::kFairShare,
};

inline const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kFifo: return "fifo";
    case SchedulePolicy::kFairShare: return "fair-share";
  }
  PALADIN_UNREACHABLE();
}

/// One sort request.  Everything the service does with it is a pure
/// function of this struct plus the service seed (docs/SERVICE.md §5).
struct JobSpec {
  /// Caller-chosen identity; must be unique within one workload.  Orders
  /// ties and names the job's disk/file namespace ("job<id>.*").
  u64 id = 0;
  /// Requested record count n.  Rounded up at dispatch to the slice's
  /// admissible size (n mod Σperf == 0, hetero/perf_vector.h) and at least
  /// the backend's sampling minimum there (core::minimum_input); the
  /// padded value lands in JobReport::records.
  u64 records = 0;
  /// Record width in bytes: sizeof(DefaultKey) = 4 (the paper's u32 keys)
  /// or 100 (Datamation/AlphaSort records, workload/datamation.h).
  u32 record_bytes = static_cast<u32>(sizeof(DefaultKey));
  /// Input distribution (4-byte jobs only; Datamation keys are uniform
  /// random by construction).
  workload::Dist dist = workload::Dist::kUniform;
  /// Backend to run this job with.
  core::ParallelSortAlgorithm algorithm =
      core::ParallelSortAlgorithm::kExtPsrs;
  /// Requested node slice: the length is the width (node count) the job
  /// asks for; empty means "the whole cluster".  Entries are advisory
  /// speed hints — the effective perf vector is always the physical speed
  /// of the nodes the scheduler assigns (the cluster's clocks are shared,
  /// so a job cannot requisition speed that is not there).
  std::vector<u32> perf;
  /// Lower is more urgent; breaks arrival-time ties in dispatch order.
  u32 priority = 0;
  /// Arrival on the shared virtual-time axis, in virtual seconds.
  double arrival_s = 0.0;
  /// Per-job workload/RNG seed; 0 derives one from the service seed and
  /// the job id.
  u64 seed = 0;

  u32 requested_width() const { return static_cast<u32>(perf.size()); }
};

/// Admission limits; defaults admit anything that fits the cluster.
struct AdmissionPolicy {
  /// Reject jobs asking for more records than this.
  u64 max_records = u64{1} << 31;
  /// Clamp requested widths to this many nodes (0 = the cluster width).
  u32 max_width = 0;
};

/// Outcome of admitting one spec: either a normalized spec (width
/// resolved and clamped, seed derived) or a rejection reason.
struct AdmissionDecision {
  bool admitted = false;
  std::string reason;   ///< empty when admitted
  JobSpec normalized;   ///< meaningful only when admitted
};

/// Pure admission check: validates records/record width and the arrival
/// time (finite, >= 0), resolves an empty perf to the full cluster width,
/// clamps oversized widths.  Does not touch the records count —
/// admissibility rounding needs the scheduler's node slice and happens at
/// dispatch.
AdmissionDecision admit(const JobSpec& spec, u32 cluster_width,
                        const AdmissionPolicy& policy, u64 service_seed);

/// Parses a job list (the CLI's --jobs): jobs separated by ';' or
/// newlines, '#' starting a comment line, each job a comma-separated
/// key=value list over the keys n (or records), dist, algo (or algorithm),
/// width, arrival, priority, seed, bytes and id.  Ids default to the job's
/// position; width=0 asks for the whole cluster.  Every number must be the
/// whole value, in its field's range and finite; an arrival must be >= 0
/// and a width at most `cluster_width`, checked before the width is
/// allocated.  Anything else throws std::invalid_argument, or
/// std::out_of_range for a number outside its field.
std::vector<JobSpec> parse_job_specs(const std::string& spec,
                                     u32 cluster_width);

}  // namespace paladin::service
