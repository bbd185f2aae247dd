// Per-job and per-workload results of a service run.  A JobReport is the
// service-level RunReport of one job: where it ran, when it started and
// finished on the virtual-time axis, whether its output verified, its
// output multiset digest, and the harvested per-node NodeReports (IoStats,
// finish times and — under ClusterConfig::observe — the full obs traces,
// from which job_cluster_trace() assembles a per-job obs::ClusterTrace for
// the standard exporters).  ServiceReport aggregates a whole workload:
// dispatch-ordered job rows, rejected specs, makespan, throughput in
// jobs per virtual second, and latency percentiles.  service_report_json
// serialises it with the same fixed-format determinism contract as
// obs/export.h: identical runs serialise byte-identically.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/io_stats.h"
#include "service/job.h"

namespace paladin::service {

/// Everything the service knows about one finished job.
struct JobReport {
  /// The normalized spec as dispatched (perf = effective slice speeds).
  JobSpec spec;
  /// Physical ranks of the slice, ascending; index = job-local rank.
  std::vector<u32> nodes;
  double arrival_s = 0.0;
  double start_s = 0.0;   ///< dispatch time: max(arrival, slice availability)
  double finish_s = 0.0;  ///< last slice node's virtual clock at completion
  /// Records actually sorted (the spec's count rounded up to the slice's
  /// admissible size and the backend's sampling minimum).
  u64 records = 0;
  /// Sorted + permutation verification verdict, layout-aware.
  bool ok = false;
  /// Multiset digest of the sorted output across the slice — the per-job
  /// fingerprint of the determinism contract (docs/SERVICE.md §5).
  u64 digest = 0;
  /// Backend-reported t_total, max across the slice.
  double t_total_s = 0.0;
  /// Disk totals summed across the slice.
  pdm::IoStats io;
  /// Raw per-node harvest, in job-local rank order (trace non-null only
  /// under ClusterConfig::observe).
  std::vector<net::NodeReport> node_reports;

  double latency_s() const { return finish_s - arrival_s; }
};

/// Assembles the standard exporters' input from one job's harvested
/// traces (empty unless the service ran with observe): per-job meta plus
/// every node's NodeTrace, makespan = the job's finish time.
obs::ClusterTrace job_cluster_trace(const JobReport& job);

/// One service run over one workload.
struct ServiceReport {
  SchedulePolicy policy = SchedulePolicy::kFifo;
  u64 seed = 0;
  std::vector<JobReport> jobs;  ///< dispatch order
  std::vector<std::pair<JobSpec, std::string>> rejected;
  double makespan_s = 0.0;      ///< max job finish (0 for an empty workload)

  bool all_ok() const {
    for (const JobReport& j : jobs) {
      if (!j.ok) return false;
    }
    return true;
  }

  /// Completed jobs per virtual second of makespan — the service
  /// throughput headline (0 for an empty workload).
  double jobs_per_vsecond() const {
    return makespan_s > 0.0
               ? static_cast<double>(jobs.size()) / makespan_s
               : 0.0;
  }
};

/// Nearest-rank latency percentile (q in (0, 1]) over a set of job rows;
/// 0 when the set is empty.  Deterministic: sorts a copy of the latencies.
double latency_percentile(std::span<const JobReport> jobs, double q);

/// Fixed-format JSON (schema paladin.service_report.v1): run meta,
/// aggregate throughput/latency percentiles, one row per job in dispatch
/// order, and the rejected specs with reasons.
std::string service_report_json(const ServiceReport& report);

}  // namespace paladin::service
