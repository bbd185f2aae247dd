// Sort-as-a-service: a deterministic multi-job scheduler over the shared
// virtual cluster (docs/SERVICE.md).  One SortService owns a physical
// cluster description; each run() takes a workload of JobSpecs, admits
// them, and multiplexes every admitted job onto a slice of the shared
// nodes.  Scheduling state is one availability clock per physical node;
// jobs overlap in *virtual* time (a fair-share slice starts while another
// job's slice is still running elsewhere) while dispatches execute
// sequentially on the host — the same conservative virtual-time scheme
// that makes single runs deterministic makes the whole workload
// deterministic.
//
// Isolation between jobs that time-share nodes:
//  * mailboxes/tags — every dispatch gets a net::CommGroup with its own
//    wire-tag base (kJobTagStride apart), so a job can never consume
//    another job's packets even though all jobs share the one Fabric's
//    mailboxes for the whole run;
//  * disk — every dispatch constructs fresh per-node disks under a
//    job-private namespace ("job<id>." file prefixes; workdir/job<id>/
//    subtrees for posix disks), so jobs cannot collide on file names, and
//    disk bandwidth is arbitrated by time-division: a node's disk charges
//    its node clock, and the availability clock serialises the jobs that
//    share that node;
//  * buffer credits — pipelined exchanges draw from the shared Fabric's
//    BufferPool; per-job message_records caps bound any one job's credit
//    footprint (the fair-share bench caps the pathological job).
//
// One job = one backend run: the job body writes the share, runs
// core::parallel_external_sort, verifies layout-aware, digests the
// output — identical, bit for bit, to a direct core/sort_driver.h run of
// the same (config, seed) (tests/test_service.cpp proves it).
#pragma once

#include <algorithm>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/sort_driver.h"
#include "core/wire_tags.h"
#include "net/cluster.h"
#include "service/job.h"
#include "service/report.h"

namespace paladin::service {

/// Wire-tag spacing between concurrent jobs: wider than any logical tag
/// an algorithm uses (the user tags of core/wire_tags.h, and the reserved
/// collective tags in [-6, -2]).
inline constexpr int kJobTagStride = 1024;
static_assert(std::ranges::max(core::kWireTags) < kJobTagStride);

struct ServiceConfig {
  /// The physical shared cluster: perf, network, disk, cost model,
  /// observe flag, and the workdir root (per-job subtrees
  /// are created beneath it).  The fault plan must be empty — fault
  /// injection composes with single-job runs only.
  net::ClusterConfig cluster;
  SchedulePolicy policy = SchedulePolicy::kFifo;
  AdmissionPolicy admission;
  /// Shared backend tuning (memory budget, message size, splitter
  /// strategy...).  Per job, the service overrides `algorithm` from the
  /// JobSpec and the input/output names with the job's namespace.
  core::ParallelSortConfig sort;
  /// Service master seed: derives per-job seeds for specs with seed 0.
  u64 seed = 42;
};

class SortService {
 public:
  explicit SortService(ServiceConfig config);

  const ServiceConfig& config() const { return config_; }

  /// Admits and runs one workload to completion.  Deterministic: the
  /// report (including every job digest and all virtual times) is a pure
  /// function of (config, jobs).
  ServiceReport run(std::vector<JobSpec> jobs);

 private:
  ServiceConfig config_;
};

}  // namespace paladin::service
