#include "service/service.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "base/checksum.h"
#include "base/enum_names.h"
#include "base/rng.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "service/workload.h"
#include "workload/datamation.h"
#include "workload/generators.h"

namespace paladin::service {

// ---------------------------------------------------------------------------
// Admission.

AdmissionDecision admit(const JobSpec& spec, u32 cluster_width,
                        const AdmissionPolicy& policy, u64 service_seed) {
  AdmissionDecision d;
  d.normalized = spec;
  if (cluster_width == 0) {
    d.reason = "cluster has no nodes";
    return d;
  }
  if (spec.records == 0) {
    d.reason = "zero records";
    return d;
  }
  if (spec.records > policy.max_records) {
    d.reason = "records " + std::to_string(spec.records) +
               " exceed admission limit " + std::to_string(policy.max_records);
    return d;
  }
  if (!std::isfinite(spec.arrival_s) || spec.arrival_s < 0.0) {
    d.reason = "arrival " + std::to_string(spec.arrival_s) +
               " s is not a finite time >= 0";
    return d;
  }
  if (spec.record_bytes != sizeof(DefaultKey) &&
      spec.record_bytes != sizeof(workload::DatamationRecord)) {
    d.reason = "unsupported record width " + std::to_string(spec.record_bytes) +
               " (supported: " + std::to_string(sizeof(DefaultKey)) + ", " +
               std::to_string(sizeof(workload::DatamationRecord)) + ")";
    return d;
  }
  // Resolve the width: empty perf means the whole cluster; requested widths
  // are clamped to the cluster and the admission cap rather than rejected
  // (a narrower slice still sorts the job).
  u32 width =
      spec.perf.empty() ? cluster_width : spec.requested_width();
  const u32 cap = policy.max_width == 0
                      ? cluster_width
                      : std::min(policy.max_width, cluster_width);
  width = std::min(width, cap);
  d.normalized.perf.assign(width, 1);  // placeholder; effective speeds at dispatch
  if (d.normalized.seed == 0) {
    const u64 s = workload_draw(service_seed, spec.id, "job-seed");
    d.normalized.seed = s == 0 ? 1 : s;
  }
  d.admitted = true;
  return d;
}

namespace {

/// The whole of `text` as a finite number of V; unlike stoull, from_chars
/// rejects "-1" for an unsigned field instead of wrapping it.
template <typename V>
V job_number(const std::string& key, const std::string& text) {
  V value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::out_of_range("job key '" + key + "': " + text +
                            " is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("job key '" + key + "': '" + text +
                                "' is not a number");
  }
  if constexpr (std::is_floating_point_v<V>) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("job key '" + key + "': '" + text +
                                  "' is not a finite number");
    }
  }
  return value;
}

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r");
  const auto b = s.find_last_not_of(" \t\r");
  return a == std::string::npos ? std::string() : s.substr(a, b - a + 1);
}

void apply_job_field(JobSpec& job, const std::string& key,
                     const std::string& value, u32 cluster_width) {
  if (key == "n" || key == "records") {
    job.records = job_number<u64>(key, value);
  } else if (key == "dist") {
    const auto dist = parse_enum(workload::kAllDists, value);
    if (!dist) {
      throw std::invalid_argument("job key 'dist': '" + value +
                                  "' is not one of " +
                                  enum_names(workload::kAllDists));
    }
    job.dist = *dist;
  } else if (key == "algo" || key == "algorithm") {
    const auto algo = parse_enum(core::kAllAlgorithms, value);
    if (!algo) {
      throw std::invalid_argument("job key '" + key + "': '" + value +
                                  "' is not one of " +
                                  enum_names(core::kAllAlgorithms));
    }
    job.algorithm = *algo;
  } else if (key == "width") {
    const u32 width = job_number<u32>(key, value);
    if (width > cluster_width) {
      throw std::out_of_range("job key 'width': " + value +
                              " exceeds the cluster's " +
                              std::to_string(cluster_width) + " nodes");
    }
    job.perf.assign(width, 1);
  } else if (key == "arrival") {
    job.arrival_s = job_number<double>(key, value);
    if (job.arrival_s < 0.0) {
      throw std::invalid_argument("job key 'arrival': " + value +
                                  " is negative");
    }
  } else if (key == "priority") {
    job.priority = job_number<u32>(key, value);
  } else if (key == "seed") {
    job.seed = job_number<u64>(key, value);
  } else if (key == "bytes") {
    job.record_bytes = job_number<u32>(key, value);
  } else if (key == "id") {
    job.id = job_number<u64>(key, value);
  } else {
    throw std::invalid_argument("unknown job key '" + key +
                                "'; valid: n dist algo width arrival "
                                "priority seed bytes id");
  }
}

}  // namespace

std::vector<JobSpec> parse_job_specs(const std::string& spec,
                                     u32 cluster_width) {
  std::string text = spec;
  std::replace(text.begin(), text.end(), '\n', ';');
  std::vector<JobSpec> jobs;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line, ';')) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    JobSpec job;
    job.id = jobs.size();
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("job field '" + field +
                                    "' is not key=value");
      }
      apply_job_field(job, trim(field.substr(0, eq)),
                      trim(field.substr(eq + 1)), cluster_width);
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) throw std::invalid_argument("the spec contains no jobs");
  return jobs;
}

// ---------------------------------------------------------------------------
// Open-arrival workload generation (fault-plan hashing idiom: every
// decision is a pure hash of (seed, job, field)).

u64 workload_draw(u64 seed, u64 job, std::string_view what) {
  const u64 field =
      hash_bytes_fnv1a(reinterpret_cast<const u8*>(what.data()), what.size());
  return mix64(mix64(seed) ^ mix64(job + 0x9e37'79b9'7f4a'7c15ULL) ^ field);
}

double workload_draw_unit(u64 seed, u64 job, std::string_view what) {
  return static_cast<double>(workload_draw(seed, job, what) >> 11) *
         0x1.0p-53;
}

std::vector<JobSpec> open_arrival_workload(const OpenArrivalSpec& spec,
                                           u32 cluster_width) {
  PALADIN_EXPECTS(cluster_width > 0);
  PALADIN_EXPECTS(spec.min_records > 0);
  PALADIN_EXPECTS(spec.max_records >= spec.min_records);
  std::vector<JobSpec> jobs;
  jobs.reserve(spec.job_count);
  double t = 0.0;
  for (u64 j = 0; j < spec.job_count; ++j) {
    // Exponential inter-arrival via inverse transform: -mean * ln(1 - u).
    const double u = workload_draw_unit(spec.seed, j, "interarrival");
    t += -spec.mean_interarrival_s * std::log1p(-u);
    JobSpec job;
    job.id = j;
    job.arrival_s = t;
    const bool pathological =
        spec.pathological_every > 0 && (j + 1) % spec.pathological_every == 0;
    if (pathological) {
      // The isolation adversary: huge, duplicate-heavy, and greedy for the
      // whole cluster (perf stays empty = full width).
      job.records = spec.pathological_records;
      job.dist = workload::Dist::kZipf;
      jobs.push_back(std::move(job));
      continue;
    }
    const u64 span = spec.max_records - spec.min_records + 1;
    job.records = spec.min_records + workload_draw(spec.seed, j, "records") % span;
    job.dist = workload::kAllBenchmarks[workload_draw(spec.seed, j, "dist") %
                                        std::size(workload::kAllBenchmarks)];
    if (spec.mixed_backends) {
      job.algorithm =
          core::kAllAlgorithms[workload_draw(spec.seed, j, "algorithm") %
                               std::size(core::kAllAlgorithms)];
    }
    if (workload_draw_unit(spec.seed, j, "wide") >= spec.wide_fraction) {
      const u32 half = std::max<u32>(1, cluster_width / 2);
      job.perf.assign(
          1 + static_cast<u32>(workload_draw(spec.seed, j, "width") % half),
          1);
    }
    if (workload_draw_unit(spec.seed, j, "datamation") <
        spec.datamation_fraction) {
      job.record_bytes = sizeof(workload::DatamationRecord);
      job.dist = workload::Dist::kUniform;
    }
    job.priority = static_cast<u32>(workload_draw(spec.seed, j, "priority") % 4);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Per-job dispatch: Cluster::run's harness (net::run_nodes) over a node
// slice of the shared fabric.

namespace {

/// What one node thread hands back to the host, beyond its NodeReport.
struct NodeOutcome {
  core::BackendReport report;
  u8 ok = 0;       ///< global verdict (identical on every slice node)
  u64 digest = 0;  ///< merged output multiset digest (identical everywhere)
};

/// Root's verdict, broadcast so every node returns the same outcome.
struct JobVerdict {
  u64 digest = 0;
  u8 ok = 0;
};

/// One node's share of one job, start to finish: write the input share,
/// run the selected backend, verify order + permutation, agree on the
/// job-wide digest.  This body is exactly what a direct single-run harness
/// does around core::parallel_external_sort — the service adds nothing to
/// it (the bit-identity contract of docs/SERVICE.md §5).
template <Record T, typename Less>
NodeOutcome run_node_body(net::NodeContext& ctx, const JobSpec& job,
                          u64 n_eff, const core::ParallelSortConfig& cfg,
                          Less less) {
  const hetero::PerfVector perf(std::vector<u32>(ctx.config().perf));
  const u32 i = ctx.rank();
  const u64 share = perf.share(i, n_eff);
  const u64 offset = perf.share_offset(i, n_eff);

  if constexpr (std::is_same_v<T, DefaultKey>) {
    workload::WorkloadSpec wspec;
    wspec.dist = job.dist;
    wspec.total_records = n_eff;
    wspec.node_count = perf.node_count();
    wspec.seed = job.seed;
    workload::write_share(wspec, i, offset, share, ctx.disk(), cfg.input);
  } else {
    workload::write_datamation(ctx.disk(), cfg.input, job.seed, offset, share);
  }
  const MultisetChecksum before = core::file_checksum<T>(ctx.disk(), cfg.input);

  NodeOutcome out;
  out.report = core::parallel_external_sort<T, Less>(ctx, perf, cfg, less);

  const bool order_ok =
      core::verify_output_order<T, Less>(ctx, cfg.output, out.report, less);
  const MultisetChecksum after =
      core::output_checksum<T>(ctx.disk(), cfg.output, out.report);

  // Permutation + digest: merge every node's (input, output) checksums at
  // rank 0 and broadcast one verdict, so the job-wide digest and ok flag
  // are identical on every slice node.
  struct Pair {
    MultisetChecksum before, after;
  };
  Pair mine{before, after};
  std::vector<Pair> all = ctx.comm().template gather_records<Pair>(
      std::span<const Pair>(&mine, 1), 0);
  JobVerdict v;
  if (ctx.comm().rank() == 0) {
    MultisetChecksum b, a;
    for (const Pair& pr : all) {
      b.merge(pr.before);
      a.merge(pr.after);
    }
    v.ok = (b == a && a.count() == n_eff) ? 1 : 0;
    v.digest = a.digest();
  }
  v = ctx.comm().template bcast_value<JobVerdict>(v, 0);
  out.ok = (v.ok != 0 && order_ok) ? 1 : 0;
  out.digest = v.digest;
  return out;
}

/// The per-job ClusterConfig: the physical cluster's models with the perf
/// vector sliced to the job's nodes, the job's seed, and a job-private
/// workdir subtree (posix disks; in-memory disks are per-NodeContext and
/// need no namespacing).  The fault plan stays empty by construction.
net::ClusterConfig job_cluster_config(const ServiceConfig& svc,
                                      const JobSpec& job,
                                      const std::vector<u32>& slice) {
  net::ClusterConfig cfg;
  cfg.perf.reserve(slice.size());
  for (u32 g : slice) cfg.perf.push_back(svc.cluster.perf[g]);
  cfg.network = svc.cluster.network;
  cfg.disk = svc.cluster.disk;
  cfg.cost = svc.cluster.cost;
  if (!svc.cluster.workdir.empty()) {
    cfg.workdir = svc.cluster.workdir / ("job" + std::to_string(job.id));
  }
  cfg.seed = job.seed;
  cfg.observe = svc.cluster.observe;
  return cfg;
}

/// Runs one admitted job on `slice` (physical ranks, ascending) starting
/// at virtual time `t0`, with its own wire-tag namespace, through
/// Cluster::run's harness (net::run_nodes) on the shared fabric.
JobReport run_one_job(const ServiceConfig& svc, net::Fabric& fabric,
                      const JobSpec& job, const std::vector<u32>& slice,
                      double t0, int tag_base) {
  const net::ClusterConfig cfg = job_cluster_config(svc, job, slice);
  const hetero::PerfVector perf(std::vector<u32>(cfg.perf));

  core::ParallelSortConfig sort_cfg = svc.sort;
  sort_cfg.algorithm = job.algorithm;
  sort_cfg.input = "job" + std::to_string(job.id) + ".input";
  sort_cfg.output = "job" + std::to_string(job.id) + ".sorted";
  // Pad to an admissible size, and a job too small for its backend's
  // sample on this slice up to the backend's minimum.
  const u64 n_eff = std::max(perf.round_up_admissible(job.records),
                             core::minimum_input(sort_cfg, perf));

  const net::CommGroup group{slice, tag_base};
  // The job starts when the scheduler says it does: every node clock
  // starts at the dispatch time.
  net::RunOutcome<NodeOutcome> run = net::run_nodes(
      cfg, fabric, &group, t0, [&](net::NodeContext& ctx) {
        if (job.record_bytes == sizeof(DefaultKey)) {
          return run_node_body<DefaultKey>(ctx, job, n_eff, sort_cfg,
                                           std::less<DefaultKey>{});
        }
        return run_node_body<workload::DatamationRecord>(
            ctx, job, n_eff, sort_cfg, workload::DatamationLess{});
      });

  JobReport jr;
  jr.spec = job;
  jr.spec.perf = cfg.perf;  // effective slice speeds
  jr.nodes = slice;
  jr.arrival_s = job.arrival_s;
  jr.start_s = t0;
  jr.records = n_eff;
  jr.ok = run.results[0].ok != 0;
  jr.digest = run.results[0].digest;
  jr.finish_s = run.makespan;
  for (u32 i = 0; i < slice.size(); ++i) {
    jr.t_total_s = std::max(jr.t_total_s, run.results[i].report.t_total);
    jr.io += run.nodes[i].io;
  }
  jr.node_reports = std::move(run.nodes);
  return jr;
}

}  // namespace

// ---------------------------------------------------------------------------
// The service.

SortService::SortService(ServiceConfig config) : config_(std::move(config)) {
  PALADIN_EXPECTS(config_.cluster.node_count() > 0);
  for (u32 s : config_.cluster.perf) PALADIN_EXPECTS(s > 0);
  PALADIN_EXPECTS_MSG(!config_.cluster.fault_plan.active(),
                      "fault injection composes with single-job runs only; "
                      "run faulted jobs through net::Cluster directly");
}

ServiceReport SortService::run(std::vector<JobSpec> jobs) {
  const u32 p = config_.cluster.node_count();
  ServiceReport out;
  out.policy = config_.policy;
  out.seed = config_.seed;

  {
    std::vector<u64> ids;
    ids.reserve(jobs.size());
    for (const JobSpec& j : jobs) ids.push_back(j.id);
    std::sort(ids.begin(), ids.end());
    PALADIN_EXPECTS_MSG(
        std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
        "job ids must be unique within one workload");
  }

  std::vector<JobSpec> admitted;
  admitted.reserve(jobs.size());
  for (JobSpec& j : jobs) {
    AdmissionDecision d = admit(j, p, config_.admission, config_.seed);
    if (d.admitted) {
      admitted.push_back(std::move(d.normalized));
    } else {
      out.rejected.emplace_back(std::move(j), std::move(d.reason));
    }
  }
  // Dispatch order: arrival time, then priority (lower first), then id.
  std::stable_sort(admitted.begin(), admitted.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     if (a.arrival_s != b.arrival_s)
                       return a.arrival_s < b.arrival_s;
                     if (a.priority != b.priority) return a.priority < b.priority;
                     return a.id < b.id;
                   });
  if (admitted.empty()) return out;

  // One Fabric for the whole run: every job's traffic flows through the
  // same per-node mailboxes, separated only by the per-dispatch wire-tag
  // namespaces — the shared-cluster premise.
  net::Fabric fabric(p, config_.cluster.network);

  // avail[g] = physical node g's virtual clock after its last job — the
  // shared-clock state that arbitrates disk and CPU between jobs.
  std::vector<double> avail(p, 0.0);
  double prev_finish = 0.0;
  int seq = 0;
  for (const JobSpec& job : admitted) {
    u32 w_eff = job.requested_width();
    if (config_.policy == SchedulePolicy::kFairShare) {
      // No job may hold more than half the cluster, so someone else can
      // always run beside a monster.
      w_eff = std::min(w_eff, std::max<u32>(1, p / 2));
    }
    std::vector<u32> order(p);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
      if (config_.policy == SchedulePolicy::kFairShare &&
          avail[a] != avail[b]) {
        return avail[a] < avail[b];  // earliest-available first
      }
      if (config_.cluster.perf[a] != config_.cluster.perf[b]) {
        return config_.cluster.perf[a] > config_.cluster.perf[b];  // fastest
      }
      return a < b;
    });
    std::vector<u32> slice(order.begin(), order.begin() + w_eff);
    std::sort(slice.begin(), slice.end());

    double t0 = job.arrival_s;
    for (u32 g : slice) t0 = std::max(t0, avail[g]);
    if (config_.policy == SchedulePolicy::kFifo) {
      // Exclusive service: nobody starts before the previous job is done.
      t0 = std::max(t0, prev_finish);
    }

    JobReport jr =
        run_one_job(config_, fabric, job, slice, t0, seq * kJobTagStride);
    ++seq;
    for (u32 i = 0; i < slice.size(); ++i) {
      avail[slice[i]] = jr.node_reports[i].finish_time;
    }
    prev_finish = std::max(prev_finish, jr.finish_s);
    out.makespan_s = std::max(out.makespan_s, jr.finish_s);
    out.jobs.push_back(std::move(jr));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

obs::ClusterTrace job_cluster_trace(const JobReport& job) {
  obs::ClusterTrace trace;
  trace.makespan = job.finish_s;
  trace.set_meta("job", std::to_string(job.spec.id));
  trace.set_meta("algorithm", core::to_string(job.spec.algorithm));
  trace.set_meta("dist", workload::to_string(job.spec.dist));
  trace.set_meta("records", std::to_string(job.records));
  std::string nodes;
  for (u32 g : job.nodes) {
    if (!nodes.empty()) nodes += ',';
    nodes += std::to_string(g);
  }
  trace.set_meta("nodes", std::move(nodes));
  for (const net::NodeReport& n : job.node_reports) {
    if (n.trace) trace.nodes.push_back(*n.trace);
  }
  return trace;
}

double latency_percentile(std::span<const JobReport> jobs, double q) {
  PALADIN_EXPECTS(q > 0.0 && q <= 1.0);
  if (jobs.empty()) return 0.0;
  std::vector<double> lat;
  lat.reserve(jobs.size());
  for (const JobReport& j : jobs) lat.push_back(j.latency_s());
  std::sort(lat.begin(), lat.end());
  // Nearest rank: the ceil(q*n)-th smallest.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(lat.size())));
  if (rank == 0) rank = 1;
  return lat[std::min(lat.size(), rank) - 1];
}

std::string service_report_json(const ServiceReport& report) {
  using obs::detail::append_seconds;
  using obs::detail::append_str;
  std::string out;
  out.reserve(1 << 14);
  out += "{\"schema\":\"paladin.service_report.v1\",\"policy\":";
  append_str(out, to_string(report.policy));
  out += ",\"seed\":";
  out += std::to_string(report.seed);
  out += ",\"job_count\":";
  out += std::to_string(report.jobs.size());
  out += ",\"rejected_count\":";
  out += std::to_string(report.rejected.size());
  out += ",\"all_ok\":";
  out += report.all_ok() ? "true" : "false";
  out += ",\"makespan_s\":";
  append_seconds(out, report.makespan_s);
  out += ",\"jobs_per_vsecond\":";
  append_seconds(out, report.jobs_per_vsecond());
  out += ",\"latency_s\":{\"p50\":";
  append_seconds(out, latency_percentile(report.jobs, 0.50));
  out += ",\"p95\":";
  append_seconds(out, latency_percentile(report.jobs, 0.95));
  out += ",\"p99\":";
  append_seconds(out, latency_percentile(report.jobs, 0.99));
  out += "},\"jobs\":[\n";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobReport& j = report.jobs[i];
    if (i) out += ",\n";
    out += "{\"id\":";
    out += std::to_string(j.spec.id);
    out += ",\"algorithm\":";
    append_str(out, core::to_string(j.spec.algorithm));
    out += ",\"dist\":";
    append_str(out, workload::to_string(j.spec.dist));
    out += ",\"record_bytes\":";
    out += std::to_string(j.spec.record_bytes);
    out += ",\"records\":";
    out += std::to_string(j.records);
    out += ",\"priority\":";
    out += std::to_string(j.spec.priority);
    out += ",\"width\":";
    out += std::to_string(j.nodes.size());
    out += ",\"nodes\":[";
    for (std::size_t k = 0; k < j.nodes.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(j.nodes[k]);
    }
    out += "],\"arrival_s\":";
    append_seconds(out, j.arrival_s);
    out += ",\"start_s\":";
    append_seconds(out, j.start_s);
    out += ",\"finish_s\":";
    append_seconds(out, j.finish_s);
    out += ",\"latency_s\":";
    append_seconds(out, j.latency_s());
    out += ",\"t_total_s\":";
    append_seconds(out, j.t_total_s);
    out += ",\"ok\":";
    out += j.ok ? "true" : "false";
    out += ",\"digest\":";
    out += std::to_string(j.digest);
    out += ",\"io\":{\"blocks_read\":";
    out += std::to_string(j.io.blocks_read);
    out += ",\"blocks_written\":";
    out += std::to_string(j.io.blocks_written);
    out += ",\"bytes_read\":";
    out += std::to_string(j.io.bytes_read);
    out += ",\"bytes_written\":";
    out += std::to_string(j.io.bytes_written);
    out += "}}";
  }
  out += "\n],\"rejected\":[";
  for (std::size_t i = 0; i < report.rejected.size(); ++i) {
    if (i) out += ',';
    out += "{\"id\":";
    out += std::to_string(report.rejected[i].first.id);
    out += ",\"reason\":";
    append_str(out, report.rejected[i].second);
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace paladin::service
