// Sort-as-a-service throughput and isolation on the paper's simulated
// testbed: one deterministic open-arrival workload of small jobs with a
// pathological monster (huge n, zipf-skewed keys, demanding the whole
// cluster) injected at a fixed cadence, run under both scheduling
// policies.  The headline numbers are jobs per virtual second and the
// p50/p95/p99 job-latency percentiles; the isolation claim — under
// fair-share the monster cannot starve the small jobs — is *asserted*,
// not just reported: the small-job p99 under fair-share must beat FIFO's,
// and every job must verify (order + permutation).
//
// With --json-dir=D the machine-readable results land in
// D/BENCH_service.json; the EXPERIMENTS.md service tables are generated
// from this output, and tools/check_perf_regression.py --service gates
// throughput drift in CI.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "metrics/table.h"
#include "service/service.h"
#include "service/workload.h"

namespace paladin::bench {
namespace {

using service::JobReport;
using service::OpenArrivalSpec;
using service::SchedulePolicy;
using service::ServiceConfig;
using service::ServiceReport;
using service::SortService;

struct Row {
  std::string policy;
  u64 jobs = 0;
  u64 small_jobs = 0;
  u64 patho_jobs = 0;
  double makespan_s = 0.0;
  double jobs_per_vsec = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double small_p99_s = 0.0;
  bool all_ok = false;
};

Row summarize(const char* name, const ServiceReport& report,
              u64 small_threshold) {
  Row r;
  r.policy = name;
  r.jobs = report.jobs.size();
  r.makespan_s = report.makespan_s;
  r.jobs_per_vsec = report.jobs_per_vsecond();
  r.p50_s = latency_percentile(report.jobs, 0.50);
  r.p95_s = latency_percentile(report.jobs, 0.95);
  r.p99_s = latency_percentile(report.jobs, 0.99);
  std::vector<JobReport> smalls;
  for (const JobReport& j : report.jobs) {
    if (j.spec.records < small_threshold) {
      smalls.push_back(j);
    } else {
      ++r.patho_jobs;
    }
  }
  r.small_jobs = smalls.size();
  r.small_p99_s = latency_percentile(
      std::span<const JobReport>(smalls), 0.99);
  r.all_ok = report.all_ok();
  return r;
}

void append_json(std::string& json, const Row& r, bool first) {
  if (!first) json += ",\n";
  json += "    {\"policy\": \"" + r.policy +
          "\", \"jobs\": " + std::to_string(r.jobs) +
          ", \"small_jobs\": " + std::to_string(r.small_jobs) +
          ", \"patho_jobs\": " + std::to_string(r.patho_jobs) +
          ", \"makespan_s\": " + metrics::TextTable::fmt(r.makespan_s, 6) +
          ", \"jobs_per_vsec\": " +
          metrics::TextTable::fmt(r.jobs_per_vsec, 8) +
          ", \"p50_s\": " + metrics::TextTable::fmt(r.p50_s, 6) +
          ", \"p95_s\": " + metrics::TextTable::fmt(r.p95_s, 6) +
          ", \"p99_s\": " + metrics::TextTable::fmt(r.p99_s, 6) +
          ", \"small_p99_s\": " + metrics::TextTable::fmt(r.small_p99_s, 6) +
          ", \"all_ok\": " + (r.all_ok ? "true" : "false") + "}";
}

int run(const BenchOptions& opt) {
  // The open-arrival workload: a stream of small mixed-backend jobs with
  // a full-width zipf monster every 6th arrival.  Deterministic per seed,
  // identical for both policies.
  OpenArrivalSpec wspec;
  wspec.seed = 2026;
  wspec.job_count = opt.full ? 24 : 12;
  // Tight enough that jobs genuinely queue (a small job takes ~0.1
  // virtual seconds, the monster ~1 s): contention is the whole point.
  wspec.mean_interarrival_s = 0.25;
  wspec.min_records = scaled_pow2(opt, 16);
  wspec.max_records = scaled_pow2(opt, 18);
  wspec.mixed_backends = true;
  wspec.pathological_every = 6;
  wspec.pathological_records = scaled_pow2(opt, 22);

  auto run_policy = [&](SchedulePolicy policy) {
    ServiceConfig sc;
    sc.cluster = paper_cluster(opt);
    sc.policy = policy;
    sc.seed = 2026;
    sc.sort.sequential.memory_records = scaled_memory(opt);
    sc.sort.sequential.allow_in_memory = false;
    sc.sort.message_records = 8192;
    SortService svc(sc);
    return svc.run(service::open_arrival_workload(
        wspec, sc.cluster.node_count()));
  };

  heading("Sort service: " + std::to_string(wspec.job_count) +
          " open-arrival jobs (monster every " +
          std::to_string(wspec.pathological_every) + "th, " +
          std::to_string(wspec.pathological_records) +
          " zipf records), cluster {4,4,1,1}");

  const ServiceReport fifo = run_policy(SchedulePolicy::kFifo);
  const ServiceReport fair = run_policy(SchedulePolicy::kFairShare);

  // Small = anything under the monster size (arrivals draw at most
  // max_records, far below pathological_records).
  const u64 small_threshold = wspec.pathological_records;
  const Row r_fifo = summarize("fifo", fifo, small_threshold);
  const Row r_fair = summarize("fair-share", fair, small_threshold);

  metrics::TextTable table({"policy", "jobs/vsec", "p50 (s)", "p95 (s)",
                            "p99 (s)", "small p99 (s)", "ok"});
  for (const Row* r : {&r_fifo, &r_fair}) {
    table.add_row({r->policy, metrics::TextTable::fmt(r->jobs_per_vsec, 6),
                   fmt_seconds(r->p50_s), fmt_seconds(r->p95_s),
                   fmt_seconds(r->p99_s), fmt_seconds(r->small_p99_s),
                   r->all_ok ? "yes" : "NO"});
  }
  table.print(std::cout);
  note("latency = finish - arrival on the shared virtual-time axis; "
       "small = the non-pathological jobs");

  // The isolation demonstration, asserted: under FIFO the monster
  // head-of-line-blocks the small jobs; fair-share width-caps it, so the
  // small-job tail latency must improve.
  bool ok = r_fifo.all_ok && r_fair.all_ok;
  if (r_fair.small_p99_s < r_fifo.small_p99_s) {
    note("isolation: small-job p99 " + fmt_seconds(r_fair.small_p99_s) +
         " (fair-share) < " + fmt_seconds(r_fifo.small_p99_s) +
         " (fifo) -- the monster cannot starve the small jobs");
  } else {
    note("ISOLATION FAILURE: fair-share small-job p99 " +
         fmt_seconds(r_fair.small_p99_s) + " did not beat fifo's " +
         fmt_seconds(r_fifo.small_p99_s));
    ok = false;
  }

  if (!opt.obs_out.empty()) {
    obs::write_text_file(opt.obs_out + ".report.json",
                         service_report_json(fair));
    note("wrote " + opt.obs_out + ".report.json (fair-share service report)");
  }

  std::ostringstream out;
  out << "{\n  \"bench\": \"service\",\n  \"cluster\": \"4,4,1,1\",\n"
      << "  \"job_count\": " << wspec.job_count << ",\n  \"rows\": [\n";
  std::string json;
  append_json(json, r_fifo, true);
  append_json(json, r_fair, false);
  out << json << "\n  ]\n}\n";
  write_json(opt, "BENCH_service.json", out.str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
