// The sort-as-a-service contract (docs/SERVICE.md):
//
//  * bit-identity — a single-job service run produces the same digest, the
//    same virtual finish time and a byte-identical RunReport JSON as a
//    direct net::Cluster run of the same (config, seed) around
//    core::parallel_external_sort — the service adds scheduling, not
//    simulation;
//  * scheduler edge cases — empty workload, simultaneous arrivals
//    (priority then id), more jobs than nodes, mixed backends (including
//    the bucket-file output layout), Datamation records;
//  * policies — FIFO is exclusive (no overlap in virtual time); fair-share
//    caps widths at half the cluster and overlaps a small job with a
//    monster, bounding the small job's latency;
//  * determinism — a replayed workload serialises byte-identically;
//  * admission — rejections carry reasons, widths clamp, sizes round up to
//    the slice's admissible n and its backend's sampling minimum;
//  * job specs — every parsed field is whole, in range and finite, or the
//    spec is rejected with std::invalid_argument / std::out_of_range;
//  * failures — a failed job rethrows the failing node's own error, not a
//    peer's MailboxPoisoned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "base/enum_names.h"
#include "base/temp_dir.h"
#include "core/sort_driver.h"
#include "core/splitter_tree.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "service/service.h"
#include "service/workload.h"
#include "test_params.h"
#include "workload/datamation.h"
#include "workload/generators.h"

namespace paladin::service {
namespace {

using core::ParallelSortAlgorithm;
using workload::Dist;

ServiceConfig tiny_service(std::vector<u32> perf, SchedulePolicy policy) {
  ServiceConfig sc;
  sc.cluster.perf = std::move(perf);
  sc.cluster.disk = test_params::tiny_blocks();
  sc.policy = policy;
  sc.sort.sequential.memory_records = test_params::kMemoryRecords;
  sc.sort.sequential.tape_count = test_params::kTapeCount;
  sc.sort.sequential.allow_in_memory = false;
  sc.sort.message_records = test_params::kMessageRecords;
  return sc;
}

JobSpec small_job(u64 id, u64 records, double arrival = 0.0) {
  JobSpec j;
  j.id = id;
  j.records = records;
  j.arrival_s = arrival;
  return j;
}

/// Every value of `all` parses back from its name and appears in the name
/// list; `unknown` is rejected.
template <typename E, std::size_t N>
void expect_names_round_trip(const E (&all)[N], std::string_view unknown) {
  const std::string names = enum_names(all);
  for (const E e : all) {
    const auto back = parse_enum(all, to_string(e));
    ASSERT_TRUE(back.has_value()) << to_string(e);
    EXPECT_EQ(*back, e);
    EXPECT_NE(names.find(to_string(e)), std::string::npos) << names;
  }
  EXPECT_EQ(std::count(names.begin(), names.end(), ','),
            static_cast<std::ptrdiff_t>(N - 1))
      << names;
  EXPECT_FALSE(parse_enum(all, unknown).has_value()) << unknown;
}

TEST(EnumNames, EveryUserFacingEnumRoundTrips) {
  expect_names_round_trip(core::kAllAlgorithms, "quick-sort");
  expect_names_round_trip(core::kAllSplitterStrategies, "pyramid");
  expect_names_round_trip(workload::kAllDists, "bimodal");
  expect_names_round_trip(kAllPolicies, "round-robin");
}

TEST(ServiceJob, AdmissionRejectsAndNormalizes) {
  AdmissionPolicy policy;
  // Zero records.
  EXPECT_FALSE(admit(small_job(0, 0), 4, policy, 1).admitted);
  // Over the records cap, with the numbers in the reason.
  policy.max_records = 1000;
  const AdmissionDecision big = admit(small_job(1, 2000), 4, policy, 1);
  EXPECT_FALSE(big.admitted);
  EXPECT_NE(big.reason.find("2000"), std::string::npos);
  policy.max_records = u64{1} << 31;
  // Unsupported record width.
  JobSpec odd = small_job(2, 100);
  odd.record_bytes = 8;
  EXPECT_FALSE(admit(odd, 4, policy, 1).admitted);
  // Empty perf resolves to the full cluster; oversized widths clamp.
  EXPECT_EQ(admit(small_job(3, 100), 4, policy, 1).normalized.requested_width(),
            4u);
  JobSpec wide = small_job(4, 100);
  wide.perf.assign(9, 1);
  EXPECT_EQ(admit(wide, 4, policy, 1).normalized.requested_width(), 4u);
  policy.max_width = 2;
  EXPECT_EQ(admit(wide, 4, policy, 1).normalized.requested_width(), 2u);
  // Zero seed derives a nonzero one, deterministically per (seed, id).
  const AdmissionDecision a = admit(small_job(5, 100), 4, policy, 7);
  const AdmissionDecision b = admit(small_job(5, 100), 4, policy, 7);
  EXPECT_NE(a.normalized.seed, 0u);
  EXPECT_EQ(a.normalized.seed, b.normalized.seed);
  JobSpec seeded = small_job(6, 100);
  seeded.seed = 99;
  EXPECT_EQ(admit(seeded, 4, policy, 7).normalized.seed, 99u);
}

TEST(ServiceJob, AdmissionRejectsNonFiniteOrNegativeArrival) {
  const AdmissionPolicy policy;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double arrival : {std::nan(""), inf, -inf, -5.0}) {
    const AdmissionDecision d =
        admit(small_job(1, 100, arrival), 4, policy, 1);
    EXPECT_FALSE(d.admitted) << arrival;
    EXPECT_NE(d.reason.find("arrival"), std::string::npos) << d.reason;
  }
  EXPECT_TRUE(admit(small_job(2, 100, 0.0), 4, policy, 1).admitted);
}

TEST(ServiceJob, SpecFieldsParseWholeInRangeAndFinite) {
  const std::vector<JobSpec> jobs = parse_job_specs(
      "n=4096,dist=zipf,algo=ext-multiway,width=2,arrival=0.5,priority=3;"
      "# a comment\n id=9, n = 100 ,bytes=100,seed=7",
      4);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 0u);
  EXPECT_EQ(jobs[0].records, 4096u);
  EXPECT_EQ(jobs[0].dist, Dist::kZipf);
  EXPECT_EQ(jobs[0].algorithm, ParallelSortAlgorithm::kExtMultiway);
  EXPECT_EQ(jobs[0].requested_width(), 2u);
  EXPECT_EQ(jobs[0].arrival_s, 0.5);
  EXPECT_EQ(jobs[0].priority, 3u);
  EXPECT_EQ(jobs[1].id, 9u);
  EXPECT_EQ(jobs[1].records, 100u);
  EXPECT_EQ(jobs[1].record_bytes, 100u);
  EXPECT_EQ(jobs[1].seed, 7u);
  // Each of these used to parse: a prefix, a wrapped negative, a truncated
  // priority, a non-finite or negative arrival, a 3·10^9-entry width.
  for (const char* bad : {"n=12abc", "n=-1", "n=5000,arrival=nan",
                          "arrival=inf", "arrival=-5", "width=",
                          "dist=bimodal", "speed=2", "n"}) {
    EXPECT_THROW(parse_job_specs(bad, 4), std::invalid_argument) << bad;
  }
  for (const char* big : {"priority=4294967297", "width=3000000000",
                          "width=5", "n=18446744073709551616",
                          "arrival=1e400"}) {
    EXPECT_THROW(parse_job_specs(big, 4), std::out_of_range) << big;
  }
  EXPECT_THROW(parse_job_specs(" ; # nothing", 4), std::invalid_argument);
}

// Seeded fuzz over --jobs specs built from valid and hostile pieces: each
// spec is either rejected with std::invalid_argument / std::out_of_range
// or yields jobs whose fields are finite and in range, which admission
// then never rejects for their arrival time.
TEST(ServiceJob, FuzzedSpecsAreRejectedOrInRange) {
  const std::vector<std::string> keys = {
      "n",        "records", "dist", "algo", "algorithm", "width", "arrival",
      "priority", "seed",    "bytes", "id",  "nope",      "",      " n "};
  const std::vector<std::string> values = {
      "0",         "1",          "4096",        "12abc",
      "-1",        "+1",         "4294967295",  "4294967296",
      "4294967297", "18446744073709551615",     "18446744073709551616",
      "nan",       "inf",        "-inf",        "-5",
      "0.5",       "1e400",      "1e-400",      "3000000000",
      "",          " 7 ",        "0x10",        "zipf",
      "uniform",   "ext-psrs",   "ext-multiway", "bogus",
      "2",         "4",          "100"};
  std::mt19937_64 rng(2026);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng() % from.size()];
  };
  u64 accepted = 0;
  u64 rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec;
    const u64 jobs = 1 + rng() % 3;
    for (u64 j = 0; j < jobs; ++j) {
      if (j > 0) spec += rng() % 2 == 0 ? ";" : "\n";
      if (rng() % 16 == 0) spec += "# ";
      const u64 fields = 1 + rng() % 3;
      for (u64 f = 0; f < fields; ++f) {
        if (f > 0) spec += ",";
        if (rng() % 32 == 0) {
          spec += pick(values);  // no '='
        } else {
          spec += pick(keys) + "=" + pick(values);
        }
      }
    }
    const u32 width = 1 + static_cast<u32>(rng() % 8);
    std::vector<JobSpec> parsed;
    try {
      parsed = parse_job_specs(spec, width);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::out_of_range&) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_FALSE(parsed.empty()) << spec;
    for (const JobSpec& job : parsed) {
      EXPECT_TRUE(std::isfinite(job.arrival_s)) << spec;
      EXPECT_GE(job.arrival_s, 0.0) << spec;
      EXPECT_LE(job.requested_width(), width) << spec;
      EXPECT_TRUE(parse_enum(workload::kAllDists, to_string(job.dist)))
          << spec;
      EXPECT_TRUE(
          parse_enum(core::kAllAlgorithms, core::to_string(job.algorithm)))
          << spec;
      const AdmissionDecision d = admit(job, width, AdmissionPolicy{}, 1);
      EXPECT_EQ(d.reason.find("arrival"), std::string::npos) << spec;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(ServiceScheduler, EmptyWorkload) {
  SortService svc(tiny_service({2, 1}, SchedulePolicy::kFifo));
  const ServiceReport report = svc.run({});
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_TRUE(report.rejected.empty());
  EXPECT_EQ(report.makespan_s, 0.0);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.jobs_per_vsecond(), 0.0);
  EXPECT_NE(service_report_json(report).find("\"job_count\":0"),
            std::string::npos);
}

// The tentpole proof: one job through the service is bit-identical to the
// same sort run directly through net::Cluster — same digest, same virtual
// makespan, byte-identical RunReport JSON (spans, counters, IoStats).
TEST(ServiceScheduler, SingleJobBitIdenticalToDirectRun) {
  constexpr u64 kSeed = 777;
  constexpr u64 kRecords = 5000;  // admissible on {4,4,1,1}: 5000 % 10 == 0

  ServiceConfig sc = tiny_service({4, 4, 1, 1}, SchedulePolicy::kFifo);
  sc.cluster.observe = true;
  JobSpec job = small_job(3, kRecords);
  job.seed = kSeed;

  SortService svc(sc);
  const ServiceReport report = svc.run({job});
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobReport& jr = report.jobs[0];
  ASSERT_TRUE(jr.ok);
  EXPECT_EQ(jr.records, kRecords);
  EXPECT_EQ(jr.start_s, 0.0);
  EXPECT_EQ(jr.nodes, (std::vector<u32>{0, 1, 2, 3}));

  // The direct run: net::Cluster with the same config and seed, the node
  // body performing operation-for-operation what the service's per-node
  // body does (input generation, sort, order + permutation verification).
  net::ClusterConfig cc;
  cc.perf = {4, 4, 1, 1};
  cc.disk = test_params::tiny_blocks();
  cc.seed = kSeed;
  cc.observe = true;
  net::Cluster cluster(cc);

  const hetero::PerfVector perf(cc.perf);
  core::ParallelSortConfig psc = sc.sort;
  psc.algorithm = ParallelSortAlgorithm::kExtPsrs;
  psc.input = "job3.input";
  psc.output = "job3.sorted";

  workload::WorkloadSpec wspec;
  wspec.dist = Dist::kUniform;
  wspec.total_records = kRecords;
  wspec.node_count = 4;
  wspec.seed = kSeed;

  struct Verdict {
    u64 digest = 0;
    u8 ok = 0;
  };
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> Verdict {
    const u32 i = ctx.rank();
    workload::write_share(wspec, i, perf.share_offset(i, kRecords),
                          perf.share(i, kRecords), ctx.disk(), psc.input);
    const MultisetChecksum before =
        core::file_checksum<DefaultKey>(ctx.disk(), psc.input);
    core::parallel_external_sort<DefaultKey>(ctx, perf, psc);
    const bool order_ok =
        core::verify_global_order<DefaultKey>(ctx, psc.output);
    MultisetChecksum after =
        core::file_checksum<DefaultKey>(ctx.disk(), psc.output);
    struct Pair {
      MultisetChecksum before, after;
    };
    Pair mine{before, after};
    std::vector<Pair> all = ctx.comm().template gather_records<Pair>(
        std::span<const Pair>(&mine, 1), 0);
    Verdict v;
    if (ctx.comm().rank() == 0) {
      MultisetChecksum b, a;
      for (const Pair& pr : all) {
        b.merge(pr.before);
        a.merge(pr.after);
      }
      v.ok = (b == a && a.count() == kRecords) ? 1 : 0;
      v.digest = a.digest();
    }
    v = ctx.comm().template bcast_value<Verdict>(v, 0);
    v.ok = static_cast<u8>((v.ok != 0 && order_ok) ? 1 : 0);
    return v;
  });

  ASSERT_TRUE(outcome.results[0].ok != 0);
  EXPECT_EQ(jr.digest, outcome.results[0].digest);
  EXPECT_EQ(jr.finish_s, outcome.makespan);  // exact double equality

  // Byte-identical observability: same spans, counters, IoStats.
  obs::ClusterTrace via_service;
  via_service.makespan = jr.finish_s;
  for (const net::NodeReport& n : jr.node_reports) {
    ASSERT_TRUE(n.trace != nullptr);
    via_service.nodes.push_back(*n.trace);
  }
  const obs::ClusterTrace direct = core::collect_cluster_trace(outcome);
  EXPECT_EQ(obs::run_report_json(via_service), obs::run_report_json(direct));
}

TEST(ServiceScheduler, SimultaneousArrivalsOrderByPriorityThenId) {
  SortService svc(tiny_service({2, 1}, SchedulePolicy::kFifo));
  JobSpec a = small_job(10, 600);
  a.priority = 1;
  JobSpec b = small_job(12, 600);
  JobSpec c = small_job(11, 600);
  const ServiceReport report = svc.run({a, b, c});
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_TRUE(report.all_ok());
  // Same arrival: priority 0 first (ids ascending), then priority 1.
  EXPECT_EQ(report.jobs[0].spec.id, 11u);
  EXPECT_EQ(report.jobs[1].spec.id, 12u);
  EXPECT_EQ(report.jobs[2].spec.id, 10u);
}

TEST(ServiceScheduler, MoreJobsThanNodesFifoIsExclusive) {
  SortService svc(tiny_service({2, 1}, SchedulePolicy::kFifo));
  std::vector<JobSpec> jobs;
  for (u64 j = 0; j < 5; ++j) {
    jobs.push_back(small_job(j, 600 + 60 * j, 0.01 * static_cast<double>(j)));
  }
  const ServiceReport report = svc.run(jobs);
  ASSERT_EQ(report.jobs.size(), 5u);
  EXPECT_TRUE(report.all_ok());
  for (std::size_t i = 1; i < report.jobs.size(); ++i) {
    // Exclusive service: nobody starts before the previous job finished.
    EXPECT_GE(report.jobs[i].start_s, report.jobs[i - 1].finish_s);
  }
  EXPECT_EQ(report.makespan_s, report.jobs.back().finish_s);
  // Sizes round up to the slice's admissible n (sum(perf) = 3 here).
  for (const JobReport& j : report.jobs) {
    EXPECT_EQ(j.records % 3, 0u);
    EXPECT_GE(j.records, j.spec.records);
  }
}

TEST(ServiceScheduler, MixedBackendsAllVerify) {
  SortService svc(tiny_service({4, 2, 1, 1}, SchedulePolicy::kFifo));
  std::vector<JobSpec> jobs;
  u64 id = 0;
  for (const ParallelSortAlgorithm algo : core::kAllAlgorithms) {
    JobSpec j = small_job(id, 800 + 80 * id, 0.02 * static_cast<double>(id));
    j.algorithm = algo;
    j.dist = Dist::kZipf;  // duplicate-heavy, adversarial for samplers
    jobs.push_back(j);
    ++id;
  }
  const ServiceReport report = svc.run(jobs);
  ASSERT_EQ(report.jobs.size(), std::size(core::kAllAlgorithms));
  for (const JobReport& j : report.jobs) {
    EXPECT_TRUE(j.ok) << core::to_string(j.spec.algorithm);
    EXPECT_NE(j.digest, 0u);
    EXPECT_GT(j.io.blocks_written, 0u);
  }
}

// A node that fails to start fails the job with its own error.  Node 1's
// posix disk cannot create its directory, because a regular file sits at
// that path; node 0 then blocks on a poisoned mailbox.  The service must
// rethrow node 1's filesystem_error, not node 0's MailboxPoisoned.
TEST(ServiceScheduler, FailedJobReportsTheCauseNotAPoisonedPeer) {
  ScopedTempDir dir("paladin-service-failure");
  ServiceConfig sc = tiny_service({1, 1}, SchedulePolicy::kFifo);
  sc.cluster.workdir = dir.path();
  std::filesystem::create_directories(dir.path() / "job0");
  std::ofstream(dir.path() / "job0" / "node1") << "not a directory\n";
  SortService svc(sc);
  EXPECT_THROW(svc.run({small_job(0, 400)}),
               std::filesystem::filesystem_error);
}

// A job too small for its backend's sample on its slice is padded to
// core::minimum_input instead of aborting the run, so every other job's
// result survives.
TEST(ServiceScheduler, TinyJobsArePaddedToTheBackendMinimum) {
  const ServiceConfig sc = tiny_service({4, 2, 1, 1}, SchedulePolicy::kFifo);
  const JobSpec normal = small_job(0, 2000);
  const ServiceReport alone = SortService(sc).run({normal});
  ASSERT_EQ(alone.jobs.size(), 1u);
  ASSERT_TRUE(alone.jobs[0].ok);

  std::vector<JobSpec> jobs = {normal};
  for (const ParallelSortAlgorithm algo : core::kAllAlgorithms) {
    for (const u32 width : {1u, 2u, 4u}) {
      for (const u64 n : {1u, 2u, 3u, 4u, 8u, 15u, 16u}) {
        JobSpec j = small_job(jobs.size(), n, 1.0);
        j.algorithm = algo;
        j.perf.assign(width, 1);
        jobs.push_back(j);
      }
    }
  }
  const ServiceReport report = SortService(sc).run(jobs);
  EXPECT_TRUE(report.rejected.empty());
  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (const JobReport& j : report.jobs) {
    EXPECT_TRUE(j.ok) << core::to_string(j.spec.algorithm) << " n="
                      << j.spec.records << " width=" << j.nodes.size();
    EXPECT_GE(j.records, j.spec.records);
  }
  EXPECT_EQ(report.jobs[0].spec.id, 0u);
  EXPECT_EQ(report.jobs[0].digest, alone.jobs[0].digest);
  EXPECT_EQ(report.jobs[0].records, alone.jobs[0].records);
}

TEST(ServiceScheduler, DatamationRecordsSort) {
  ServiceConfig sc = tiny_service({2, 1}, SchedulePolicy::kFifo);
  sc.cluster.disk.block_bytes = 1000;  // 10 wide records per block
  SortService svc(sc);
  JobSpec j = small_job(0, 300);
  j.record_bytes = sizeof(workload::DatamationRecord);
  const ServiceReport report = svc.run({j});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_TRUE(report.jobs[0].ok);
  EXPECT_EQ(report.jobs[0].spec.record_bytes, 100u);
}

// Fair-share's isolation mechanism: the monster is width-capped to half
// the cluster, so the small job runs beside it on the remaining nodes —
// its start precedes the monster's finish (overlap in virtual time), which
// FIFO structurally cannot do.
TEST(ServicePolicy, FairShareOverlapsSmallJobWithMonster) {
  JobSpec monster = small_job(0, 20000);
  monster.dist = Dist::kZipf;
  JobSpec little = small_job(1, 600, 1e-3);

  SortService fifo(tiny_service({4, 4, 1, 1}, SchedulePolicy::kFifo));
  const ServiceReport r_fifo = fifo.run({monster, little});
  ASSERT_EQ(r_fifo.jobs.size(), 2u);
  EXPECT_TRUE(r_fifo.all_ok());
  EXPECT_EQ(r_fifo.jobs[0].nodes.size(), 4u);
  EXPECT_GE(r_fifo.jobs[1].start_s, r_fifo.jobs[0].finish_s);

  SortService fair(tiny_service({4, 4, 1, 1}, SchedulePolicy::kFairShare));
  const ServiceReport r_fair = fair.run({monster, little});
  ASSERT_EQ(r_fair.jobs.size(), 2u);
  EXPECT_TRUE(r_fair.all_ok());
  // Width cap: no job holds more than half the cluster.
  EXPECT_EQ(r_fair.jobs[0].nodes.size(), 2u);
  EXPECT_EQ(r_fair.jobs[1].nodes.size(), 2u);
  // The small job starts on the free nodes while the monster still runs.
  EXPECT_LT(r_fair.jobs[1].start_s, r_fair.jobs[0].finish_s);
  EXPECT_EQ(r_fair.jobs[1].nodes, (std::vector<u32>{2, 3}));
  // And its latency is bounded by the overlap.
  EXPECT_LT(r_fair.jobs[1].latency_s(), r_fifo.jobs[1].latency_s());
}

TEST(ServiceDeterminism, ReplayedWorkloadSerialisesByteIdentically) {
  OpenArrivalSpec wspec;
  wspec.job_count = 6;
  wspec.min_records = 600;
  wspec.max_records = 1200;
  wspec.mean_interarrival_s = 10.0;
  const std::vector<JobSpec> jobs = open_arrival_workload(wspec, 4);

  auto run_once = [&] {
    SortService svc(tiny_service({4, 4, 1, 1}, SchedulePolicy::kFairShare));
    return service_report_json(svc.run(jobs));
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\":\"paladin.service_report.v1\""),
            std::string::npos);
}

TEST(ServiceWorkload, OpenArrivalIsPureAndMonotone) {
  OpenArrivalSpec spec;
  spec.job_count = 32;
  spec.pathological_every = 8;
  spec.datamation_fraction = 0.25;
  const std::vector<JobSpec> a = open_arrival_workload(spec, 4);
  const std::vector<JobSpec> b = open_arrival_workload(spec, 4);
  ASSERT_EQ(a.size(), 32u);
  double prev = 0.0;
  u64 pathological = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].records, b[i].records);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].dist, b[i].dist);
    EXPECT_EQ(a[i].algorithm, b[i].algorithm);
    EXPECT_GE(a[i].arrival_s, prev);
    prev = a[i].arrival_s;
    if ((i + 1) % 8 == 0) {
      ++pathological;
      EXPECT_EQ(a[i].dist, Dist::kZipf);
      EXPECT_EQ(a[i].records, spec.pathological_records);
      EXPECT_TRUE(a[i].perf.empty());  // wants the whole cluster
    } else {
      EXPECT_GE(a[i].records, spec.min_records);
      EXPECT_LE(a[i].records, spec.max_records);
    }
  }
  EXPECT_EQ(pathological, 4u);
}

TEST(ServiceReportJson, CarriesJobsAndRejections) {
  ServiceConfig sc = tiny_service({2, 1}, SchedulePolicy::kFifo);
  sc.admission.max_records = 1000;
  SortService svc(sc);
  JobSpec ok_job = small_job(0, 600);
  JobSpec too_big = small_job(1, 5000);
  const ServiceReport report = svc.run({ok_job, too_big});
  ASSERT_EQ(report.jobs.size(), 1u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].first.id, 1u);
  const std::string json = service_report_json(report);
  EXPECT_NE(json.find("\"rejected_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"fifo\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("exceed admission limit"), std::string::npos);
}

TEST(ServiceObs, PerJobTraceCollects) {
  ServiceConfig sc = tiny_service({2, 1}, SchedulePolicy::kFifo);
  sc.cluster.observe = true;
  SortService svc(sc);
  const ServiceReport report = svc.run({small_job(0, 600)});
  ASSERT_EQ(report.jobs.size(), 1u);
  const obs::ClusterTrace trace = job_cluster_trace(report.jobs[0]);
  EXPECT_EQ(trace.nodes.size(), 2u);
  EXPECT_EQ(trace.makespan, report.jobs[0].finish_s);
  const std::string json = obs::run_report_json(trace);
  EXPECT_NE(json.find("\"rank\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rank\":1"), std::string::npos);
}

}  // namespace
}  // namespace paladin::service
