// paladin_sort — command-line front end: sort a real binary file of
// little-endian u32 keys on a simulated heterogeneous cluster with any of
// the parallel external-sort backends, and write the sorted file back.
//
//   build/examples/paladin_sort --input keys.bin --output sorted.bin \
//       --perf 4,4,1,1 [--algorithm ext-psrs|ext-distribution|...]
//       [--memory 1048576] [--message 8192] [--net myrinet]
//
// With --demo N the tool generates N keys itself (--dist selects the
// input distribution, including the adversarial ones: zero, sorted,
// reverse-sorted, zipf, ...), so it runs without any input file.  The
// simulated execution-time breakdown and the balance metric are printed
// either way; --obs-out writes the phase-span trace for every backend.
//
// With --jobs SPEC the tool switches to sort-as-a-service mode
// (docs/SERVICE.md): SPEC is either a file or an inline string of
// ';'/newline-separated jobs, each a comma-separated key=value list
//   n=4096,dist=zipf,algo=ext-psrs,width=2,arrival=0.5,priority=1
// run through the multi-job scheduler under --policy fifo|fair-share on
// the shared simulated cluster.  --obs-out then writes the aggregated
// per-job service report (PREFIX.report.json).
#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "base/enum_names.h"
#include "base/temp_dir.h"
#include "core/backend.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "pdm/typed_io.h"
#include "service/service.h"
#include "workload/generators.h"

using namespace paladin;

namespace {

struct Options {
  std::string input;
  std::string output = "sorted.bin";
  std::vector<u32> perf = {1, 1, 1, 1};
  core::ParallelSortAlgorithm algorithm =
      core::ParallelSortAlgorithm::kExtPsrs;
  core::SplitterStrategy splitter = core::SplitterStrategy::kAuto;
  u64 memory_records = u64{1} << 20;
  u64 message_records = 8192;
  std::string net = "fast-ethernet";
  u64 demo_records = 0;
  workload::Dist demo_dist = workload::Dist::kUniform;
  std::string obs_out;
  std::string jobs;  // file or inline spec; non-empty = service mode
  service::SchedulePolicy policy = service::SchedulePolicy::kFifo;
  hetero::DriftPlan drift;  // --drift; inactive by default
  bool adaptive = false;    // --adaptive

  static void usage() {
    std::cout
        << "paladin_sort --input FILE [--output FILE] [--perf a,b,c,...]\n"
           "             [--algorithm NAME]  (one of: "
        << enum_names(core::kAllAlgorithms)
        << ")\n"
           "             [--splitter NAME]  (one of: "
        << enum_names(core::kAllSplitterStrategies)
        << ")\n"
           "             [--memory RECORDS] [--message RECORDS]\n"
           "             [--net fast-ethernet|myrinet|infinite]\n"
           "             [--demo N]   (generate N keys instead of --input)\n"
           "             [--dist NAME]  (--demo distribution; one of: "
        << enum_names(workload::kAllDists)
        << ")\n"
           "             [--obs-out PREFIX]  (write PREFIX.trace.json + "
           "PREFIX.report.json)\n"
           "             [--jobs FILE|SPEC]  (service mode: "
           "';'-separated k=v jobs,\n"
           "                 keys: n dist algo width arrival priority "
           "seed bytes id)\n"
           "             [--policy NAME]  (--jobs policy; one of: "
        << enum_names(service::kAllPolicies)
        << ")\n"
           "             [--drift SPEC]  (seeded speed drift, e.g.\n"
           "                 seed=7,epoch=0.5,prob=0.25,factor=4,regime=2"
           "[,force=rank:from:until:factor])\n"
           "             [--adaptive]  (re-estimate node speeds mid-run "
           "and re-split partitions)\n";
  }

  static Options parse(int argc, char** argv) {
    Options opt;
    auto need_value = [&](int& i) -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric value of `flag`: the whole text must be a decimal integer
    // in [min, max].
    auto check_number = [](std::string_view text, const char* flag, u64 min,
                           u64 max) {
      u64 value = 0;
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, value);
      if (ec != std::errc() || ptr != end || value < min || value > max) {
        std::cerr << "bad " << flag << " value '" << text
                  << "'; expected an integer in [" << min << ", " << max
                  << "]\n";
        std::exit(2);
      }
      return value;
    };
    auto need_number = [&](int& i, const char* flag, u64 min) {
      return check_number(need_value(i), flag, min,
                          std::numeric_limits<u64>::max());
    };
    // An enum-valued option: its value must name one entry of `all`.
    auto need_enum = [&](int& i, const auto& all, const char* what) {
      const std::string name = need_value(i);
      const auto value = parse_enum(all, name);
      if (!value) {
        std::cerr << "unknown " << what << " '" << name
                  << "'; valid: " << enum_names(all) << "\n";
        std::exit(2);
      }
      return *value;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--input") {
        opt.input = need_value(i);
      } else if (arg == "--output") {
        opt.output = need_value(i);
      } else if (arg == "--perf") {
        // Comma-separated speed factors, each >= 1.
        const std::string list = need_value(i);
        std::string_view rest = list;
        opt.perf.clear();
        for (;;) {
          const auto comma = rest.find(',');
          opt.perf.push_back(static_cast<u32>(
              check_number(rest.substr(0, comma), "--perf", 1,
                           std::numeric_limits<u32>::max())));
          if (comma == std::string_view::npos) break;
          rest.remove_prefix(comma + 1);
        }
      } else if (arg == "--algorithm") {
        opt.algorithm = need_enum(i, core::kAllAlgorithms, "algorithm");
      } else if (arg == "--splitter") {
        opt.splitter =
            need_enum(i, core::kAllSplitterStrategies, "splitter strategy");
      } else if (arg == "--memory") {
        opt.memory_records = need_number(i, "--memory", 1);
      } else if (arg == "--message") {
        opt.message_records = need_number(i, "--message", 1);
      } else if (arg == "--net") {
        opt.net = need_value(i);
      } else if (arg == "--demo") {
        opt.demo_records = need_number(i, "--demo", 0);
      } else if (arg == "--dist") {
        opt.demo_dist = need_enum(i, workload::kAllDists, "distribution");
      } else if (arg == "--obs-out") {
        opt.obs_out = need_value(i);
      } else if (arg == "--jobs") {
        opt.jobs = need_value(i);
      } else if (arg == "--drift") {
        const std::string spec = need_value(i);
        try {
          opt.drift = hetero::parse_drift_plan(spec);
        } catch (const std::exception& e) {
          std::cerr << "bad --drift spec '" << spec << "' (" << e.what()
                    << ")\n";
          std::exit(2);
        }
      } else if (arg == "--adaptive") {
        opt.adaptive = true;
      } else if (arg == "--policy") {
        opt.policy = need_enum(i, service::kAllPolicies, "policy");
      } else {
        usage();
        std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
      }
    }
    if (opt.input.empty() && opt.demo_records == 0 && opt.jobs.empty()) {
      usage();
      std::exit(2);
    }
    return opt;
  }
};

/// Demo keys: the perf-proportional concatenation of per-node generator
/// shares, so each node's scattered slice is exactly what the distribution
/// says that node should hold (kStaggered, kGGroup etc. are per-node
/// patterns, not just global shapes).
std::vector<u32> demo_keys(const Options& opt, const hetero::PerfVector& perf,
                           u64 n) {
  workload::WorkloadSpec spec;
  spec.dist = opt.demo_dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 2026;
  std::vector<u32> keys;
  keys.reserve(n);
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const std::vector<DefaultKey> share = workload::generate_share(
        spec, i, perf.share_offset(i, n), perf.share(i, n));
    keys.insert(keys.end(), share.begin(), share.end());
  }
  return keys;
}

std::vector<u32> load_keys(const Options& opt) {
  std::ifstream in(opt.input, std::ios::binary | std::ios::ate);
  if (!in) {
    std::cerr << "cannot open " << opt.input << "\n";
    std::exit(1);
  }
  const auto bytes = static_cast<u64>(in.tellg());
  if (bytes % sizeof(u32) != 0) {
    std::cerr << opt.input << " is not a whole number of u32 keys\n";
    std::exit(1);
  }
  std::vector<u32> keys(bytes / sizeof(u32));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(keys.data()),
          static_cast<std::streamsize>(bytes));
  return keys;
}

// --- sort-as-a-service mode (--jobs) -------------------------------------

/// Parse a --jobs spec (service::parse_job_specs): if the argument names a
/// readable file its contents are the spec, otherwise the argument itself
/// is.  Exits with a message on a malformed spec — the spec is user input.
std::vector<service::JobSpec> parse_jobs(const std::string& arg,
                                         u32 cluster_width) {
  std::string text = arg;
  if (std::ifstream file(arg); file) {
    std::ostringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  try {
    return service::parse_job_specs(text, cluster_width);
  } catch (const std::exception& e) {
    std::cerr << "bad --jobs spec (" << e.what() << ")\n";
    std::exit(2);
  }
}

/// Service mode: run the parsed workload through the multi-job scheduler
/// on the shared cluster and print the per-job report.
int run_service(const Options& opt, const net::ClusterConfig& config) {
  service::ServiceConfig sc;
  sc.cluster = config;
  sc.policy = opt.policy;
  sc.sort.splitter.strategy = opt.splitter;
  sc.sort.adaptive.enabled = opt.adaptive;
  sc.sort.sequential.memory_records = opt.memory_records;
  sc.sort.sequential.allow_in_memory = false;
  sc.sort.message_records = opt.message_records;

  const std::vector<service::JobSpec> jobs =
      parse_jobs(opt.jobs, static_cast<u32>(config.perf.size()));
  std::cout << "service mode: " << jobs.size() << " job(s), policy "
            << service::to_string(opt.policy) << ", cluster perf "
            << hetero::PerfVector(config.perf).to_string() << ", "
            << config.network.name << "\n";

  service::SortService svc(sc);
  const service::ServiceReport report = svc.run(jobs);

  for (const auto& [spec, reason] : report.rejected) {
    std::cerr << "rejected job " << spec.id << ": " << reason << "\n";
  }

  metrics::TextTable t({"job", "algorithm", "dist", "records", "width",
                        "arrival", "start", "finish", "latency (s)", "ok"});
  for (const service::JobReport& j : report.jobs) {
    t.add_row({std::to_string(j.spec.id), core::to_string(j.spec.algorithm),
               workload::to_string(j.spec.dist), std::to_string(j.records),
               std::to_string(j.nodes.size()),
               metrics::TextTable::fmt(j.arrival_s, 3),
               metrics::TextTable::fmt(j.start_s, 3),
               metrics::TextTable::fmt(j.finish_s, 3),
               metrics::TextTable::fmt(j.latency_s(), 3),
               j.ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "makespan " << metrics::TextTable::fmt(report.makespan_s, 3)
            << " s; " << metrics::TextTable::fmt(report.jobs_per_vsecond(), 3)
            << " jobs/vsec; latency p50/p95/p99 "
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.50), 3)
            << "/"
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.95), 3)
            << "/"
            << metrics::TextTable::fmt(
                   latency_percentile(report.jobs, 0.99), 3)
            << " s\n";

  if (!opt.obs_out.empty()) {
    if (obs::write_text_file(opt.obs_out + ".report.json",
                             service::service_report_json(report))) {
      std::cout << "wrote " << opt.obs_out
                << ".report.json (aggregated service report)\n";
    } else {
      std::cerr << "warning: failed to write " << opt.obs_out
                << ".report.json\n";
    }
  }
  if (!report.all_ok()) {
    std::cerr << "a job failed verification\n";
    return 1;
  }
  return report.rejected.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  hetero::PerfVector perf(opt.perf);

  net::ClusterConfig config;
  config.perf = opt.perf;
  if (opt.net == "myrinet") {
    config.network = net::NetworkModel::myrinet();
  } else if (opt.net == "infinite") {
    config.network = net::NetworkModel::infinite();
  } else if (opt.net != "fast-ethernet") {
    std::cerr << "unknown network: " << opt.net << "\n";
    return 2;
  }
  config.observe = !opt.obs_out.empty();
  config.drift_plan = opt.drift;
  if (config.drift_plan.active()) {
    std::cout << "speed drift: " << hetero::drift_plan_to_string(opt.drift)
              << (opt.adaptive ? " (adaptive repartitioning on)" : "")
              << "\n";
  }

  if (!opt.jobs.empty()) {
    return run_service(opt, config);
  }

  core::ParallelSortConfig psc;
  psc.algorithm = opt.algorithm;
  psc.splitter.strategy = opt.splitter;
  psc.adaptive.enabled = opt.adaptive;
  psc.sequential.memory_records = opt.memory_records;
  psc.sequential.allow_in_memory = false;
  psc.message_records = opt.message_records;

  // A file's keys are real data; generated keys and padding wait for the
  // size checks below.
  std::vector<u32> keys;
  if (opt.demo_records == 0) keys = load_keys(opt);
  const u64 requested = opt.demo_records > 0 ? opt.demo_records : keys.size();
  const std::string source = opt.demo_records > 0
                                 ? "--demo " + std::to_string(requested)
                                 : "--input " + opt.input;

  // Above the service's admission cap the run could not hold the keys, so
  // reject it before generating or padding any.  A request within the cap
  // rounds up to at most cap + Σperf, which cannot overflow.
  const u64 cap = service::AdmissionPolicy{}.max_records;
  if (requested > cap) {
    std::cerr << source << " asks for " << requested
              << " keys, above the admission cap of " << cap << "\n";
    return 2;
  }
  const u64 n = perf.round_up_admissible(requested);
  if (n > cap) {
    std::cerr << source << " gives " << n << " keys (perf "
              << perf.to_string() << "), above the admission cap of " << cap
              << "\n";
    return 2;
  }
  // Below the backend's sampling minimum a splitter contract would abort
  // the run.
  const u64 minimum = core::minimum_input(psc, perf);
  if (n < minimum) {
    std::cerr << source << " gives " << n << " keys, below "
              << core::to_string(psc.algorithm) << "'s sampling minimum of "
              << minimum << " (perf " << perf.to_string() << ")\n";
    return 2;
  }
  u64 original = requested;
  if (opt.demo_records > 0) {
    keys = demo_keys(opt, perf, n);
    original = n;  // every generated key is real data
  } else {
    // Pad to an admissible size with max-keys; they sort to the end and
    // are trimmed before writing the output.
    keys.resize(n, std::numeric_limits<u32>::max());
  }

  std::cout << "sorting " << original << " keys (padded to " << n << ") on "
            << perf.node_count() << " nodes, perf " << perf.to_string()
            << ", " << config.network.name << ", algorithm "
            << core::to_string(opt.algorithm) << "\n";

  net::Cluster cluster(config);
  struct NodeOut {
    core::ParallelSortReport report;
    std::vector<u32> gathered;  // only at root
    bool ok = false;
  };
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeOut {
    NodeOut out;
    if (ctx.rank() == 0) {
      pdm::write_file<u32>(ctx.disk(), "all.in", std::span<const u32>(keys));
    }
    core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0,
                              opt.message_records);

    out.report = core::parallel_external_sort<u32>(ctx, perf, psc);

    // Layout-aware: contiguous slices and bucket files must each form one
    // globally sorted sequence.
    out.ok = core::verify_output_order<u32>(ctx, psc.output, out.report);

    core::collect_sorted_output<u32>(ctx, psc, out.report, "all.out", 0);
    if (ctx.rank() == 0) {
      out.gathered = pdm::read_file<u32>(ctx.disk(), "all.out");
    }
    return out;
  });

  metrics::TextTable t({"node", "share", "final", "total (s)"});
  std::vector<u64> finals;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const auto& r = outcome.results[i].report;
    finals.push_back(r.final_records);
    t.add_row({std::to_string(i), std::to_string(r.local_records),
               std::to_string(r.final_records),
               metrics::TextTable::fmt(r.t_total, 2)});
    if (!outcome.results[i].ok) {
      std::cerr << "verification failed on node " << i << "\n";
      return 1;
    }
  }
  if (!opt.obs_out.empty()) {
    obs::ClusterTrace trace = core::collect_cluster_trace(outcome);
    trace.set_meta("tool", "paladin_sort");
    trace.set_meta("algorithm", core::to_string(opt.algorithm));
    trace.set_meta("perf", perf.to_string());
    trace.set_meta("network", config.network.name);
    trace.set_meta("records", std::to_string(n));
    if (core::write_obs_outputs(trace, opt.obs_out)) {
      std::cout << "wrote " << opt.obs_out << ".trace.json and "
                << opt.obs_out << ".report.json\n";
    } else {
      std::cerr << "warning: failed to write --obs-out files under "
                << opt.obs_out << "\n";
    }
  }

  t.print(std::cout);
  std::cout << "simulated makespan: " << outcome.makespan
            << " s; sublist expansion: "
            << metrics::sublist_expansion(std::span<const u64>(finals), perf)
            << "\n";

  std::vector<u32>& sorted = outcome.results[0].gathered;
  if (!std::is_sorted(sorted.begin(), sorted.end())) {
    std::cerr << "gathered output is not globally sorted\n";
    return 1;
  }
  sorted.resize(original);  // trim the padding
  std::ofstream out_file(opt.output, std::ios::binary | std::ios::trunc);
  out_file.write(reinterpret_cast<const char*>(sorted.data()),
                 static_cast<std::streamsize>(sorted.size() * sizeof(u32)));
  std::cout << "wrote " << original << " sorted keys to " << opt.output
            << "\n";
  return 0;
}
