// Golden-file determinism test for the observability exporters: one fixed
// observed pipelined PSRS run must serialise byte-for-byte to the
// checked-in fixtures tests/golden/obs_run.trace.json (Chrome trace_event)
// and tests/golden/obs_run.report.json (paladin.run_report.v1), and the
// same sort on {4,4,1,1} under a pinned disk + network fault plan to
// tests/golden/obs_faults.{trace,report}.json.  Any
// intentional change to the trace content or the serialisation format
// shows up as a reviewable fixture diff — regenerate with
// tools/regen_golden_obs.sh (which runs this binary with
// PALADIN_REGEN_GOLDEN=1 so the test rewrites the fixtures in place).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "fault/fault.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "test_params.h"
#include "workload/generators.h"

#ifndef PALADIN_GOLDEN_DIR
#error "tests/CMakeLists.txt must define PALADIN_GOLDEN_DIR"
#endif

namespace paladin::obs {
namespace {

/// An observed pipelined ext-psrs sort of n = admissible_size(k) uniform
/// keys drawn with `input_seed`, on `config`'s cluster with tiny blocks.
/// Everything here is pinned: seeds, block size, message size, metadata
/// order.  Do not tweak casually — every edit is a fixture regeneration.
ClusterTrace observed_psrs_run(net::ClusterConfig config, u64 k,
                               u64 input_seed) {
  hetero::PerfVector perf(config.perf);
  const u64 n = perf.admissible_size(k);
  config.disk = test_params::tiny_blocks();
  config.observe = true;
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = input_seed;

  auto outcome = cluster.run([&](net::NodeContext& ctx) -> int {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = test_params::kMemoryRecords;
    psrs.sequential.tape_count = test_params::kTapeCount;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = test_params::kMessageRecords;
    psrs.pipelined = true;
    core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    return 0;
  });
  ClusterTrace trace = core::collect_cluster_trace(outcome);
  trace.set_meta("algorithm", "ext-psrs");
  return trace;
}

/// The fixed run behind the obs_run fixtures.
ClusterTrace golden_run() {
  net::ClusterConfig config;
  config.perf = {2, 1};
  config.seed = 1234;
  ClusterTrace trace = observed_psrs_run(config, 20, 99);
  trace.set_meta("perf", "2,1");
  trace.set_meta("fixture", "tests/golden/obs_run");
  return trace;
}

/// The same pinned run under a pinned drift plan: a forced 3× slowdown of
/// rank 0 over epochs [2, 6) plus a seeded probabilistic spec.  Pins the
/// drift.* counter block of the RunReport (paladin.run_report.v1 itself is
/// unchanged — the drift-free fixtures above must never move when this
/// one does).
ClusterTrace golden_drift_run() {
  net::ClusterConfig config;
  config.perf = {2, 1};
  config.seed = 1234;
  config.drift_plan.seed = 77;
  config.drift_plan.spec.epoch_seconds = 0.05;
  config.drift_plan.spec.slow_prob = 0.5;
  config.drift_plan.spec.slow_factor = 2.0;
  config.drift_plan.spec.regime_epochs = 2;
  hetero::ForcedSlowdown forced;
  forced.rank = 0;
  forced.from_epoch = 2;
  forced.until_epoch = 6;
  forced.factor = 3.0;
  config.drift_plan.forced.push_back(forced);
  ClusterTrace trace = observed_psrs_run(config, 20, 99);
  trace.set_meta("perf", "2,1");
  trace.set_meta("drift", hetero::drift_plan_to_string(config.drift_plan));
  trace.set_meta("fixture", "tests/golden/obs_drift");
  return trace;
}

/// Pipelined ext-psrs on the paper's {4,4,1,1} under a pinned fault plan:
/// transient disk read/write failures, read-path corruption, and dropped,
/// duplicated and delayed frames.  Pins every faulted makespan, fault
/// counter and stream-clock stamp, which run-to-run comparisons alone
/// cannot: a change that moved all of them consistently would still pass.
ClusterTrace golden_faults_run() {
  net::ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.seed = 4242;
  config.fault_plan.seed = 17;
  config.fault_plan.disk.read_fail_prob = 0.15;
  config.fault_plan.disk.write_fail_prob = 0.15;
  config.fault_plan.disk.corrupt_prob = 0.15;
  config.fault_plan.net.drop_prob = 0.1;
  config.fault_plan.net.duplicate_prob = 0.1;
  config.fault_plan.net.delay_prob = 0.1;
  ClusterTrace trace = observed_psrs_run(config, 25, 77);
  trace.set_meta("perf", "4,4,1,1");
  trace.set_meta("faults", "disk 0.15/0.15/0.15, net 0.1/0.1/0.1, seed 17");
  trace.set_meta("fixture", "tests/golden/obs_faults");
  return trace;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool regen_requested() {
  const char* env = std::getenv("PALADIN_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void check_against_golden(const std::string& produced,
                          const std::string& fixture_name) {
  const std::string path =
      std::string(PALADIN_GOLDEN_DIR) + "/" + fixture_name;
  if (regen_requested()) {
    ASSERT_TRUE(write_text_file(path, produced)) << "regen failed: " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file_or_empty(path);
  ASSERT_FALSE(expected.empty())
      << "missing fixture " << path
      << " — run tools/regen_golden_obs.sh and commit the result";
  // Byte-exact.  On mismatch, report the first diverging offset rather
  // than dumping two multi-kilobyte JSON bodies into the log.
  if (produced != expected) {
    std::size_t at = 0;
    while (at < produced.size() && at < expected.size() &&
           produced[at] == expected[at]) {
      ++at;
    }
    FAIL() << fixture_name << " diverges from the fixture at byte " << at
           << " (produced " << produced.size() << " bytes, fixture "
           << expected.size() << ")\n  produced: ..."
           << produced.substr(at > 40 ? at - 40 : 0, 80) << "...\n  fixture:  ..."
           << expected.substr(at > 40 ? at - 40 : 0, 80)
           << "...\n  If the change is intended, regenerate with "
              "tools/regen_golden_obs.sh";
  }
}

TEST(ObsGolden, ChromeTraceMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_run();
  check_against_golden(chrome_trace_json(trace), "obs_run.trace.json");
}

TEST(ObsGolden, RunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_run();
  check_against_golden(run_report_json(trace), "obs_run.report.json");
}

TEST(ObsGolden, DriftRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_drift_run();
  check_against_golden(run_report_json(trace), "obs_drift.report.json");
}

TEST(ObsGolden, FaultsChromeTraceMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_faults_run();
  check_against_golden(chrome_trace_json(trace), "obs_faults.trace.json");
}

TEST(ObsGolden, FaultsRunReportMatchesFixtureByteExact) {
  const ClusterTrace trace = golden_faults_run();
  check_against_golden(run_report_json(trace), "obs_faults.report.json");
}

TEST(ObsGolden, TwoCollectionsOfTheSameRunSerialiseIdentically) {
  // The in-process determinism half of the golden guarantee: re-running
  // the whole observed cluster yields byte-identical exports even before
  // comparing against the on-disk fixture.
  const ClusterTrace a = golden_run();
  const ClusterTrace b = golden_run();
  EXPECT_EQ(chrome_trace_json(a), chrome_trace_json(b));
  EXPECT_EQ(run_report_json(a), run_report_json(b));
}

}  // namespace
}  // namespace paladin::obs
