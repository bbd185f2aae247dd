// Tests of the observability layer (src/obs/): the counter registry, span
// stack/monotonicity invariants, harvested cluster traces of PSRS runs,
// the registry-vs-IoStats cross-check, the Steps 3–5 I/O bound re-derived
// from exported counters alone, byte-identical exports across
// runs with the same (seed, config), and the guarantee that observing a
// run cannot change its simulated times.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/math_util.h"
#include "base/temp_dir.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "obs/counter_registry.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "workload/generators.h"

namespace paladin::obs {
namespace {

using core::ExtPsrsConfig;
using core::ExtPsrsReport;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------

TEST(CounterRegistry, AddSetValueAndInsertionOrder) {
  CounterRegistry reg;
  EXPECT_EQ(reg.value("never.touched"), 0u);
  EXPECT_FALSE(reg.contains("never.touched"));

  reg.add("a", 2);
  reg.add("b", 5);
  reg.add("a", 3);
  reg.set("c", 100);
  reg.set("b", 1);

  EXPECT_EQ(reg.value("a"), 5u);
  EXPECT_EQ(reg.value("b"), 1u);
  EXPECT_EQ(reg.value("c"), 100u);

  // entries() preserves first-touch order regardless of later updates.
  const auto& e = reg.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].first, "a");
  EXPECT_EQ(e[1].first, "b");
  EXPECT_EQ(e[2].first, "c");
}

TEST(CounterRegistry, SnapshotIsACopy) {
  CounterRegistry reg;
  reg.add("x", 1);
  const CounterSnapshot snap = reg.snapshot("phase1", 2.5);
  reg.add("x", 41);
  EXPECT_EQ(snap.label, "phase1");
  EXPECT_EQ(snap.at, 2.5);
  ASSERT_EQ(snap.values.size(), 1u);
  EXPECT_EQ(snap.values[0].second, 1u);
  EXPECT_EQ(reg.value("x"), 42u);
}

// ---------------------------------------------------------------------
// Tracer invariants
// ---------------------------------------------------------------------

class FakeTime : public TimeSource {
 public:
  double now() const override { return t; }
  double t = 0.0;
};

TEST(Tracer, SpansNestAndKeepDepth) {
  FakeTime time;
  Tracer tr(&time);
  const auto outer = tr.open("outer", "t");
  time.t = 1.0;
  const auto inner = tr.open("inner", "t");
  // An explicitly stamped span nests like any other.
  const auto stamped = tr.open_at("stamped", "t", 1.5);
  tr.close_at(stamped, 2.0);
  time.t = 3.0;
  tr.close(inner);
  time.t = 4.0;
  tr.close(outer);
  const auto next = tr.open("next", "t");  // depth back to 0
  tr.close(next);

  const NodeTrace nt = tr.take(7);
  EXPECT_EQ(nt.rank, 7u);
  ASSERT_EQ(nt.spans.size(), 4u);
  EXPECT_EQ(nt.spans[0].name, "outer");
  EXPECT_EQ(nt.spans[0].depth, 0u);
  EXPECT_EQ(nt.spans[1].name, "inner");
  EXPECT_EQ(nt.spans[1].depth, 1u);
  EXPECT_EQ(nt.spans[2].name, "stamped");
  EXPECT_EQ(nt.spans[2].depth, 2u);
  EXPECT_EQ(nt.spans[2].begin, 1.5);
  EXPECT_EQ(nt.spans[2].end, 2.0);
  EXPECT_EQ(nt.spans[3].name, "next");
  EXPECT_EQ(nt.spans[3].depth, 0u);
  for (const SpanRecord& s : nt.spans) EXPECT_LE(s.begin, s.end);
}

TEST(Tracer, OutOfOrderCloseViolatesContract) {
  FakeTime time;
  Tracer tr(&time);
  const auto outer = tr.open("outer", "t");
  const auto inner = tr.open("inner", "t");
  EXPECT_THROW(tr.close(outer), ContractViolation);
  tr.close(inner);
  tr.close(outer);
}

TEST(Tracer, ClosingBeforeOpenTimeViolatesContract) {
  FakeTime time;
  time.t = 5.0;
  Tracer tr(&time);
  const auto id = tr.open("span", "t");
  EXPECT_THROW(tr.close_at(id, 4.0), ContractViolation);
}

TEST(ScopedSpan, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "x", "t");
  span.arg("k", 1);
  span.end();  // must not crash
}

// ---------------------------------------------------------------------
// End-to-end: observed PSRS runs
// ---------------------------------------------------------------------

pdm::DiskParams tiny_blocks() {
  pdm::DiskParams p;
  p.block_bytes = 64;
  return p;
}

struct ObservedRun {
  std::vector<ExtPsrsReport> reports;
  net::RunOutcome<ExtPsrsReport> outcome;
  ClusterTrace trace;
};

ObservedRun run_observed(const std::vector<u32>& perf_values, bool observe) {
  PerfVector perf(perf_values);
  const u64 n = perf.admissible_size(25);

  ClusterConfig config;
  config.perf = perf_values;
  config.disk = tiny_blocks();
  config.seed = 4242;
  config.observe = observe;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 77;

  ObservedRun run;
  run.outcome = cluster.run([&](NodeContext& ctx) -> ExtPsrsReport {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.tape_count = 5;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 64;
    return core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
  });
  run.reports = run.outcome.results;
  run.trace = core::collect_cluster_trace(run.outcome);
  run.trace.set_meta("test", "run_observed");
  return run;
}

u64 counter(const NodeTrace& node, std::string_view name) {
  for (const auto& [k, v] : node.counters) {
    if (k == name) return v;
  }
  return 0;
}

TEST(ObservedRun, HarvestsOneTracePerNodeWithSpans) {
  const ObservedRun run = run_observed({4, 4, 1, 1}, true);
  ASSERT_EQ(run.trace.nodes.size(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    const NodeTrace& node = run.trace.nodes[i];
    EXPECT_EQ(node.rank, i);
    EXPECT_FALSE(node.spans.empty());
    EXPECT_FALSE(node.counters.empty());
    EXPECT_FALSE(node.snapshots.empty());

    // Span names include the headline phases.
    bool saw_sort = false, saw_exchange = false, saw_merge = false;
    for (const SpanRecord& s : node.spans) {
      if (s.name == "psrs.sort") saw_sort = true;
      if (s.name == "psrs.step4.redistribute") saw_exchange = true;
      if (s.name == "psrs.step5.final_merge") saw_merge = true;
      EXPECT_LE(s.begin, s.end) << s.name;
      EXPECT_GE(s.begin, 0.0) << s.name;
    }
    EXPECT_TRUE(saw_sort);
    EXPECT_TRUE(saw_exchange);
    EXPECT_TRUE(saw_merge);

    // Spans nest: each span lies inside every still-open ancestor, which
    // recorded order + depth lets us re-check here.
    std::vector<const SpanRecord*> stack;
    for (const SpanRecord& s : node.spans) {
      while (stack.size() > s.depth) stack.pop_back();
      ASSERT_EQ(stack.size(), s.depth);
      if (!stack.empty()) {
        EXPECT_GE(s.begin, stack.back()->begin) << s.name;
        EXPECT_LE(s.end, stack.back()->end) << s.name;
      }
      stack.push_back(&s);
    }
  }
}

TEST(ObservedRun, RegistryTotalsMatchIoStatsAndReports) {
  const ObservedRun run = run_observed({4, 4, 1, 1}, true);
  u64 chunks = 0, acks = 0;
  for (u32 i = 0; i < 4; ++i) {
    const NodeTrace& node = run.trace.nodes[i];
    const pdm::IoStats& io = run.outcome.nodes[i].io;
    EXPECT_EQ(counter(node, "io.blocks_read"), io.blocks_read);
    EXPECT_EQ(counter(node, "io.blocks_written"), io.blocks_written);
    EXPECT_EQ(counter(node, "io.bytes_read"), io.bytes_read);
    EXPECT_EQ(counter(node, "io.bytes_written"), io.bytes_written);
    EXPECT_EQ(counter(node, "io.files_created"), io.files_created);
    EXPECT_EQ(counter(node, "io.files_removed"), io.files_removed);

    const ExtPsrsReport& r = run.reports[i];
    EXPECT_EQ(counter(node, "psrs.records_in"), r.local_records);
    EXPECT_EQ(counter(node, "psrs.records_out"), r.final_records);
    EXPECT_EQ(counter(node, "psrs.io.partition"), r.io_partition);
    EXPECT_EQ(counter(node, "psrs.messages_sent"), r.messages_sent);
    EXPECT_EQ(counter(node, "redistribute.chunks_sent"), r.messages_sent);
    chunks += counter(node, "redistribute.chunks_sent");
    acks += counter(node, "redistribute.acks_sent");
  }
  // Every chunk is acked once, by the node it landed on.
  EXPECT_GT(chunks, 0u);
  EXPECT_EQ(acks, chunks);
}

// The Steps 3–5 I/O bound of DESIGN.md §8, re-derived from the exported
// counters alone: observability is a second witness for the paper's I/O
// claim.  Step 3 reads at most ⌈log2(⌈l/B⌉ + 1)⌉ + 1 blocks per pivot;
// Step 4 reads what the node ships (at most l records, one extra block per
// piece for an unaligned start) and writes what lands (at most Q); Step 5
// reads its p runs and writes the Q-record slice once.
TEST(ObservedRun, StepsThreeToFiveIoBoundHoldsFromCountersAlone) {
  const ObservedRun run = run_observed({4, 4, 1, 1}, true);
  const u64 p = 4;
  const u64 rpb = tiny_blocks().records_per_block(sizeof(DefaultKey));
  for (const NodeTrace& node : run.trace.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << node.rank);
    EXPECT_EQ(counter(node, "pdm.block_bytes"), tiny_blocks().block_bytes);
    const u64 l_blocks = ceil_div(counter(node, "psrs.records_in"), rpb);
    const u64 q_blocks = ceil_div(counter(node, "psrs.records_out"), rpb);
    const u64 partition = counter(node, "psrs.io.partition");
    const u64 exchange = counter(node, "psrs.io.redistribute");
    const u64 merge = counter(node, "psrs.io.final_merge");
    EXPECT_LE(partition, (p - 1) * (ilog2_ceil(l_blocks + 1) + 1));
    EXPECT_LE(exchange, l_blocks + q_blocks + 2 * (p - 1));
    EXPECT_LE(merge, 2 * q_blocks + p + 1);
    EXPECT_GT(partition, 0u);
    EXPECT_GT(exchange, 0u);
    EXPECT_GT(merge, 0u);
  }
}

TEST(ObservedRun, PhasedModeRecordsStepSpansAndCounters) {
  const ObservedRun run = run_observed({4, 4, 1, 1}, true);
  for (u32 i = 0; i < 4; ++i) {
    const NodeTrace& node = run.trace.nodes[i];
    std::vector<std::string> names;
    for (const SpanRecord& s : node.spans) names.push_back(s.name);
    for (const char* expected :
         {"psrs.sort", "psrs.step1.seq_sort", "psrs.step2.sampling",
          "psrs.step3.partition", "psrs.step4.redistribute",
          "psrs.step5.final_merge", "seq.run_formation"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
          << "missing span " << expected << " on node " << i;
    }
    const ExtPsrsReport& r = run.reports[i];
    EXPECT_EQ(counter(node, "psrs.io.redistribute"), r.io_redistribute);
    EXPECT_EQ(counter(node, "psrs.io.final_merge"), r.io_final_merge);
  }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(ObservedRun, ExportsBitwiseIdenticalAcrossRuns) {
  const ObservedRun a = run_observed({4, 4, 1, 1}, true);
  const ObservedRun b = run_observed({4, 4, 1, 1}, true);
  EXPECT_EQ(chrome_trace_json(a.trace), chrome_trace_json(b.trace));
  EXPECT_EQ(run_report_json(a.trace), run_report_json(b.trace));
}

TEST(ObservedRun, ObservingDoesNotChangeSimulatedTime) {
  for (const std::vector<u32>& perf :
       {std::vector<u32>{4, 4, 1, 1}, std::vector<u32>{2, 1}}) {
    const ObservedRun off = run_observed(perf, false);
    const ObservedRun on = run_observed(perf, true);
    EXPECT_EQ(on.outcome.makespan, off.outcome.makespan);
    for (u32 i = 0; i < perf.size(); ++i) {
      EXPECT_EQ(on.outcome.nodes[i].finish_time,
                off.outcome.nodes[i].finish_time)
          << "node " << i;
      EXPECT_EQ(on.outcome.nodes[i].io.total_block_ios(),
                off.outcome.nodes[i].io.total_block_ios())
          << "node " << i;
    }
    EXPECT_TRUE(off.trace.nodes.empty());  // observe off → nothing harvested
  }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

// Minimal structural validity: balanced braces/brackets outside strings —
// enough to catch malformed emission without a JSON dependency.
void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Export, ChromeTraceAndRunReportAreWellFormed) {
  ObservedRun run = run_observed({4, 4, 1, 1}, true);
  run.trace.set_meta("algorithm", "ext-psrs");
  const std::string chrome = chrome_trace_json(run.trace);
  const std::string report = run_report_json(run.trace);
  expect_balanced_json(chrome);
  expect_balanced_json(report);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"process_name\""), std::string::npos);
  EXPECT_NE(chrome.find("psrs.step5.final_merge"), std::string::npos);
  EXPECT_NE(report.find("\"schema\":\"paladin.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(report.find("\"makespan_s\""), std::string::npos);
  EXPECT_NE(report.find("psrs.records_out"), std::string::npos);
}

TEST(Export, EscapesControlAndQuoteCharacters) {
  ClusterTrace trace;
  // Note: "\x01" and "f" must be separate literals or the hex escape would
  // greedily consume the 'f'.
  trace.set_meta("weird", "a\"b\\c\nd\te\x01" "f");
  NodeTrace node;
  node.rank = 0;
  node.spans.push_back({"name\"quoted", "cat", 0, 0.0, 1.0, {}});
  trace.nodes.push_back(std::move(node));
  const std::string chrome = chrome_trace_json(trace);
  expect_balanced_json(chrome);
  EXPECT_NE(chrome.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
  EXPECT_NE(chrome.find("name\\\"quoted"), std::string::npos);
}

TEST(Export, WriteTextFileCreatesParentDirectories) {
  ScopedTempDir dir("obs_export");
  const std::filesystem::path path = dir.path() / "nested" / "out.json";
  EXPECT_TRUE(write_text_file(path, "{}\n"));
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace paladin::obs
