// Head-to-head of the four parallel external-sort backends on the paper's
// simulated testbed: ext-psrs (the paper's Algorithm 1), ext-distribution
// (sample-splitter distribution sort), ext-overpartition (LPT bucket
// over-partitioning) and ext-multiway (Rahn/Sanders/Singler-style multiway
// merge with one global merge pass).  Every backend runs the same scenario
// matrix — the paper's key distributions plus the adversarial inputs
// (all-equal, pre-sorted, reverse-sorted, zipf-skewed) and a wide-payload
// 100-byte Datamation scenario — and each cell is verified (layout-aware
// sortedness + record conservation) before its makespan is reported.
//
// With --json-dir=D the machine-readable results land in
// D/BENCH_backends.json; the EXPERIMENTS.md comparison table is generated
// from this output.
#include <functional>
#include <iostream>
#include <sstream>
#include <vector>

#include "base/stats.h"
#include "bench/bench_common.h"
#include "core/backend.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "workload/datamation.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

using core::ParallelSortAlgorithm;
using hetero::PerfVector;
using workload::DatamationLess;
using workload::DatamationRecord;
using workload::Dist;

struct Row {
  std::string backend;
  std::string scenario;
  u64 records = 0;
  u64 record_bytes = 0;
  double makespan_s = 0.0;
  double expansion = 0.0;
  bool sorted = false;
  bool conserved = false;
};

struct CellResult {
  double makespan = 0.0;
  double expansion = 0.0;
  bool sorted = true;
  bool conserved = true;
};

/// One (backend, fill) cell: `reps` simulated runs, each verified.  `fill`
/// writes node-local "input" shares; T is the record type.
template <Record T, typename Less>
CellResult run_cell(const BenchOptions& opt, const PerfVector& perf, u64 n,
                    ParallelSortAlgorithm algo,
                    const std::function<void(net::NodeContext&, u64, u64)>& fill,
                    obs::ClusterTrace* trace_out = nullptr) {
  core::ParallelSortConfig psc;
  psc.algorithm = algo;
  psc.sequential.memory_records = scaled_memory(opt) / (sizeof(T) / 4);
  psc.sequential.allow_in_memory = false;
  psc.message_records = 32768 / sizeof(T);

  RunningStats acc;
  CellResult cell;
  for (u32 rep = 0; rep < opt.reps; ++rep) {
    net::ClusterConfig config = paper_cluster(opt);
    config.seed = 900 + rep;
    config.observe = trace_out != nullptr && rep == 0;
    net::Cluster cluster(config);

    struct NodeOut {
      core::ParallelSortReport report;
      bool sorted = true;
    };
    auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeOut {
      fill(ctx, perf.share_offset(ctx.rank(), n), perf.share(ctx.rank(), n));
      ctx.clock().reset();
      NodeOut out;
      out.report = core::parallel_external_sort<T, Less>(ctx, perf, psc);
      out.sorted =
          core::verify_output_order<T, Less>(ctx, psc.output, out.report);
      return out;
    });

    acc.add(outcome.makespan);
    u64 total = 0;
    std::vector<u64> finals;
    for (const NodeOut& out : outcome.results) {
      total += out.report.final_records;
      finals.push_back(out.report.final_records);
      cell.sorted = cell.sorted && out.sorted;
    }
    cell.conserved = cell.conserved && total == n;
    if (rep == 0) {
      cell.expansion =
          metrics::sublist_expansion(std::span<const u64>(finals), perf);
      if (trace_out != nullptr) {
        *trace_out = core::collect_cluster_trace(outcome);
      }
    }
  }
  cell.makespan = acc.mean();
  return cell;
}

void append_json(std::string& json, const Row& r, bool first) {
  if (!first) json += ",\n";
  json += "    {\"backend\": \"" + r.backend + "\", \"scenario\": \"" +
          r.scenario + "\", \"records\": " + std::to_string(r.records) +
          ", \"record_bytes\": " + std::to_string(r.record_bytes) +
          ", \"makespan_s\": " + metrics::TextTable::fmt(r.makespan_s, 6) +
          ", \"expansion\": " + metrics::TextTable::fmt(r.expansion, 4) +
          ", \"sorted\": " + (r.sorted ? "true" : "false") +
          ", \"conserved\": " + (r.conserved ? "true" : "false") + "}";
}

int run(const BenchOptions& opt) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(scaled_pow2(opt, 20));
  const u64 n_wide = perf.round_up_admissible(scaled_pow2(opt, 17));

  // The u32-key scenario matrix: the paper's characteristic inputs plus
  // the splitter-adversarial ones.
  const struct {
    const char* name;
    Dist dist;
  } kScenarios[] = {
      {"uniform", Dist::kUniform},
      {"zero", Dist::kZero},
      {"sorted", Dist::kSorted},
      {"reverse-sorted", Dist::kReverseSorted},
      {"zipf", Dist::kZipf},
      {"duplicates", Dist::kDuplicates},
      {"staggered", Dist::kStaggered},
      {"g-group", Dist::kGGroup},
  };

  heading("Backend head-to-head: " + std::to_string(n) +
          " x u32 (+ " + std::to_string(n_wide) +
          " x 100 B datamation), cluster {4,4,1,1}");
  metrics::TextTable table(
      {"scenario", "backend", "exe time (s)", "expansion", "ok"});

  std::string json;
  bool first = true;
  bool all_ok = true;

  for (const auto& sc : kScenarios) {
    auto fill = [&](net::NodeContext& ctx, u64 offset, u64 count) {
      workload::WorkloadSpec spec;
      spec.dist = sc.dist;
      spec.total_records = n;
      spec.node_count = perf.node_count();
      spec.seed = ctx.config().seed;
      workload::write_share(spec, ctx.rank(), offset, count, ctx.disk(),
                            "input");
    };
    for (const ParallelSortAlgorithm algo : core::kAllAlgorithms) {
      // One representative traced cell for --obs-out: multiway on zipf.
      obs::ClusterTrace trace;
      const bool want_trace =
          !opt.obs_out.empty() &&
          algo == ParallelSortAlgorithm::kExtMultiway &&
          sc.dist == Dist::kZipf;
      const CellResult cell = run_cell<DefaultKey, std::less<DefaultKey>>(
          opt, perf, n, algo, fill, want_trace ? &trace : nullptr);
      if (want_trace) {
        trace.set_meta("tool", "bench_backends");
        trace.set_meta("algorithm", core::to_string(algo));
        trace.set_meta("scenario", sc.name);
        core::write_obs_outputs(trace, opt.obs_out);
      }
      const bool ok = cell.sorted && cell.conserved;
      all_ok = all_ok && ok;
      table.add_row({sc.name, core::to_string(algo),
                     fmt_seconds(cell.makespan),
                     metrics::TextTable::fmt(cell.expansion, 3),
                     ok ? "yes" : "NO"});
      append_json(json,
                  Row{core::to_string(algo), sc.name, n, sizeof(DefaultKey),
                      cell.makespan, cell.expansion, cell.sorted,
                      cell.conserved},
                  first);
      first = false;
    }
  }

  // Wide-payload scenario: 100-byte records, tiny 10-byte keys — the
  // bytes-moved-dominated regime the paper's 4-byte integers never reach.
  {
    auto fill_wide = [&](net::NodeContext& ctx, u64 offset, u64 count) {
      workload::write_datamation(ctx.disk(), "input", ctx.config().seed,
                                 offset, count);
    };
    for (const ParallelSortAlgorithm algo : core::kAllAlgorithms) {
      const CellResult cell = run_cell<DatamationRecord, DatamationLess>(
          opt, perf, n_wide, algo, fill_wide);
      const bool ok = cell.sorted && cell.conserved;
      all_ok = all_ok && ok;
      table.add_row({"datamation-100B", core::to_string(algo),
                     fmt_seconds(cell.makespan),
                     metrics::TextTable::fmt(cell.expansion, 3),
                     ok ? "yes" : "NO"});
      append_json(json,
                  Row{core::to_string(algo), "datamation-100B", n_wide,
                      sizeof(DatamationRecord), cell.makespan, cell.expansion,
                      cell.sorted, cell.conserved},
                  first);
      first = false;
    }
  }

  table.print(std::cout);
  note("every cell is verified before timing is reported: layout-aware "
       "sortedness (contiguous slices vs owned bucket files) and exact "
       "record conservation");
  note("expansion = max_i sublist_i / (n * perf_i / sum perf): 1.0 is a "
       "perfectly perf-proportional split");

  std::ostringstream out;
  out << "{\n  \"bench\": \"backends\",\n  \"cluster\": \"4,4,1,1\",\n"
      << "  \"reps\": " << opt.reps << ",\n  \"rows\": [\n"
      << json << "\n  ]\n}\n";
  write_json(opt, "BENCH_backends.json", out.str());
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
