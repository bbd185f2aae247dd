// Reproduces Table 3 of the paper: external PSRS on the 4-node testbed
// (two nodes 4x faster than the two loaded ones), 2^24 integers, 32 KB
// messages, 15 intermediate files, with three configurations:
//
//   perf {1,1,1,1} on Fast-Ethernet  (heterogeneity ignored)
//   perf {4,4,1,1} on Fast-Ethernet  (the paper's contribution)
//   perf {4,4,1,1} on Myrinet        (does a faster network help?)
//
// Columns mirror the paper: input size, mean exe time, deviation, mean and
// max partition sizes on the fastest nodes, and the sublist expansion
// S(max).  S(all) adds the perf-weighted expansion over every node, which
// S(max) hides when a slow node is the overloaded one.  The preamble
// prints the simulated Table 1 configuration, and the footer reproduces
// the paper's gain arithmetic against the Table 2 sequential times.
#include <iostream>

#include "bench/bench_common.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

using core::ExtPsrsConfig;
using core::ExtPsrsReport;
using hetero::PerfVector;

struct ConfigRow {
  std::string label;
  std::vector<u32> perf;
  net::NetworkModel network;
  double paper_time;       // Table 3 exe time
  double paper_expansion;  // Table 3 S(max)
};

struct RowResult {
  RunningStats time;
  RunningStats mean_fast_partition;
  RunningStats expansion_fast;
  RunningStats expansion_all;
  u64 max_partition = 0;
  double seq_fast = 0, seq_slow = 0;  // per-config sequential references
};

void print_table1(const net::ClusterConfig& config) {
  heading("Table 1 (simulated configuration)");
  metrics::TextTable t({"node", "speed factor", "disk", "network"});
  const char* names[] = {"helmvige", "grimgerde", "siegrune", "rossweisse"};
  for (u32 i = 0; i < config.node_count(); ++i) {
    t.add_row({names[i], std::to_string(config.perf[i]),
               "SCSI model (" +
                   metrics::TextTable::fmt(
                       config.disk.transfer_bytes_per_second / 1e6, 0) +
                   " MB/s, " +
                   metrics::TextTable::fmt(config.disk.access_seconds * 1e3,
                                           1) +
                   " ms)",
               config.network.name});
  }
  t.print(std::cout);
  note("heterogeneity is simulated as constant multiplicative load, as in "
       "the paper (forked processes on siegrune/rossweisse)");
}

int run(const BenchOptions& opt) {
  const u64 n_homo = scaled_pow2(opt, 24);        // paper: 16777216
  const u64 n_hetero = n_homo + (opt.full ? 4 : 0);  // paper: 16777220
  const u64 memory = scaled_memory(opt);

  net::ClusterConfig base = paper_cluster(opt);
  print_table1(base);

  heading("Table 3: external PSRS, message 32Kb, 15 intermediate files");
  note(opt.full ? "paper-scale: 2^24 integers"
                : "scaled: 2^20 integers (run with --full for paper scale)");

  const std::vector<ConfigRow> rows = {
      {"perf {1,1,1,1}; Fast-Ethernet",
       {1, 1, 1, 1},
       net::NetworkModel::fast_ethernet(),
       303.94,
       1.00273},
      {"perf {4,4,1,1}; Fast-Ethernet",
       {4, 4, 1, 1},
       net::NetworkModel::fast_ethernet(),
       155.41,
       1.094},
      {"perf {4,4,1,1}; Myrinet",
       {4, 4, 1, 1},
       net::NetworkModel::myrinet(),
       155.43,
       1.093},
  };

  metrics::TextTable table({"configuration", "input size", "exe time (s)",
                            "deviation", "mean", "max", "S(max)", "S(all)",
                            "paper t (s)", "paper S(max)"});

  std::vector<double> measured_times;  // per config
  for (const ConfigRow& row : rows) {
    PerfVector algo_perf(row.perf);
    const u64 n =
        algo_perf.homogeneous() ? n_homo : algo_perf.round_up_admissible(n_hetero);

    // With --obs-out=PREFIX the paper's headline configuration — hetero
    // perf {4,4,1,1} on Fast-Ethernet, first repetition — is traced and
    // exported (PREFIX.trace.json + PREFIX.report.json).
    const bool obs_row = !opt.obs_out.empty() && row.perf == std::vector<u32>{4, 4, 1, 1} &&
                         row.network.name == net::NetworkModel::fast_ethernet().name;

    RowResult acc;
    for (u32 rep = 0; rep < opt.reps; ++rep) {
      net::ClusterConfig config = base;  // true machine speeds {4,4,1,1}
      config.network = row.network;
      config.seed = 7100 + rep;
      config.observe = obs_row && rep == 0;
      net::Cluster cluster(config);

      workload::WorkloadSpec spec;
      spec.dist = workload::Dist::kUniform;
      spec.total_records = n;
      spec.node_count = 4;
      spec.seed = config.seed;

      struct NodeOut {
        ExtPsrsReport report;
        MultisetChecksum input;   ///< the node's share
        MultisetChecksum output;  ///< the node's final slice
        bool sorted = false;
      };
      auto outcome = cluster.run([&](net::NodeContext& ctx) -> NodeOut {
        workload::write_share(spec, ctx.rank(),
                              algo_perf.share_offset(ctx.rank(), n),
                              algo_perf.share(ctx.rank(), n), ctx.disk(),
                              "input");
        ExtPsrsConfig psrs;
        psrs.sequential.memory_records = memory;
        psrs.sequential.tape_count = 15;
        psrs.sequential.allow_in_memory = false;
        psrs.message_records = 8192;  // 32 KB of 4-byte integers
        NodeOut out;
        out.input = core::file_checksum<DefaultKey>(ctx.disk(), "input");
        ctx.clock().reset();  // time the sort, not data generation
        out.report = core::ext_psrs_sort<DefaultKey>(ctx, algo_perf, psrs);
        out.output = core::file_checksum<DefaultKey>(ctx.disk(), "sorted");
        out.sorted = core::verify_global_order<DefaultKey>(ctx, "sorted");
        return out;
      });

      if (config.observe) {
        obs::ClusterTrace trace = core::collect_cluster_trace(outcome);
        trace.set_meta("tool", "bench_table3_parallel");
        trace.set_meta("configuration", row.label);
        trace.set_meta("records", std::to_string(n));
        trace.set_meta("seed", std::to_string(config.seed));
        if (core::write_obs_outputs(trace, opt.obs_out)) {
          note("wrote " + opt.obs_out + ".trace.json and " + opt.obs_out +
               ".report.json");
        } else {
          std::cerr << "warning: failed to write --obs-out files under "
                    << opt.obs_out << "\n";
        }
      }

      acc.time.add(outcome.makespan);
      // The paper's "Mean"/"Max"/"S(max)" columns are over the fastest
      // nodes in the heterogeneous rows, all nodes in the homogeneous
      // row.
      // Every slice sorted, and the cluster's output the multiset of its
      // input.
      std::vector<u64> finals;
      MultisetChecksum in, out;
      for (const auto& r : outcome.results) {
        PALADIN_ASSERT(r.sorted);
        in.merge(r.input);
        out.merge(r.output);
        finals.push_back(r.report.final_records);
      }
      PALADIN_ASSERT(in == out);
      u64 fast_sum = 0, fast_count = 0, fast_max = 0;
      for (u32 i = 0; i < 4; ++i) {
        if (algo_perf[i] == algo_perf[0]) {  // the fastest class
          fast_sum += finals[i];
          fast_max = std::max(fast_max, finals[i]);
          ++fast_count;
        }
      }
      const double fast_opt =
          static_cast<double>(n) * algo_perf[0] /
          static_cast<double>(algo_perf.sum());
      acc.mean_fast_partition.add(static_cast<double>(fast_sum) /
                                  static_cast<double>(fast_count));
      acc.expansion_fast.add(static_cast<double>(fast_max) / fast_opt);
      acc.expansion_all.add(metrics::sublist_expansion(finals, algo_perf));
      acc.max_partition = std::max(acc.max_partition, fast_max);
    }

    table.add_row({row.label, std::to_string(n), fmt_seconds(acc.time.mean()),
                   fmt_seconds(acc.time.stddev()),
                   metrics::TextTable::fmt(acc.mean_fast_partition.mean(), 1),
                   std::to_string(acc.max_partition),
                   metrics::TextTable::fmt(acc.expansion_fast.mean(), 4),
                   metrics::TextTable::fmt(acc.expansion_all.mean(), 4),
                   fmt_seconds(row.paper_time),
                   metrics::TextTable::fmt(row.paper_expansion, 4)});
    measured_times.push_back(acc.time.mean());
  }
  table.print(std::cout);
  if (!opt.full) {
    note("paper columns refer to the 16x larger --full size; compare "
         "ratios and shapes");
  }

  heading("Shape checks (paper section 5)");
  note("hetero/homo speedup: " +
       metrics::TextTable::fmt(measured_times[0] / measured_times[1], 2) +
       "   — paper: " + metrics::TextTable::fmt(303.94 / 155.41, 2));
  note("Myrinet vs Fast-Ethernet: " +
       metrics::TextTable::fmt(measured_times[2] / measured_times[1], 3) +
       "   — paper: " + metrics::TextTable::fmt(155.43 / 155.41, 3) +
       " (no improvement: the sort is communication-light)");
  return 0;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
