// Shared harness for the paper-reproduction benches: flag parsing, the
// calibrated 2002-era cost model, repetition helpers and paper-vs-measured
// row printing.  Every bench accepts:
//   --full        paper-scale problem sizes (default: ~16x smaller so the
//                 whole suite runs in a couple of minutes)
//   --reps=N      repetitions per configuration (default 5; paper used 30)
//   --workdir=P   put node scratch files on a real disk instead of RAM
//   --obs-out=P   benches that support tracing write P.trace.json and
//                 P.report.json for one representative configuration
//   --json-dir=D  benches with a machine-readable result write their
//                 BENCH_*.json into D (perf_smoke passes
//                 build/bench_results); without it they write none, so a
//                 run cannot rewrite the committed baselines
#pragma once

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/types.h"
#include "metrics/table.h"
#include "net/cluster.h"

namespace paladin::bench {

struct BenchOptions {
  bool full = false;
  u32 reps = 5;
  std::filesystem::path workdir;
  std::string obs_out;
  std::filesystem::path json_dir;

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        opt.full = true;
        opt.reps = 10;
      } else if (arg.rfind("--reps=", 0) == 0) {
        opt.reps = static_cast<u32>(std::stoul(arg.substr(7)));
      } else if (arg.rfind("--workdir=", 0) == 0) {
        opt.workdir = arg.substr(10);
      } else if (arg.rfind("--obs-out=", 0) == 0) {
        opt.obs_out = arg.substr(10);
      } else if (arg.rfind("--json-dir=", 0) == 0) {
        opt.json_dir = arg.substr(11);
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --full  --reps=N  --workdir=PATH  "
                     "--obs-out=PREFIX  --json-dir=DIR\n";
        std::exit(0);
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        std::exit(2);
      }
    }
    return opt;
  }
};

/// The simulated testbed of the paper (Table 1): 4 Alpha 21164 nodes, two
/// of them loaded 4x, SCSI disks, Fast Ethernet.  The compute-cost
/// constants are calibrated so the speed-1 sequential external sort of
/// 2^25 integers lands near the paper's ~2000 s (see EXPERIMENTS.md).
inline net::ClusterConfig paper_cluster(const BenchOptions& opt) {
  net::ClusterConfig config = net::ClusterConfig::paper_testbed();
  config.network = net::NetworkModel::fast_ethernet();
  config.disk = pdm::DiskParams::scsi_2002();
  config.cost = net::CostModel::alpha_2002();
  config.workdir = opt.workdir;
  return config;
}

/// Scaled-vs-full problem size: the paper's 2^x at --full, 2^(x-4) scaled.
inline u64 scaled_pow2(const BenchOptions& opt, u32 paper_log2) {
  return u64{1} << (opt.full ? paper_log2 : paper_log2 - 4);
}

/// Memory budget (records) matching the scale: 2^20 records at full scale
/// (the 4 MB in-core workspace a 2002 node would grant the sort), 2^17
/// scaled — the minimum that keeps m = M/B ≥ 16 so the paper's 15 tapes
/// still fit.
inline u64 scaled_memory(const BenchOptions& opt) {
  return u64{1} << (opt.full ? 20 : 17);
}

inline std::string fmt_seconds(double s) {
  return metrics::TextTable::fmt(s, 2);
}

/// Prints a "paper vs measured" comparison line under a table.
inline void note(const std::string& text) { std::cout << "  " << text << "\n"; }

inline void heading(const std::string& text) {
  std::cout << "\n=== " << text << " ===\n";
}

/// Writes `body` as `<--json-dir>/<name>` and notes it; without --json-dir
/// it writes nothing.
inline void write_json(const BenchOptions& opt, const std::string& name,
                       const std::string& body) {
  if (opt.json_dir.empty()) return;
  std::filesystem::create_directories(opt.json_dir);
  const std::filesystem::path path = opt.json_dir / name;
  std::ofstream out(path);
  out << body;
  note("wrote " + path.string());
}

}  // namespace paladin::bench
