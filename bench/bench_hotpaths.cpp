// Perf-regression harness for the transfer hot paths: times the read,
// write and merge kernels in three modes and emits a text table and, with
// --json-dir=D, a machine-readable D/BENCH_hotpaths.json with the
// best-of-reps ns/record per (kernel, mode).  The modes:
//
//  * per-record — the baseline, a loop written here that moves one record
//    per call (push for writes, next for reads, peek/pop_discard/push for
//    merges);
//  * bulk — the library's block-granular calls (push_span, read_span,
//    merge_run_group / pop_run_into);
//  * memory — bulk on pdm::Disk::in_memory, the disk every bench and
//    whole-sort benchmark run sorts on.
//
// The first two run on a real (posix) disk.
//
// Block-I/O counts and metered comparisons are reported per row so a mode
// that got faster by *doing less metered work* (instead of doing the same
// work faster) shows up immediately; the equivalence tests enforce the
// same invariant bit-exactly.  The merge kernels sweep the fan-in (k ∈
// {4..256}) and include a Zipf-skewed input — the duplicate-heavy regime
// where the gallop path behaves differently from uniform keys.  The
// run-formation kernels sort uniform and Zipf runs, the two sides of
// seq::metered_sort's choice between its radix and counting kernels.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/meter.h"
#include "base/rng.h"
#include "bench/bench_common.h"
#include "metrics/table.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/run_formation.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

struct Row {
  std::string kernel;
  std::string mode;
  u64 records = 0;
  double ns_per_record = 0.0;
  u64 block_ios = 0;
  double compares_per_record = 0.0;
};

struct Mode {
  const char* name;
  bool per_record;  ///< the bench's own one-record-per-call loop
  bool in_memory;   ///< pdm::MemBackend instead of real files
};

constexpr Mode kModes[] = {
    {"per-record", true, false},
    {"bulk", false, false},
    {"memory", false, true},
};

/// Drains `tree` into `out` one record per call — the per-record baseline
/// for the merge kernels.  Returns the records merged.
template <typename Tree>
u64 merge_per_record(Tree& tree, pdm::BlockWriter<u32>& out) {
  u64 merged = 0;
  while (const u32* top = tree.peek()) {
    out.push(*top);
    tree.pop_discard();
    ++merged;
  }
  return merged;
}

/// The per-record baseline of merge_run_group: one reader and run cursor
/// per run, one loser tree, and a record-at-a-time drain.
u64 merge_runs_per_record(pdm::Disk& disk, const std::string& runs_file,
                          const seq::RunLayout& layout,
                          pdm::BlockWriter<u32>& out, Meter& meter) {
  const u64 runs = layout.run_count();
  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockReader<u32>> readers;
  std::vector<seq::RunCursor<u32>> cursors;
  files.reserve(runs);
  readers.reserve(runs);
  cursors.reserve(runs);
  u64 offset = 0;
  for (const u64 len : layout.run_lengths) {
    files.push_back(disk.open(runs_file));
    readers.emplace_back(files.back());
    readers.back().seek_record(offset);
    cursors.emplace_back(&readers.back(), len);
    offset += len;
  }
  std::vector<seq::RunCursor<u32>*> sources;
  for (auto& c : cursors) sources.push_back(&c);
  seq::LoserTree<u32, seq::RunCursor<u32>> tree(std::move(sources),
                                                std::less<u32>(), &meter);
  return merge_per_record(tree, out);
}

template <typename F>
double time_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<u32> random_keys(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> v(n);
  for (auto& x : v) x = static_cast<u32>(rng.next());
  return v;
}

/// n Zipf-skewed keys (workload::Dist::kZipf): ~1K distinct hash-scattered
/// values with heavy duplicate mass.
std::vector<u32> zipf_keys(u64 n, u64 seed) {
  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kZipf;
  spec.total_records = n;
  spec.node_count = 1;
  spec.seed = seed;
  return workload::generate_share(spec, 0, 0, n);
}

/// k sorted runs laid back-to-back; `partitioned` makes them a range
/// partition of one sorted sequence (long gallop batches), otherwise the
/// key ranges fully interleave (per-record-sized batches).
struct MergeInput {
  std::vector<u32> records;  ///< runs back-to-back
  seq::RunLayout layout;
};

/// Chunks an (unsorted) key stream into k equal runs and sorts each —
/// fully interleaved key ranges, whatever the key distribution.
MergeInput make_interleaved(std::vector<u32> keys, u64 k) {
  MergeInput in;
  const u64 per_run = keys.size() / k;
  in.layout.total_records = k * per_run;
  in.layout.run_lengths.assign(k, per_run);
  keys.resize(k * per_run);
  for (u64 i = 0; i < k; ++i) {
    std::sort(keys.begin() + static_cast<std::ptrdiff_t>(i * per_run),
              keys.begin() + static_cast<std::ptrdiff_t>((i + 1) * per_run));
  }
  in.records = std::move(keys);
  return in;
}

MergeInput make_merge_input(u64 k, u64 per_run, bool partitioned) {
  if (!partitioned) return make_interleaved(random_keys(k * per_run, 100), k);
  MergeInput in;
  in.layout.total_records = k * per_run;
  in.layout.run_lengths.assign(k, per_run);
  in.records = random_keys(k * per_run, 31);
  std::sort(in.records.begin(), in.records.end());
  return in;
}

/// One timed repetition's outcome.
struct RepResult {
  double seconds = 0.0;
  u64 block_ios = 0;
  u64 compares = 0;
};

int run(const BenchOptions& opt) {
  const u64 n = opt.full ? (u64{1} << 22) : (u64{1} << 20);
  const u64 k = 8;
  const auto data = random_keys(n, 7);

  const std::filesystem::path scratch =
      (opt.workdir.empty() ? std::filesystem::temp_directory_path()
                           : opt.workdir) /
      "paladin_hotpaths";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  heading("Hot-path kernels: best-of-reps ns/record per mode");
  metrics::TextTable table({"kernel", "mode", "records", "ns/record",
                            "block IOs", "cmp/rec", "vs per-record"});
  std::vector<Row> rows;

  struct Kernel {
    std::string name;
    std::function<RepResult(const Mode&)> rep;
    bool has_per_record = true;  ///< false: no one-record-per-call form
  };

  const MergeInput presorted = make_merge_input(k, n / k, true);
  const MergeInput interleaved = make_merge_input(k, n / k, false);
  const MergeInput zipf = make_interleaved(zipf_keys(n, 93), k);

  auto disk_for = [&](const Mode& m) {
    return m.in_memory ? pdm::Disk::in_memory() : pdm::Disk::posix(scratch);
  };

  std::vector<Kernel> kernels;
  kernels.push_back({"write", [&](const Mode& m) -> RepResult {
                       pdm::Disk disk = disk_for(m);
                       disk.reset_stats();
                       const double s = time_seconds([&] {
                         if (!m.per_record) {
                           pdm::write_file<u32>(disk, "w",
                                                std::span<const u32>(data));
                           return;
                         }
                         pdm::BlockFile f = disk.create("w");
                         pdm::BlockWriter<u32> w(f);
                         for (const u32 v : data) w.push(v);
                         w.flush();
                       });
                       const u64 ios = disk.stats().total_block_ios();
                       disk.remove("w");
                       return {s, ios, 0};
                     }});
  kernels.push_back({"read", [&](const Mode& m) -> RepResult {
                       pdm::Disk disk = disk_for(m);
                       pdm::write_file<u32>(disk, "r",
                                            std::span<const u32>(data));
                       disk.reset_stats();
                       std::vector<u32> back;
                       const double s = time_seconds([&] {
                         if (!m.per_record) {
                           back = pdm::read_file<u32>(disk, "r");
                           return;
                         }
                         pdm::BlockFile f = disk.open("r");
                         pdm::BlockReader<u32> r(f);
                         back.resize(r.size_records());
                         for (u32& v : back) r.next(v);
                       });
                       PALADIN_ASSERT(back.size() == n);
                       const u64 ios = disk.stats().total_block_ios();
                       disk.remove("r");
                       return {s, ios, 0};
                     }});
  // Captures the input by pointer: the MergeInputs outlive the kernel list.
  auto merge_kernel = [&](const MergeInput* in) {
    return [&, in](const Mode& m) -> RepResult {
      const u64 runs = in->layout.run_count();
      pdm::Disk disk = disk_for(m);
      pdm::write_file<u32>(disk, "runs", std::span<const u32>(in->records));
      disk.reset_stats();
      CountingMeter meter;
      u64 merged = 0;
      const double s = time_seconds([&] {
        pdm::BlockFile out = disk.create("merged");
        pdm::BlockWriter<u32> writer(out);
        merged = m.per_record
                     ? merge_runs_per_record(disk, "runs", in->layout, writer,
                                             meter)
                     : seq::merge_run_group<u32>(disk, "runs", in->layout, 0,
                                                 runs, writer, meter);
        writer.flush();
      });
      PALADIN_ASSERT(merged == in->layout.total_records);
      const u64 ios = disk.stats().total_block_ios();
      disk.remove("runs");
      disk.remove("merged");
      return {s, ios, meter.compares};
    };
  };
  kernels.push_back({"merge-presorted", merge_kernel(&presorted)});
  kernels.push_back({"merge-random", merge_kernel(&interleaved)});
  kernels.push_back({"merge-zipf", merge_kernel(&zipf)});

  // Fan-in sweep: same total volume, k runs of n/k records each.  The
  // tree depth (⌈log2 k⌉ compares per record) and the per-source buffer
  // pressure both scale with k.
  std::vector<std::unique_ptr<MergeInput>> sweep_inputs;
  for (u64 fan : {u64{4}, u64{16}, u64{64}, u64{256}}) {
    sweep_inputs.push_back(std::make_unique<MergeInput>(
        make_interleaved(random_keys(n, 200 + fan), fan)));
    kernels.push_back({"merge-random-k" + std::to_string(fan),
                       merge_kernel(sweep_inputs.back().get())});
  }

  // Run formation: load-sort-store at M = 2^17, so every run is one
  // in-memory seq::metered_sort; the compares are that sort's model
  // charge.  Uniform runs hold ~2^17 distinct keys, Zipf runs ~1K.
  constexpr u64 kRunMemory = u64{1} << 17;
  const std::vector<u32> zipf_data = zipf_keys(n, 93);
  auto runform_kernel = [&](const std::vector<u32>* in) {
    return [&, in](const Mode& m) -> RepResult {
      pdm::Disk disk = disk_for(m);
      pdm::write_file<u32>(disk, "input", std::span<const u32>(*in));
      disk.reset_stats();
      CountingMeter meter;
      seq::RunLayout layout;
      const double s = time_seconds([&] {
        pdm::BlockFile f = disk.open("input");
        pdm::BlockReader<u32> reader(f);
        pdm::BlockFile out = disk.create("runs");
        pdm::BlockWriter<u32> writer(out);
        layout = seq::form_runs_load_sort<u32>(reader, writer, kRunMemory,
                                               meter);
      });
      PALADIN_ASSERT(layout.total_records == n);
      const u64 ios = disk.stats().total_block_ios();
      disk.remove("input");
      disk.remove("runs");
      return {s, ios, meter.compares};
    };
  };
  kernels.push_back({"runform-uniform", runform_kernel(&data),
                     /*has_per_record=*/false});
  kernels.push_back({"runform-zipf", runform_kernel(&zipf_data),
                     /*has_per_record=*/false});

  for (const Kernel& kernel : kernels) {
    double base_ns = 0.0;  // stays 0 for kernels without a per-record row
    for (const Mode& mode : kModes) {
      if (mode.per_record && !kernel.has_per_record) continue;
      std::vector<double> samples;
      u64 ios = 0;
      u64 compares = 0;
      kernel.rep(mode);  // warm-up (page cache)
      for (u32 r = 0; r < opt.reps; ++r) {
        const RepResult res = kernel.rep(mode);
        samples.push_back(res.seconds);
        ios = res.block_ios;
        compares = res.compares;
      }
      // Best-of-reps: transient scheduler noise only ever adds time, so the
      // minimum is the stable estimate the regression gate diffs against.
      const double ns = *std::min_element(samples.begin(), samples.end()) *
                        1e9 / static_cast<double>(n);
      const double cpr = static_cast<double>(compares) / static_cast<double>(n);
      if (mode.per_record) base_ns = ns;
      rows.push_back({kernel.name, mode.name, n, ns, ios, cpr});
      table.add_row({kernel.name, mode.name, std::to_string(n),
                     metrics::TextTable::fmt(ns, 2), std::to_string(ios),
                     metrics::TextTable::fmt(cpr, 2),
                     base_ns > 0.0
                         ? metrics::TextTable::fmt(base_ns / ns, 2) + "x"
                         : std::string("-")});
    }
  }
  table.print(std::cout);
  note("block-I/O and compare counts must match across the modes of each "
       "kernel: bulk calls and the disk backend change wall-clock only, never "
       "the metered work (enforced exactly by test_pdm's IoAccounting, "
       "test_io_equivalence and test_merge_kernels)");

  std::ostringstream json;
  json << "{\n  \"bench\": \"hotpaths\",\n"
       << "  \"records\": " << n << ",\n  \"reps\": " << opt.reps << ",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"kernel\": \"" << r.kernel << "\", \"mode\": \"" << r.mode
         << "\", \"records\": " << r.records << ", \"ns_per_record\": "
         << r.ns_per_record << ", \"block_ios\": " << r.block_ios
         << ", \"compares_per_record\": " << r.compares_per_record << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  write_json(opt, "BENCH_hotpaths.json", json.str());

  std::filesystem::remove_all(scratch);
  return 0;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
