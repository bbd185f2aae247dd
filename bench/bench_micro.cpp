// Micro-benchmarks (google-benchmark) of the kernels everything else is
// built from: loser-tree merging, run formation (both strategies), the
// in-place partition cuts, and the block I/O layer.  These report real wall
// time (not simulated seconds) and exist to catch performance regressions
// in the substrate itself.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "base/meter.h"
#include "base/rng.h"
#include "core/partition_file.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/loser_tree.h"
#include "seq/run_formation.h"

namespace paladin {
namespace {

std::vector<u32> random_keys(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> v(n);
  for (auto& x : v) x = static_cast<u32>(rng.next());
  return v;
}

/// Scratch directory on the real filesystem for the FileDisk kernels.
struct ScopedTempDir {
  std::filesystem::path path;
  explicit ScopedTempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("paladin_bm_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path); }
};

/// k sorted runs: randomly interleaved key ranges (gallop worst case) or a
/// range partition of one sorted sequence (gallop best case — the shape
/// sorted/staggered/bucket-sorted workloads produce).
std::vector<std::vector<u32>> make_runs(u64 k, u64 per_run,
                                        bool partitioned) {
  std::vector<std::vector<u32>> runs(k);
  if (partitioned) {
    auto all = random_keys(k * per_run, 11);
    std::sort(all.begin(), all.end());
    for (u64 i = 0; i < k; ++i) {
      runs[i].assign(all.begin() + static_cast<i64>(i * per_run),
                     all.begin() + static_cast<i64>((i + 1) * per_run));
    }
  } else {
    for (u64 i = 0; i < k; ++i) {
      runs[i] = random_keys(per_run, i);
      std::sort(runs[i].begin(), runs[i].end());
    }
  }
  return runs;
}

struct VecSink {
  std::vector<u32>* out;
  void push(u32 v) { out->push_back(v); }
  void push_span(std::span<const u32> s) {
    out->insert(out->end(), s.begin(), s.end());
  }
};

void BM_LoserTreeMerge(benchmark::State& state) {
  const u64 k = static_cast<u64>(state.range(0));
  const u64 per_run = 1 << 14;
  std::vector<std::vector<u32>> runs(k);
  for (u64 i = 0; i < k; ++i) {
    runs[i] = random_keys(per_run, i);
    std::sort(runs[i].begin(), runs[i].end());
  }
  for (auto _ : state) {
    std::vector<seq::MemCursor<u32>> cursors;
    cursors.reserve(k);
    for (auto& r : runs) cursors.emplace_back(std::span<const u32>(r));
    std::vector<seq::MemCursor<u32>*> sources;
    for (auto& c : cursors) sources.push_back(&c);
    seq::LoserTree<u32, seq::MemCursor<u32>> tree(std::move(sources));
    u64 sum = 0;
    while (const u32* top = tree.peek()) {
      sum += *top;
      tree.pop_discard();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(k * per_run));
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(4)->Arg(8)->Arg(15)->Arg(32);

// Per-record pops vs pop_run_into bulk drain, on randomly interleaved
// runs and on a range partition (where the gallop drains whole buffers).
void BM_MergeModes(benchmark::State& state) {
  const u64 k = static_cast<u64>(state.range(0));
  const bool partitioned = state.range(1) != 0;
  const bool bulk = state.range(2) != 0;
  const u64 per_run = 1 << 14;
  const auto runs = make_runs(k, per_run, partitioned);
  for (auto _ : state) {
    std::vector<seq::MemCursor<u32>> cursors;
    cursors.reserve(k);
    for (auto& r : runs) cursors.emplace_back(std::span<const u32>(r));
    std::vector<seq::MemCursor<u32>*> sources;
    for (auto& c : cursors) sources.push_back(&c);
    seq::LoserTree<u32, seq::MemCursor<u32>> tree(std::move(sources));
    std::vector<u32> out;
    out.reserve(k * per_run);
    if (bulk) {
      VecSink sink{&out};
      tree.pop_run_into(sink);
    } else {
      while (const u32* top = tree.peek()) {
        out.push_back(*top);
        tree.pop_discard();
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(k * per_run));
  state.SetLabel(std::string(partitioned ? "partitioned" : "interleaved") +
                 (bulk ? "/bulk" : "/per-record"));
}
BENCHMARK(BM_MergeModes)
    ->Args({8, 0, 0})
    ->Args({8, 0, 1})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({15, 1, 0})
    ->Args({15, 1, 1});

void BM_RunFormation(benchmark::State& state) {
  const bool replacement = state.range(0) != 0;
  const u64 n = 1 << 16;
  const u64 memory = 1 << 12;
  pdm::DiskParams params;
  for (auto _ : state) {
    state.PauseTiming();
    pdm::Disk disk = pdm::Disk::in_memory(params);
    const auto input = random_keys(n, 3);
    pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
    pdm::BlockFile in = disk.open("in");
    pdm::BlockReader<u32> reader(in);
    pdm::BlockFile out = disk.create("runs");
    pdm::BlockWriter<u32> writer(out);
    state.ResumeTiming();

    NullMeter meter;
    auto layout = seq::form_runs<u32>(
        replacement ? seq::RunFormation::kReplacementSelection
                    : seq::RunFormation::kLoadSortStore,
        reader, writer, memory, meter);
    benchmark::DoNotOptimize(layout.total_records);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(n));
  state.SetLabel(replacement ? "replacement-selection" : "load-sort-store");
}
BENCHMARK(BM_RunFormation)->Arg(0)->Arg(1);

void BM_FilePartitionCuts(benchmark::State& state) {
  const u32 p = static_cast<u32>(state.range(0));
  const u64 n = 1 << 16;
  pdm::DiskParams params;
  auto sorted = random_keys(n, 9);
  std::sort(sorted.begin(), sorted.end());
  std::vector<u32> pivots;
  for (u32 j = 1; j < p; ++j) pivots.push_back(sorted[j * n / p]);
  pdm::Disk disk = pdm::Disk::in_memory(params);
  pdm::write_file<u32>(disk, "s", std::span<const u32>(sorted));
  for (auto _ : state) {
    NullMeter meter;
    auto cuts = core::file_partition_cuts<u32>(
        disk, "s", std::span<const u32>(pivots), meter);
    benchmark::DoNotOptimize(cuts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(n));
}
BENCHMARK(BM_FilePartitionCuts)->Arg(4)->Arg(8)->Arg(16);

void BM_BlockIoRoundTrip(benchmark::State& state) {
  const u64 n = 1 << 16;
  pdm::DiskParams params;
  const auto data = random_keys(n, 4);
  for (auto _ : state) {
    pdm::Disk disk = pdm::Disk::in_memory(params);
    pdm::write_file<u32>(disk, "f", std::span<const u32>(data));
    auto back = pdm::read_file<u32>(disk, "f");
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(n * sizeof(u32) * 2));
}
BENCHMARK(BM_BlockIoRoundTrip);

// The same round trip through real files.
void BM_FileIoRoundTrip(benchmark::State& state) {
  const u64 n = 1 << 18;
  const auto data = random_keys(n, 4);
  ScopedTempDir dir("fileio");
  u64 iter = 0;
  for (auto _ : state) {
    pdm::Disk disk = pdm::Disk::posix(dir.path);
    const std::string name = "f" + std::to_string(iter++);
    pdm::write_file<u32>(disk, name, std::span<const u32>(data));
    auto back = pdm::read_file<u32>(disk, name);
    benchmark::DoNotOptimize(back.data());
    disk.remove(name);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(n * sizeof(u32) * 2));
}
BENCHMARK(BM_FileIoRoundTrip);

void BM_MultisetChecksum(benchmark::State& state) {
  const u64 n = 1 << 16;
  const auto data = random_keys(n, 5);
  for (auto _ : state) {
    MultisetChecksum sum;
    sum.add_span(std::span<const u32>(data));
    benchmark::DoNotOptimize(sum.digest());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(n));
}
BENCHMARK(BM_MultisetChecksum);

}  // namespace
}  // namespace paladin

BENCHMARK_MAIN();
