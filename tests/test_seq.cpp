// Unit and property tests of the sequential sorting machinery: loser tree,
// run formation, polyphase merge sort, balanced k-way merge and the
// external_sort facade, including PDM I/O bound checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "base/checksum.h"
#include "base/meter.h"
#include "base/rng.h"
#include "pdm/pdm_math.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/external_sort.h"
#include "seq/loser_tree.h"
#include "seq/polyphase.h"
#include "seq/run_formation.h"
#include "test_params.h"

namespace paladin::seq {
namespace {

using pdm::Disk;
using pdm::DiskParams;

DiskParams small_blocks() {
  DiskParams p;
  p.block_bytes = 64;  // 16 u32 records per block — forces real blocking
  return p;
}

std::vector<u32> random_keys(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> v(n);
  for (auto& x : v) x = static_cast<u32>(rng.next());
  return v;
}

// ---------------------------------------------------------------------
// LoserTree
// ---------------------------------------------------------------------

TEST(LoserTree, MergesTwoSortedRuns) {
  std::vector<u32> a = {1, 3, 5, 7};
  std::vector<u32> b = {2, 4, 6, 8};
  MemCursor<u32> ca{std::span<const u32>(a)}, cb{std::span<const u32>(b)};
  LoserTree<u32, MemCursor<u32>> tree({&ca, &cb});
  std::vector<u32> out;
  while (tree.peek()) out.push_back(tree.pop());
  EXPECT_EQ(out, (std::vector<u32>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(LoserTree, SingleSource) {
  std::vector<u32> a = {4, 4, 9};
  MemCursor<u32> ca{std::span<const u32>(a)};
  LoserTree<u32, MemCursor<u32>> tree({&ca});
  std::vector<u32> out;
  while (tree.peek()) out.push_back(tree.pop());
  EXPECT_EQ(out, a);
}

TEST(LoserTree, EmptySourcesYieldNothing) {
  std::vector<u32> empty;
  MemCursor<u32> a{std::span<const u32>(empty)};
  MemCursor<u32> b{std::span<const u32>(empty)};
  LoserTree<u32, MemCursor<u32>> tree({&a, &b});
  EXPECT_EQ(tree.peek(), nullptr);
}

TEST(LoserTree, StableAcrossEqualKeys) {
  // Records carry a source id in the payload; equal keys must come out in
  // source order.
  struct Rec {
    u32 key;
    u32 src;
  };
  auto less = [](const Rec& x, const Rec& y) { return x.key < y.key; };
  std::vector<Rec> a = {{5, 0}, {9, 0}};
  std::vector<Rec> b = {{5, 1}, {9, 1}};
  std::vector<Rec> c = {{5, 2}, {9, 2}};
  MemCursor<Rec> ca{std::span<const Rec>(a)}, cb{std::span<const Rec>(b)},
      cc{std::span<const Rec>(c)};
  LoserTree<Rec, MemCursor<Rec>, decltype(less)> tree({&ca, &cb, &cc}, less);
  std::vector<Rec> out;
  while (tree.peek()) out.push_back(tree.pop());
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].key, i < 3 ? 5u : 9u);
    EXPECT_EQ(out[i].src, i % 3);
  }
}

class LoserTreeFanIn : public ::testing::TestWithParam<int> {};

TEST_P(LoserTreeFanIn, MergesKRandomRuns) {
  const int k = GetParam();
  Xoshiro256 rng(99 + static_cast<u64>(k));
  std::vector<std::vector<u32>> runs(static_cast<std::size_t>(k));
  std::vector<u32> expected;
  for (auto& run : runs) {
    const u64 len = rng.next_below(50);
    for (u64 i = 0; i < len; ++i) {
      run.push_back(static_cast<u32>(rng.next_below(1000)));
    }
    std::sort(run.begin(), run.end());
    expected.insert(expected.end(), run.begin(), run.end());
  }
  std::sort(expected.begin(), expected.end());

  std::vector<MemCursor<u32>> cursors;
  cursors.reserve(runs.size());
  for (auto& run : runs) {
    cursors.emplace_back(std::span<const u32>(run));
  }
  std::vector<MemCursor<u32>*> sources;
  for (auto& c : cursors) sources.push_back(&c);
  CountingMeter meter;
  LoserTree<u32, MemCursor<u32>> tree(std::move(sources), {}, &meter);
  std::vector<u32> out;
  while (tree.peek()) out.push_back(tree.pop());
  EXPECT_EQ(out, expected);
  // Each pop costs at most ceil(log2 k') comparisons for padded k'.
  u64 k2 = 1;
  while (k2 < static_cast<u64>(k)) k2 *= 2;
  EXPECT_LE(meter.compares,
            (expected.size() + 1) * (ilog2_ceil(k2) + 1) + k2);
}

INSTANTIATE_TEST_SUITE_P(FanIns, LoserTreeFanIn,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 31),
                         test_params::printed_name);

// ---------------------------------------------------------------------
// Run formation
// ---------------------------------------------------------------------

struct RunFormationCase {
  RunFormation strategy;
  u64 records;
  u64 memory;
};

void PrintTo(const RunFormationCase& c, std::ostream* os) {
  *os << to_string(c.strategy) << "_n" << c.records << "_m" << c.memory;
}

class RunFormationTest : public ::testing::TestWithParam<RunFormationCase> {};

TEST_P(RunFormationTest, RunsAreSortedAndCoverInput) {
  const auto& param = GetParam();
  Disk disk = Disk::in_memory(small_blocks());
  const auto input = random_keys(param.records, 7 + param.records);
  pdm::write_file<u32>(disk, "in", input);

  NullMeter meter;
  pdm::BlockFile in = disk.open("in");
  pdm::BlockReader<u32> reader(in);
  pdm::BlockFile out = disk.create("runs");
  pdm::BlockWriter<u32> writer(out);
  const RunLayout layout =
      form_runs<u32>(param.strategy, reader, writer, param.memory, meter);

  EXPECT_EQ(layout.total_records, param.records);
  const auto runs = pdm::read_file<u32>(disk, "runs");
  ASSERT_EQ(runs.size(), param.records);

  // Each run is sorted.
  u64 pos = 0;
  for (u64 len : layout.run_lengths) {
    EXPECT_TRUE(std::is_sorted(runs.begin() + static_cast<i64>(pos),
                               runs.begin() + static_cast<i64>(pos + len)));
    pos += len;
  }
  EXPECT_EQ(pos, param.records);

  // Permutation of the input.
  MultisetChecksum a, b;
  a.add_span(std::span<const u32>(input));
  b.add_span(std::span<const u32>(runs));
  EXPECT_EQ(a, b);

  if (param.strategy == RunFormation::kLoadSortStore) {
    // Every run except the last is exactly one memory load.
    for (std::size_t i = 0; i + 1 < layout.run_lengths.size(); ++i) {
      EXPECT_EQ(layout.run_lengths[i], param.memory);
    }
  } else {
    // Replacement selection: every run except the last has >= M records.
    for (std::size_t i = 0; i + 1 < layout.run_lengths.size(); ++i) {
      EXPECT_GE(layout.run_lengths[i], param.memory);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RunFormationTest,
    ::testing::Values(
        RunFormationCase{RunFormation::kLoadSortStore, 0, 16},
        RunFormationCase{RunFormation::kLoadSortStore, 5, 16},
        RunFormationCase{RunFormation::kLoadSortStore, 16, 16},
        RunFormationCase{RunFormation::kLoadSortStore, 1000, 64},
        RunFormationCase{RunFormation::kLoadSortStore, 1024, 128},
        RunFormationCase{RunFormation::kReplacementSelection, 0, 16},
        RunFormationCase{RunFormation::kReplacementSelection, 5, 16},
        RunFormationCase{RunFormation::kReplacementSelection, 16, 16},
        RunFormationCase{RunFormation::kReplacementSelection, 1000, 64},
        RunFormationCase{RunFormation::kReplacementSelection, 1024, 128}),
    test_params::printed_name);

TEST(ReplacementSelection, SortedInputProducesOneRun) {
  Disk disk = Disk::in_memory(small_blocks());
  std::vector<u32> input(1000);
  std::iota(input.begin(), input.end(), 0u);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  NullMeter meter;
  pdm::BlockFile in = disk.open("in");
  pdm::BlockReader<u32> reader(in);
  pdm::BlockFile out = disk.create("runs");
  pdm::BlockWriter<u32> writer(out);
  const RunLayout layout = form_runs_replacement_selection<u32>(
      reader, writer, /*memory_records=*/32, meter);
  EXPECT_EQ(layout.run_count(), 1u);
  EXPECT_EQ(layout.run_lengths[0], 1000u);
}

TEST(ReplacementSelection, RandomInputRunsAverageNearTwoM) {
  Disk disk = Disk::in_memory(small_blocks());
  const u64 memory = 128;
  const auto input = random_keys(40'000, 1234);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  NullMeter meter;
  pdm::BlockFile in = disk.open("in");
  pdm::BlockReader<u32> reader(in);
  pdm::BlockFile out = disk.create("runs");
  pdm::BlockWriter<u32> writer(out);
  const RunLayout layout = form_runs_replacement_selection<u32>(
      reader, writer, memory, meter);
  const double avg = static_cast<double>(layout.total_records) /
                     static_cast<double>(layout.run_count());
  // Knuth: expected run length tends to 2M on random input.
  EXPECT_GT(avg, 1.7 * static_cast<double>(memory));
  EXPECT_LT(avg, 2.3 * static_cast<double>(memory));
}

TEST(ReplacementSelection, ReverseInputRunsEqualM) {
  Disk disk = Disk::in_memory(small_blocks());
  std::vector<u32> input(512);
  std::iota(input.rbegin(), input.rend(), 0u);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  NullMeter meter;
  pdm::BlockFile in = disk.open("in");
  pdm::BlockReader<u32> reader(in);
  pdm::BlockFile out = disk.create("runs");
  pdm::BlockWriter<u32> writer(out);
  const RunLayout layout = form_runs_replacement_selection<u32>(
      reader, writer, /*memory_records=*/32, meter);
  // Reverse-sorted input is the worst case: every run is exactly M.
  for (std::size_t i = 0; i < layout.run_lengths.size(); ++i) {
    EXPECT_EQ(layout.run_lengths[i], 32u) << "run " << i;
  }
}

// ---------------------------------------------------------------------
// Polyphase distribution math
// ---------------------------------------------------------------------

TEST(PerfectDistribution, FibonacciForTwoInputTapes) {
  EXPECT_EQ(detail::perfect_distribution(1, 2), (std::vector<u64>{1, 0}));
  EXPECT_EQ(detail::perfect_distribution(2, 2), (std::vector<u64>{1, 1}));
  EXPECT_EQ(detail::perfect_distribution(3, 2), (std::vector<u64>{2, 1}));
  EXPECT_EQ(detail::perfect_distribution(5, 2), (std::vector<u64>{3, 2}));
  EXPECT_EQ(detail::perfect_distribution(4, 2), (std::vector<u64>{3, 2}));
  EXPECT_EQ(detail::perfect_distribution(13, 2), (std::vector<u64>{8, 5}));
}

TEST(PerfectDistribution, TotalsCoverRequestedRuns) {
  for (u32 k = 2; k <= 14; ++k) {
    for (u64 runs : {u64{1}, u64{2}, u64{7}, u64{100}, u64{12345}}) {
      const auto dist = detail::perfect_distribution(runs, k);
      u64 total = 0;
      for (u64 v : dist) total += v;
      EXPECT_GE(total, runs) << "k=" << k << " runs=" << runs;
      // Descending (perfect distributions are sorted).
      for (std::size_t i = 1; i < dist.size(); ++i) {
        EXPECT_GE(dist[i - 1], dist[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Full external sorts (both strategies), parameterised sweep
// ---------------------------------------------------------------------

struct SortCase {
  SortStrategy strategy;
  RunFormation run_formation;
  u64 records;
  u64 memory;
  u32 tapes;
};

void PrintTo(const SortCase& c, std::ostream* os) {
  *os << to_string(c.strategy) << "_" << to_string(c.run_formation) << "_n"
      << c.records << "_m" << c.memory << "_t" << c.tapes;
}

class ExternalSortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(ExternalSortSweep, SortsToAPermutation) {
  const auto& param = GetParam();
  Disk disk = Disk::in_memory(small_blocks());
  const auto input = random_keys(param.records, 31 * param.records + 7);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  ExternalSortConfig config;
  config.strategy = param.strategy;
  config.run_formation = param.run_formation;
  config.memory_records = param.memory;
  config.tape_count = param.tapes;
  config.allow_in_memory = false;

  NullMeter meter;
  const auto result = external_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_EQ(result.records, param.records);

  const auto output = pdm::read_file<u32>(disk, "out");
  ASSERT_EQ(output.size(), param.records);
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));

  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(output, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Polyphase, ExternalSortSweep,
    ::testing::Values(
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 0,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 1,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 63,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 64,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 65,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 1000,
                 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 1000,
                 64, 4},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore, 5000,
                 128, 5},
        SortCase{SortStrategy::kPolyphase, RunFormation::kLoadSortStore,
                 20000, 256, 15},
        SortCase{SortStrategy::kPolyphase, RunFormation::kReplacementSelection,
                 1000, 64, 3},
        SortCase{SortStrategy::kPolyphase, RunFormation::kReplacementSelection,
                 20000, 256, 15},
        SortCase{SortStrategy::kPolyphase, RunFormation::kReplacementSelection,
                 4096, 128, 7}),
    test_params::printed_name);

INSTANTIATE_TEST_SUITE_P(
    BalancedKWay, ExternalSortSweep,
    ::testing::Values(
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore, 0,
                 64, 0},
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore, 1,
                 64, 0},
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore,
                 64, 64, 0},
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore,
                 1000, 64, 0},
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore,
                 20000, 128, 0},
        SortCase{SortStrategy::kBalancedKWay,
                 RunFormation::kReplacementSelection, 20000, 128, 0},
        SortCase{SortStrategy::kBalancedKWay, RunFormation::kLoadSortStore,
                 5000, 48, 0}),
    test_params::printed_name);

TEST(ExternalSort, InMemoryFastPathWhenDataFits) {
  Disk disk = Disk::in_memory(small_blocks());
  const auto input = random_keys(100, 5);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  ExternalSortConfig config;
  config.memory_records = 1000;
  NullMeter meter;
  const auto result = external_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_TRUE(result.sorted_in_memory);
  const auto output = pdm::read_file<u32>(disk, "out");
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));
}

TEST(ExternalSort, PolyphaseCleansUpScratchFiles) {
  Disk disk = Disk::in_memory(small_blocks());
  const auto input = random_keys(2000, 17);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  ExternalSortConfig config;
  config.memory_records = 64;
  config.tape_count = 4;
  config.allow_in_memory = false;
  NullMeter meter;
  external_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_FALSE(disk.exists("out.runs"));
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_FALSE(disk.exists("out.tape" + std::to_string(i))) << i;
  }
}

TEST(ExternalSort, SortedOutputWithDuplicateHeavyInput) {
  Disk disk = Disk::in_memory(small_blocks());
  std::vector<u32> input(3000, 42u);
  for (std::size_t i = 0; i < input.size(); i += 3) {
    input[i] = static_cast<u32>(i);
  }
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  ExternalSortConfig config;
  config.memory_records = 64;
  config.tape_count = 4;
  config.allow_in_memory = false;
  NullMeter meter;
  external_sort<u32>(disk, "in", "out", config, meter);
  auto output = pdm::read_file<u32>(disk, "out");
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(output, expected);
}

// ---------------------------------------------------------------------
// PDM I/O bound (Theorem 1 / the paper's Step-1 bound)
// ---------------------------------------------------------------------

class IoBound : public ::testing::TestWithParam<std::tuple<u64, u64>> {};

TEST_P(IoBound, PolyphaseStaysWithinTheSequentialBound) {
  const u64 records = std::get<0>(GetParam());
  const u64 memory = std::get<1>(GetParam());
  Disk disk = Disk::in_memory(small_blocks());
  const u64 rpb = disk.params().records_per_block(sizeof(u32));

  const auto input = random_keys(records, records ^ 0xabcd);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  disk.reset_stats();

  ExternalSortConfig config;
  config.memory_records = memory;
  config.tape_count = 4;
  config.allow_in_memory = false;
  NullMeter meter;
  external_sort<u32>(disk, "in", "out", config, meter);

  // The paper's bound: 2·(l/B)(1+ceil(log_m l/B)).  Polyphase re-reads
  // unmoved runs' distribution pass, so allow the conventional constant
  // plus the distribution pass (one extra read+write of the data).
  const u64 bound =
      pdm::sequential_sort_io_bound(records, memory, rpb) + 2 * (records / rpb + 1);
  EXPECT_LE(disk.stats().total_block_ios(), 2 * bound)
      << "records=" << records << " memory=" << memory;
}

INSTANTIATE_TEST_SUITE_P(Sizes, IoBound,
                         ::testing::Values(std::make_tuple(1000, 64),
                                           std::make_tuple(5000, 64),
                                           std::make_tuple(20000, 128),
                                           std::make_tuple(50000, 256)),
                         test_params::printed_name);

}  // namespace
}  // namespace paladin::seq
