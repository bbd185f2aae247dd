// Tests of the paper's algorithm: sampling/pivots, file partitioning,
// redistribution, final merge, and the full external PSRS end-to-end over
// the simulated cluster — including the PSRS load-balance bound and
// determinism of the simulated execution time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "base/checksum.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/rng.h"
#include "core/backend.h"
#include "core/ext_psrs.h"
#include "core/merge_files.h"
#include "core/partition_file.h"
#include "core/redistribute.h"
#include "core/sampling.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin::core {
namespace {

using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

pdm::DiskParams tiny_blocks() {
  pdm::DiskParams p;
  p.block_bytes = 64;
  return p;
}

// ---------------------------------------------------------------------
// Regular sampling
// ---------------------------------------------------------------------

TEST(Sampling, InMemoryMirrorsThePaperLoop) {
  // size 8, off 2 → positions 1,3,5 (the paper's loop excludes the final
  // stride).
  std::vector<u32> sorted = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto s = draw_regular_sample<u32>(std::span<const u32>(sorted), 2);
  EXPECT_EQ(s, (std::vector<u32>{1, 3, 5}));
}

TEST(Sampling, FileAndMemoryVariantsAgree) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  std::vector<u32> sorted(1000);
  for (u32 i = 0; i < 1000; ++i) sorted[i] = 3 * i;
  pdm::write_file<u32>(disk, "f", std::span<const u32>(sorted));
  pdm::BlockFile f = disk.open("f");
  pdm::BlockReader<u32> reader(f);
  for (u64 off : {1ull, 7ull, 50ull, 999ull, 1000ull, 2000ull}) {
    reader.seek_record(0);
    EXPECT_EQ(draw_regular_sample<u32>(reader, off),
              draw_regular_sample<u32>(std::span<const u32>(sorted), off))
        << "off=" << off;
  }
}

TEST(Sampling, StreamedDrawMatchesSeekDraw) {
  // The file draw picks the paper loop's positions whichever way it moves
  // its blocks: one seek per sample while the samples are at least a block
  // apart, one pass over the file once they outnumber its blocks — so it
  // reads min(samples, blocks spanned) blocks.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  std::vector<u32> sorted(1000);
  for (u32 i = 0; i < 1000; ++i) sorted[i] = 3 * i;
  pdm::write_file<u32>(disk, "f", std::span<const u32>(sorted));
  pdm::BlockFile f = disk.open("f");
  pdm::BlockReader<u32> reader(f);
  for (u64 off : {0ull, 1ull, 7ull, 16ull, 50ull, 999ull, 1000ull, 2000ull}) {
    disk.reset_stats();
    const auto drawn = draw_regular_sample<u32>(reader, off);
    EXPECT_EQ(drawn,
              draw_regular_sample<u32>(std::span<const u32>(sorted), off))
        << "off=" << off;
    const std::vector<u64> positions =
        regular_sample_positions(sorted.size(), off);
    const u64 spanned =
        positions.empty()
            ? 0
            : positions.back() / rpb - positions.front() / rpb + 1;
    EXPECT_EQ(disk.stats().blocks_read,
              std::min<u64>(positions.size(), spanned))
        << "off=" << off;
  }
}

TEST(Sampling, CountMatchesPerfFormula) {
  // Node with share l_i and stride off = l_i/(p·perf_i) contributes
  // p·perf_i − 1 samples.
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(50);
  const u64 off = perf.sample_stride(n);
  for (u32 i = 0; i < 4; ++i) {
    std::vector<u32> sorted(perf.share(i, n));
    const auto s = draw_regular_sample<u32>(std::span<const u32>(sorted), off);
    EXPECT_EQ(s.size(), perf.sample_count(i, n)) << "node " << i;
  }
}

TEST(Sampling, SelectPivotsHomogeneousQuartiles) {
  PerfVector perf({1, 1, 1, 1});
  // p*sum - p = 12 samples; pivots at indices 4j-1 = 3, 7 (j=1..3 → 3,7,11).
  std::vector<u32> samples = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  NullMeter meter;
  const auto pivots = select_pivots<u32>(samples, perf, meter);
  EXPECT_EQ(pivots, (std::vector<u32>{3, 7, 11}));
}

TEST(Sampling, SelectPivotsPerfWeighted) {
  PerfVector perf({3, 1});
  // p=2, sum=4, q = 3/4 → rank = ⌊2·3·3/4⌋ + ⌊2·1·3/4⌋ = 4+1 = 5 → the
  // 5th smallest sample.
  std::vector<u32> samples = {10, 20, 30, 40, 50, 60};
  NullMeter meter;
  const auto pivots = select_pivots<u32>(samples, perf, meter);
  EXPECT_EQ(pivots, std::vector<u32>{50});
}

TEST(Sampling, SelectPivotsRejectsTooFewSamples) {
  PerfVector perf({1, 1, 1});
  std::vector<u32> samples = {1, 2};  // need at least p = 3
  NullMeter meter;
  EXPECT_THROW(select_pivots<u32>(samples, perf, meter), ContractViolation);
}

TEST(Sampling, SelectPivotsClampsShortSampleLists) {
  // Flooring can shave a sample; pivot indices clamp to the list end.
  PerfVector perf({1, 1, 1, 1});
  std::vector<u32> samples = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};  // 11 not 12
  NullMeter meter;
  const auto pivots = select_pivots<u32>(samples, perf, meter);
  EXPECT_EQ(pivots, (std::vector<u32>{3, 7, 10}));
}

TEST(Sampling, RankRulesCutAtOneBasedRanks) {
  // Perf quantiles: cut j at ⌊S·cum_j/Σperf⌋ + 1; S = 20, Σperf = 10.
  EXPECT_EQ(perf_quantile_ranks(PerfVector({4, 4, 1, 1}), 20),
            (std::vector<u64>{9, 17, 19}));
  // Even cuts: cut j at ⌊j·S/(cuts+1)⌋ + 1.
  EXPECT_EQ(even_ranks(3, 8), (std::vector<u64>{3, 5, 7}));
  // Adaptive weights: cut j at ⌊S·(w_0+…+w_j)⌋ + 1.
  EXPECT_EQ(weight_ranks(std::vector<double>{0.25, 0.25, 0.5}, 8),
            (std::vector<u64>{3, 5}));
}

TEST(Sampling, WeightRanksClampToThePool) {
  // A weight prefix that reaches 1.0 in double would cut at rank S + 1;
  // the rule clamps it to the pool's last record.
  EXPECT_EQ(weight_ranks(std::vector<double>{1.0, 1e-18}, 10),
            std::vector<u64>{10});
}

// ---------------------------------------------------------------------
// Reading records at positions
// ---------------------------------------------------------------------

/// Writes `data` as file "f", reads `positions` (sorted first) with
/// read_positions and checks the records and the block reads: the fewer
/// of one per position and one per block from the first position's to the
/// last one's, so never more than min(positions, ⌈l/B⌉).
void expect_positions_read(const std::vector<DefaultKey>& data,
                           std::vector<u64> positions) {
  std::sort(positions.begin(), positions.end());
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  pdm::write_file<DefaultKey>(disk, "f", std::span<const DefaultKey>(data));
  pdm::BlockFile f = disk.open("f");
  pdm::BlockReader<DefaultKey> reader(f);
  const u64 rpb = reader.records_per_block();
  disk.reset_stats();
  const std::vector<DefaultKey> got =
      read_positions(reader, std::span<const u64>(positions));
  ASSERT_EQ(got.size(), positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    EXPECT_EQ(got[k], data[positions[k]]) << "position " << positions[k];
  }
  const u64 spanned =
      positions.empty() ? 0
                        : positions.back() / rpb - positions.front() / rpb + 1;
  EXPECT_EQ(disk.stats().blocks_read,
            std::min<u64>(positions.size(), spanned));
  EXPECT_LE(disk.stats().blocks_read,
            std::min<u64>(positions.size(), ceil_div(data.size(), rpb)));
}

class ReadPositions : public ::testing::TestWithParam<Dist> {};

TEST_P(ReadPositions, BothFormsReadTheRecordsInTheFewerBlocks) {
  WorkloadSpec spec;
  spec.dist = GetParam();
  spec.total_records = 1000;  // 63 blocks of 16 records
  const std::vector<DefaultKey> data =
      workload::generate_share(spec, 0, 0, spec.total_records);
  Xoshiro256 rng(2511);
  // Streamed: 259 positions over both ends of the file, repeats included,
  // read its 63 blocks once.
  std::vector<u64> dense(256);
  for (u64& pos : dense) pos = rng.next_below(data.size());
  dense.insert(dense.end(), {0, data.size() - 1, dense.front()});
  expect_positions_read(data, dense);
  // Seeked: 21 positions, one a repeat, read one block each.
  std::vector<u64> sparse(20);
  for (u64& pos : sparse) pos = rng.next_below(data.size());
  sparse.push_back(sparse.back());
  expect_positions_read(data, sparse);
  // Repeats inside one block stream it once; no positions read nothing.
  expect_positions_read(data, {500, 500, 501});
  expect_positions_read(data, {});
  // 256 random positions in a 4-block file read at most its 4 blocks
  // (one seek per sample read 256).
  const std::vector<DefaultKey> small(data.begin(), data.begin() + 64);
  std::vector<u64> many(256);
  for (u64& pos : many) pos = rng.next_below(small.size());
  expect_positions_read(small, many);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, ReadPositions,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

TEST(DrawRandomSample, ReadsTheNodeRngPositionsInFileOrder) {
  // The draw takes `want` positions from the node RNG, sorts them and reads
  // them in file order: 64 positions (256 wanted, clamped to the file) in a
  // 4-block file read at most its 4 blocks.
  ClusterConfig config = ClusterConfig::homogeneous(1);
  config.disk = tiny_blocks();
  config.seed = 2512;
  std::vector<DefaultKey> data(64);
  for (u32 i = 0; i < data.size(); ++i) data[i] = 1000 - 7 * i;
  struct Drawn {
    std::vector<DefaultKey> sample, expected;
    u64 blocks_read = 0;
  };
  Cluster cluster(config);
  const auto outcome = cluster.run([&](NodeContext& ctx) {
    pdm::write_file<DefaultKey>(ctx.disk(), "f",
                                std::span<const DefaultKey>(data));
    Drawn d;
    Xoshiro256 rng = ctx.rng();  // the draws the sample will take
    std::vector<u64> positions(data.size());
    for (u64& pos : positions) pos = rng.next_below(data.size());
    std::sort(positions.begin(), positions.end());
    for (const u64 pos : positions) d.expected.push_back(data[pos]);
    const u64 before = ctx.disk().stats().blocks_read;
    d.sample = draw_random_sample<DefaultKey>(ctx, "f", 256);
    d.blocks_read = ctx.disk().stats().blocks_read - before;
    return d;
  });
  const Drawn& d = outcome.results[0];
  EXPECT_EQ(d.sample, d.expected);
  EXPECT_LE(d.blocks_read, 4u);
}

// ---------------------------------------------------------------------
// Cutting a sorted file in place
// ---------------------------------------------------------------------

std::vector<u64> file_cuts(pdm::Disk& disk, const std::vector<u32>& sorted,
                           const std::vector<u32>& pivots, Meter& meter) {
  pdm::write_file<u32>(disk, "s", std::span<const u32>(sorted));
  return file_partition_cuts<u32>(disk, "s", std::span<const u32>(pivots),
                                  meter);
}

TEST(FilePartitionCuts, SplitsAtPivotsWithTiesGoingLow) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  NullMeter meter;
  // <=5 → part0 (1,2,5,5,5); <=9 → part1 (7,9); rest → part2 (12).
  EXPECT_EQ(file_cuts(disk, {1, 2, 5, 5, 5, 7, 9, 12}, {5, 9}, meter),
            (std::vector<u64>{0, 5, 7, 8}));
}

TEST(FilePartitionCuts, EmptyTailPartitions) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  NullMeter meter;
  EXPECT_EQ(file_cuts(disk, {1, 2}, {100, 200, 300}, meter),
            (std::vector<u64>{0, 2, 2, 2, 2}));
}

TEST(FilePartitionCuts, EmptyInput) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  NullMeter meter;
  EXPECT_EQ(file_cuts(disk, {}, {10}, meter), (std::vector<u64>{0, 0, 0}));
}

TEST(FilePartitionCuts, ReadsLogarithmicallyAndWritesNothing) {
  // Binary partitioning: per pivot at most ⌈log2(⌈l/B⌉+1)⌉ block-start
  // probes plus the one block holding the cut; no block written, no record
  // moved.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  std::vector<u32> sorted(4000);
  for (u32 i = 0; i < 4000; ++i) sorted[i] = i;
  pdm::write_file<u32>(disk, "s", std::span<const u32>(sorted));
  disk.reset_stats();
  const std::vector<u32> pivots = {1000, 2000, 3000};
  CountingMeter meter;
  const auto cuts = file_partition_cuts<u32>(
      disk, "s", std::span<const u32>(pivots), meter);
  EXPECT_EQ(cuts, (std::vector<u64>{0, 1001, 2001, 3001, 4000}));
  EXPECT_EQ(disk.stats().blocks_written, 0u);
  EXPECT_LE(disk.stats().blocks_read,
            pivots.size() * (ilog2_ceil(ceil_div(4000, rpb) + 1) + 1));
  EXPECT_EQ(meter.moves, 0u);
}

TEST(FilePartitionCuts, MatchInMemoryCutsAcrossDuplicatePlateaus) {
  // Plateaus of equal keys cross block boundaries; pivots land on them, on
  // block-start records, below and above every key, and repeat.
  for (const u32 run : {3u, 40u}) {
    std::vector<u32> sorted;
    for (u32 i = 0; i < 4000; ++i) sorted.push_back(i / run);
    const u32 top = sorted.back();
    for (const std::vector<u32>& pivots : std::vector<std::vector<u32>>{
             {50, 333, 334, 1200},
             {0, 0, top, top},
             {1, 2, 3, 4, 5, 6, 7, 8},
             {top / 2, top / 2, top + 1},
             {16 / run, 32 / run, 48 / run}}) {
      SCOPED_TRACE("run " + std::to_string(run) + ", first pivot " +
                   std::to_string(pivots.front()));
      pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
      NullMeter meter;
      EXPECT_EQ(file_cuts(disk, sorted, pivots, meter),
                partition_cuts<u32>(std::span<const u32>(sorted),
                                    std::span<const u32>(pivots), meter));
    }
  }
}

TEST(FilePartitionCuts, RunRangeUnderAtOrBelowCutsAtLowerBounds) {
  // ext-multiway's Phase 3: three sorted runs back to back in one file
  // (16 records per block; the runs start and end inside blocks), each cut
  // over its own record range with the order !less(b, a), must cut at
  // std::lower_bound of every splitter within the run.  The splitters
  // include the key that starts block 3 (record 48, inside run 1), a key
  // whose duplicates straddle the start of block 5 (records 79 and 80),
  // keys in that block, which straddles run 1's end (records 80–95, the
  // run ends at 90), keys below and above every run, and repeats.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  const std::vector<u64> lengths = {37, 53, 40};
  std::vector<u32> file;
  for (const u64 len : lengths) {
    for (u32 k = 0; k < len; ++k) file.push_back(10 + 2 * k / 3);
  }
  pdm::write_file<u32>(disk, "runs", std::span<const u32>(file));
  ASSERT_EQ(file[48], file[47] + 1);  // a block starts a new key
  ASSERT_EQ(file[79], file[80]);      // and one starts inside a key
  std::vector<u32> splitters = {0,        file[48], file[48],     file[80],
                                file[85], file[89], file[89] + 1, 1000};
  std::sort(splitters.begin(), splitters.end());
  const auto at_or_below = [](u32 a, u32 b) { return !(b < a); };
  u64 first = 0;
  for (const u64 len : lengths) {
    const u64 last = first + len;
    SCOPED_TRACE("run [" + std::to_string(first) + ", " +
                 std::to_string(last) + ")");
    std::vector<u64> expected = {first};
    for (const u32 key : splitters) {
      expected.push_back(static_cast<u64>(
          std::lower_bound(file.begin() + static_cast<std::ptrdiff_t>(first),
                           file.begin() + static_cast<std::ptrdiff_t>(last),
                           key) -
          file.begin()));
    }
    expected.push_back(last);
    disk.reset_stats();
    NullMeter meter;
    EXPECT_EQ(file_partition_cuts<u32>(disk, "runs",
                                       std::span<const u32>(splitters), meter,
                                       at_or_below, first, last),
              expected);
    EXPECT_LE(disk.stats().blocks_read,
              splitters.size() *
                  (ilog2_ceil(ceil_div(file.size(), rpb) + 1) + 1));
    first = last;
  }
}

TEST(PartitionCuts, MatchUpperBounds) {
  std::vector<u32> sorted = {1, 2, 5, 5, 5, 7, 9, 12};
  std::vector<u32> pivots = {5, 9};
  NullMeter meter;
  const auto cuts = partition_cuts<u32>(std::span<const u32>(sorted),
                                        std::span<const u32>(pivots), meter);
  EXPECT_EQ(cuts, (std::vector<u64>{0, 5, 7, 8}));
}

// ---------------------------------------------------------------------
// merge_sorted_pieces
// ---------------------------------------------------------------------

/// Whole-file merge pieces.
std::vector<seq::MergePiece> whole_files(
    pdm::Disk& disk, const std::vector<std::string>& names) {
  std::vector<seq::MergePiece> pieces;
  for (const std::string& name : names) {
    pieces.push_back({name, 0, disk.file_records<u32>(name)});
  }
  return pieces;
}

TEST(MergeFiles, SinglePassMergesInOrder) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  std::vector<u32> a = {1, 4, 7}, b = {2, 5, 8}, c = {3, 6, 9};
  pdm::write_file<u32>(disk, "a", std::span<const u32>(a));
  pdm::write_file<u32>(disk, "b", std::span<const u32>(b));
  pdm::write_file<u32>(disk, "c", std::span<const u32>(c));
  NullMeter meter;
  const MergeOutcome m = merge_sorted_pieces<u32>(
      disk, whole_files(disk, {"a", "b", "c"}), "out", 1024, meter);
  EXPECT_EQ(m.merged, 9u);
  EXPECT_EQ(m.passes, 1u);
  EXPECT_EQ(pdm::read_file<u32>(disk, "out"),
            (std::vector<u32>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(MergeFiles, PiecesAtOffsetsMergeOnlyTheirRanges) {
  // Two sorted runs back to back in one file plus a run in the middle of
  // another: offsets that are not block-aligned (16 records per block),
  // and records outside the pieces that must not reach the output.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  std::vector<u32> runs;
  for (u32 i = 0; i < 37; ++i) runs.push_back(2 * i);      // [0, 37)
  for (u32 i = 0; i < 29; ++i) runs.push_back(2 * i + 1);  // [37, 66)
  std::vector<u32> other(50, 999);
  for (u32 i = 0; i < 21; ++i) other[5 + i] = 3 * i;  // [5, 26)
  // The single pass consumes its pieces, so every merge gets fresh inputs.
  const auto write_inputs = [&] {
    pdm::write_file<u32>(disk, "runs", std::span<const u32>(runs));
    pdm::write_file<u32>(disk, "other", std::span<const u32>(other));
  };
  const std::vector<seq::MergePiece> pieces = {
      {"runs", 3, 30}, {"runs", 40, 20}, {"other", 5, 21}};
  std::vector<u32> expected(runs.begin() + 3, runs.begin() + 33);
  expected.insert(expected.end(), runs.begin() + 40, runs.begin() + 60);
  expected.insert(expected.end(), other.begin() + 5, other.begin() + 26);
  std::sort(expected.begin(), expected.end());
  NullMeter meter;
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  for (const u64 memory : {u64{1024}, 3 * rpb}) {  // single pass, fallback
    write_inputs();
    const MergeOutcome m =
        merge_sorted_pieces<u32>(disk, pieces, "out", memory, meter);
    EXPECT_EQ(m.merged, expected.size()) << "memory " << memory;
    EXPECT_EQ(m.passes, memory == 1024 ? 1u : 3u) << "memory " << memory;
    EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
  }
}

TEST(MergeFiles, FallsBackToMultiPassOnTinyMemory) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  // 8 files but memory of only 3 blocks → fan-in 2, multi-pass.
  std::vector<std::string> names;
  std::vector<u32> expected;
  for (u32 f = 0; f < 8; ++f) {
    std::vector<u32> data;
    for (u32 i = 0; i < 50; ++i) data.push_back(f + 8 * i);
    names.push_back("f" + std::to_string(f));
    pdm::write_file<u32>(disk, names.back(), std::span<const u32>(data));
    expected.insert(expected.end(), data.begin(), data.end());
  }
  std::sort(expected.begin(), expected.end());
  NullMeter meter;
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  const MergeOutcome m = merge_sorted_pieces<u32>(
      disk, whole_files(disk, names), "out", 3 * rpb, meter);
  EXPECT_EQ(m.merged, 400u);
  // The concatenation plus ⌈log2 8⌉ balanced passes.
  EXPECT_EQ(m.passes, 4u);
  EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
  EXPECT_FALSE(disk.exists("out.cat"));
}

TEST(MergeFiles, PiecesThatFitInMemoryMergeInOnePass) {
  // Six pieces outnumber the M/B − 1 = 4 block buffers of a 5-block
  // budget, but their 69 records fit in its 80: one loser-tree pass, which
  // writes the balanced fallback's output (taken at a 4-block budget that
  // the pieces do not fit) and reads and writes each block once.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 rpb = disk.params().records_per_block(sizeof(u32));
  std::vector<std::string> names;
  std::vector<std::vector<u32>> runs;
  u64 total = 0;
  u64 input_blocks = 0;
  for (u32 f = 0; f < 6; ++f) {
    std::vector<u32> data;
    for (u32 i = 0; i < 9 + f; ++i) data.push_back(f + 6 * i);
    names.push_back("r" + std::to_string(f));
    total += data.size();
    input_blocks += ceil_div(data.size(), rpb);
    runs.push_back(std::move(data));
  }
  ASSERT_EQ(total, 69u);
  // Each merge consumes its pieces, so each gets fresh inputs.
  const auto write_inputs = [&] {
    for (u32 f = 0; f < 6; ++f) {
      pdm::write_file<u32>(disk, names[f], std::span<const u32>(runs[f]));
    }
  };
  NullMeter meter;
  write_inputs();
  const MergeOutcome fallback = merge_sorted_pieces<u32>(
      disk, whole_files(disk, names), "fallback.out", 4 * rpb, meter);
  EXPECT_GT(fallback.passes, 1u);

  write_inputs();
  disk.reset_stats();
  const MergeOutcome one = merge_sorted_pieces<u32>(
      disk, whole_files(disk, names), "one.out", 5 * rpb, meter);
  const u64 blocks_read = disk.stats().blocks_read;
  const u64 blocks_written = disk.stats().blocks_written;
  EXPECT_EQ(one.passes, 1u);
  EXPECT_EQ(one.merged, total);
  EXPECT_EQ(pdm::read_file<u32>(disk, "one.out"),
            pdm::read_file<u32>(disk, "fallback.out"));
  EXPECT_EQ(blocks_read, input_blocks);
  EXPECT_EQ(blocks_written, ceil_div(total, rpb));
}

TEST(MergeFiles, EmptyInputsProduceEmptyOutput) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  pdm::write_file<u32>(disk, "a", std::span<const u32>());
  pdm::write_file<u32>(disk, "b", std::span<const u32>());
  NullMeter meter;
  const MergeOutcome empty_pieces = merge_sorted_pieces<u32>(
      disk, whole_files(disk, {"a", "b"}), "out", 1024, meter);
  EXPECT_EQ(empty_pieces.merged, 0u);
  EXPECT_EQ(empty_pieces.passes, 1u);
  EXPECT_EQ(disk.file_records<u32>("out"), 0u);
  const MergeOutcome no_pieces =
      merge_sorted_pieces<u32>(disk, {}, "none", 1024, meter);
  EXPECT_EQ(no_pieces.merged, 0u);
  EXPECT_EQ(no_pieces.passes, 0u);
  EXPECT_EQ(disk.file_records<u32>("none"), 0u);
}

// ---------------------------------------------------------------------
// redistribute_pieces
// ---------------------------------------------------------------------

/// Runs `body` on every node of a homogeneous observed cluster with
/// 64-byte blocks (16 u32 records per block) and returns its results.
template <typename Fn>
auto run_exchange(u32 p, Fn&& body) {
  ClusterConfig config = ClusterConfig::homogeneous(p);
  config.disk = tiny_blocks();
  config.observe = true;
  Cluster cluster(config);
  return cluster.run(std::forward<Fn>(body)).results;
}

/// Σ⌈len/msg⌉ over the pieces a node sends.
u64 expected_messages(const std::vector<std::vector<seq::MergePiece>>& out,
                      u64 msg) {
  u64 messages = 0;
  for (const auto& pieces : out) {
    for (const seq::MergePiece& piece : pieces) {
      messages += ceil_div(piece.len, msg);
    }
  }
  return messages;
}

/// The exchange's message count must equal Σ⌈len/msg⌉ and its
/// redistribute.chunks_sent counter.
bool messages_consistent(NodeContext& ctx, const RedistributeResult& res,
                         const std::vector<std::vector<seq::MergePiece>>& out) {
  const obs::CounterRegistry& counters = ctx.obs()->counters();
  const u64 counted = counters.contains("redistribute.chunks_sent")
                          ? counters.value("redistribute.chunks_sent")
                          : 0;
  return res.messages ==
             expected_messages(out, res.effective_message_records) &&
         res.messages == counted;
}

TEST(Redistribute, MovesExactPartitionContents) {
  // One whole-file piece per peer, landing in one file per source.
  const auto results = run_exchange(3, [&](NodeContext& ctx) -> bool {
    const u32 p = ctx.node_count();
    const u32 rank = ctx.rank();
    // Partition j of node r contains values 1000*r + 100*j + k.
    std::vector<std::vector<seq::MergePiece>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      std::vector<u32> data;
      for (u32 k = 0; k < 10 + j; ++k) {
        data.push_back(1000 * rank + 100 * j + k);
      }
      pdm::write_file<u32>(ctx.disk(), partition_name("x.step3", j),
                           std::span<const u32>(data));
      if (j != rank) {
        outgoing[j].push_back({partition_name("x.step3", j), 0, data.size()});
      }
    }
    const RedistributeResult result = redistribute_pieces<u32>(
        ctx, outgoing,
        [](u32 src, u64) { return received_name("x.step4", src); },
        /*message_records=*/4);

    bool ok = result.received[rank].empty() && result.sent_records[rank] == 0;
    // From every peer src we must hold exactly src's partition `rank`.
    for (u32 src = 0; src < p; ++src) {
      if (src == rank) continue;
      const auto got =
          pdm::read_file<u32>(ctx.disk(), received_name("x.step4", src));
      ok = ok && got.size() == 10 + rank;
      for (u32 k = 0; k < got.size(); ++k) {
        ok = ok && got[k] == 1000 * src + 100 * rank + k;
      }
      ok = ok && result.received[src].size() == 1 &&
           result.received[src][0].file == received_name("x.step4", src) &&
           result.received[src][0].offset == 0 &&
           result.received[src][0].len == got.size();
      ok = ok && result.sent_records[src] == 10 + src;
    }
    // Messages: ceil(count/message_records) per outgoing peer partition,
    // after the block-multiple clamp (64-byte blocks, u32 → requested 4
    // rounds up to 16).
    ok = ok && result.effective_message_records == 16;
    return ok && messages_consistent(ctx, result, outgoing);
  });
  for (bool ok : results) EXPECT_TRUE(ok);
}

TEST(Redistribute, SingleRecordRequestClampsToOneBlock) {
  // message_records = 1 is the paper's pathological small-packet request.
  // The paper requires block-multiple messages, so the request clamps up
  // to one 16-record block (64-byte blocks, u32) and the 7 records travel
  // in a single message; correctness must be unaffected.
  const auto results = run_exchange(2, [&](NodeContext& ctx) -> u64 {
    const u32 peer = 1 - ctx.rank();
    std::vector<u32> data;
    for (u32 k = 0; k < 7; ++k) data.push_back(10 * ctx.rank() + k);
    pdm::write_file<u32>(ctx.disk(), "y.part", std::span<const u32>(data));
    std::vector<std::vector<seq::MergePiece>> outgoing(2);
    outgoing[peer].push_back({"y.part", 0, 7});
    const RedistributeResult result = redistribute_pieces<u32>(
        ctx, outgoing, [](u32, u64) { return std::string("y.in"); }, 1);
    EXPECT_EQ(result.effective_message_records, 16u);
    std::vector<u32> expected;
    for (u32 k = 0; k < 7; ++k) expected.push_back(10 * peer + k);
    EXPECT_EQ(pdm::read_file<u32>(ctx.disk(), "y.in"), expected);
    EXPECT_TRUE(messages_consistent(ctx, result, outgoing));
    return result.messages;
  });
  for (u64 messages : results) EXPECT_EQ(messages, 1u);
}

TEST(Redistribute, ZeroSizePartitionsExchangeCleanly) {
  // Node r's partition j holds j records of value r: partition 0 is empty
  // on every node, so every node both sends and receives empty streams —
  // and an empty piece still creates its landing file.
  const auto results =
      run_exchange(3, [&](NodeContext& ctx) -> RedistributeResult {
        const u32 p = ctx.node_count();
        std::vector<std::vector<seq::MergePiece>> outgoing(p);
        for (u32 j = 0; j < p; ++j) {
          std::vector<u32> data(j, ctx.rank());
          pdm::write_file<u32>(ctx.disk(), partition_name("px", j),
                               std::span<const u32>(data));
          if (j != ctx.rank()) {
            outgoing[j].push_back({partition_name("px", j), 0, j});
          }
        }
        RedistributeResult res = redistribute_pieces<u32>(
            ctx, outgoing,
            [](u32 src, u64) { return received_name("rx", src); },
            /*message_records=*/16);
        for (u32 src = 0; src < p; ++src) {
          if (src == ctx.rank()) continue;
          EXPECT_EQ(pdm::read_file<u32>(ctx.disk(), received_name("rx", src)),
                    std::vector<u32>(ctx.rank(), src));
        }
        EXPECT_TRUE(messages_consistent(ctx, res, outgoing));
        return res;
      });

  for (u32 r = 0; r < 3; ++r) {
    const RedistributeResult& res = results[r];
    for (u32 src = 0; src < 3; ++src) {
      if (src == r) continue;
      ASSERT_EQ(res.received[src].size(), 1u) << "node " << r;
      EXPECT_EQ(res.received[src][0].len, r) << "node " << r;
      EXPECT_EQ(res.sent_records[src], src) << "node " << r;
    }
    EXPECT_EQ(res.effective_message_records, 16u);
  }
}

TEST(Redistribute, UnalignedPiecesFromTwoFilesLandInTheirOwnFiles) {
  // Each node sends every peer three pieces cut from two files at offsets
  // that are not block-aligned (16 records per block); piece k from src
  // lands in its own file "in.<src>.<k>".
  const auto results = run_exchange(3, [&](NodeContext& ctx) -> bool {
    const u32 p = ctx.node_count();
    const u32 rank = ctx.rank();
    std::vector<u32> a(100), b(60);
    for (u32 i = 0; i < a.size(); ++i) a[i] = 100000 * rank + i;
    for (u32 i = 0; i < b.size(); ++i) b[i] = 100000 * rank + 50000 + i;
    pdm::write_file<u32>(ctx.disk(), "a", std::span<const u32>(a));
    pdm::write_file<u32>(ctx.disk(), "b", std::span<const u32>(b));
    // Peer j gets a[3j+5, +33), b[7+j, +19) and a[50+j, +17): lengths
    // above, at and below the 16-record message.
    const auto pieces_for = [](u32 j) {
      return std::vector<seq::MergePiece>{
          {"a", 3 * j + 5, 33}, {"b", 7 + j, 19}, {"a", 50 + j, 17}};
    };
    std::vector<std::vector<seq::MergePiece>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      if (j != rank) outgoing[j] = pieces_for(j);
    }
    const auto land = [](u32 src, u64 k) {
      return "in." + std::to_string(src) + "." + std::to_string(k);
    };
    const RedistributeResult res =
        redistribute_pieces<u32>(ctx, outgoing, land, 16);

    bool ok = true;
    for (u32 src = 0; src < p; ++src) {
      if (src == rank) continue;
      const std::vector<seq::MergePiece> sent = pieces_for(rank);
      ok = ok && res.received[src].size() == sent.size();
      for (u64 k = 0; k < sent.size() && ok; ++k) {
        const seq::MergePiece& landed = res.received[src][k];
        ok = ok && landed.file == land(src, k) && landed.offset == 0 &&
             landed.len == sent[k].len;
        const u32 base = 100000 * src + (sent[k].file == "b" ? 50000 : 0);
        const std::vector<u32> got =
            pdm::read_file<u32>(ctx.disk(), land(src, k));
        ok = ok && got.size() == sent[k].len;
        for (u64 i = 0; i < got.size(); ++i) {
          ok = ok && got[i] == base + sent[k].offset + i;
        }
      }
    }
    // 33 → 3 messages, 19 → 2, 17 → 2, per peer.
    return ok && res.messages == 7 * (p - 1) &&
           messages_consistent(ctx, res, outgoing);
  });
  for (bool ok : results) EXPECT_TRUE(ok);
}

TEST(Redistribute, ZeroLengthPiecesAndSilentPeersLandInOneFile) {
  // Node 0 sends nothing at all (an empty header); every other node sends
  // each peer pieces with zero-length entries first, in the middle and
  // last.  Every piece from every source lands back to back in one file
  // that already holds the node's own records, at the offset the result
  // reports.
  const auto results = run_exchange(4, [&](NodeContext& ctx) -> bool {
    const u32 p = ctx.node_count();
    const u32 rank = ctx.rank();
    std::vector<u32> src_data(40);
    for (u32 i = 0; i < src_data.size(); ++i) src_data[i] = 1000 * rank + i;
    pdm::write_file<u32>(ctx.disk(), "src", std::span<const u32>(src_data));
    const std::vector<u32> own(5, 7);
    pdm::write_file<u32>(ctx.disk(), "all", std::span<const u32>(own));
    const std::vector<seq::MergePiece> pattern = {
        {"src", 0, 0}, {"src", 1, 20}, {"src", 21, 0},
        {"src", 30, 3}, {"src", 40, 0}};
    std::vector<std::vector<seq::MergePiece>> outgoing(p);
    for (u32 j = 0; j < p; ++j) {
      if (rank != 0 && j != rank) outgoing[j] = pattern;
    }
    const RedistributeResult res = redistribute_pieces<u32>(
        ctx, outgoing, [](u32, u64) { return std::string("all"); }, 16);

    // Expected file: own records, then each source in phase order.
    std::vector<u32> expected = own;
    bool ok = res.received[0].empty() && res.received[rank].empty();
    for (u32 offset = 1; offset < p; ++offset) {
      const u32 src = (rank + p - offset) % p;
      if (src == 0) continue;
      ok = ok && res.received[src].size() == pattern.size();
      for (u64 k = 0; k < pattern.size() && ok; ++k) {
        const seq::MergePiece& landed = res.received[src][k];
        ok = ok && landed.file == "all" && landed.offset == expected.size() &&
             landed.len == pattern[k].len;
        for (u64 i = 0; i < pattern[k].len; ++i) {
          expected.push_back(1000 * src +
                             static_cast<u32>(pattern[k].offset + i));
        }
      }
    }
    ok = ok && pdm::read_file<u32>(ctx.disk(), "all") == expected;
    // 20 → 2 messages and 3 → 1 per peer, from every node but node 0.
    return ok && res.messages == (rank == 0 ? 0 : 3 * (p - 1)) &&
           messages_consistent(ctx, res, outgoing);
  });
  for (bool ok : results) EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------
// End-to-end external PSRS over the simulated cluster
// ---------------------------------------------------------------------

struct E2ECase {
  std::vector<u32> perf;
  Dist dist;
  u64 k;  ///< Equation-2 multiplier: n = k·Σperf·lcm
};

void PrintTo(const E2ECase& c, std::ostream* os) {
  *os << workload::to_string(c.dist) << "_p" << c.perf.size() << "_k" << c.k;
}

class ExtPsrsE2E : public ::testing::TestWithParam<E2ECase> {};

TEST_P(ExtPsrsE2E, SortsPermutesAndBalances) {
  const E2ECase& param = GetParam();
  PerfVector perf(param.perf);
  const u64 n = perf.admissible_size(param.k);

  ClusterConfig config;
  config.perf = param.perf;
  config.disk = tiny_blocks();
  config.seed = 1000 + param.k;
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = param.dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 77;

  struct NodeResult {
    ExtPsrsReport report;
    bool sorted;
    bool permuted;
  };

  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    const u64 share = perf.share(ctx.rank(), n);
    const u64 offset = perf.share_offset(ctx.rank(), n);
    workload::write_share(spec, ctx.rank(), offset, share, ctx.disk(),
                          "input");
    const MultisetChecksum before =
        file_checksum<DefaultKey>(ctx.disk(), "input");

    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.tape_count = 5;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 64;
    const ExtPsrsReport report =
        ext_psrs_sort<DefaultKey>(ctx, perf, psrs);

    NodeResult r;
    r.report = report;
    r.sorted = verify_global_order<DefaultKey>(ctx, "sorted");
    r.permuted = verify_global_permutation<DefaultKey>(ctx, before, "sorted");
    return r;
  });

  std::vector<u64> final_sizes, shares;
  u64 total_final = 0;
  for (u32 i = 0; i < perf.node_count(); ++i) {
    const NodeResult& r = outcome.results[i];
    EXPECT_TRUE(r.sorted) << "node " << i;
    EXPECT_TRUE(r.permuted) << "node " << i;
    EXPECT_EQ(r.report.local_records, perf.share(i, n));
    final_sizes.push_back(r.report.final_records);
    shares.push_back(r.report.local_records);
    total_final += r.report.final_records;
  }
  EXPECT_EQ(total_final, n);

  // PSRS bound: 2·l_i, with slack d for the duplicate-heavy inputs.
  u64 slack = 0;
  if (param.dist == Dist::kZero) slack = n;  // one key, d = n
  if (param.dist == Dist::kDuplicates) slack = n / 2;
  EXPECT_TRUE(metrics::within_psrs_bound(final_sizes, shares, slack))
      << "final sizes violate the PSRS bound";

  EXPECT_GT(outcome.makespan, 0.0);
}

std::vector<E2ECase> e2e_cases() {
  std::vector<E2ECase> cases;
  const std::vector<std::vector<u32>> perfs = {
      {1, 1, 1, 1}, {4, 4, 1, 1}, {8, 5, 3, 1}, {2, 1}, {1, 1, 1, 1, 1, 1, 1, 1}};
  for (const auto& perf : perfs) {
    for (Dist dist : workload::kAllBenchmarks) {
      cases.push_back(E2ECase{perf, dist, 25});
    }
  }
  // Duplicates + almost-sorted generators plus small-k edge sizes on the
  // testbed shape.
  cases.push_back(E2ECase{{4, 4, 1, 1}, Dist::kDuplicates, 25});
  cases.push_back(E2ECase{{4, 4, 1, 1}, Dist::kAlmostSorted, 25});
  cases.push_back(E2ECase{{1, 1, 1, 1}, Dist::kAlmostSorted, 25});
  cases.push_back(E2ECase{{4, 4, 1, 1}, Dist::kUniform, 1});
  cases.push_back(E2ECase{{4, 4, 1, 1}, Dist::kUniform, 2});
  cases.push_back(E2ECase{{3, 2, 1}, Dist::kUniform, 40});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExtPsrsE2E, ::testing::ValuesIn(e2e_cases()),
                         test_params::printed_name);

TEST(ExtPsrs, UniformLoadBalanceIsTight) {
  // On uniform data the measured sublist expansion should be close to 1
  // (the paper observes ~1.003–1.094).
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(200);  // 8000 records

  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk = tiny_blocks();
  Cluster cluster(config);

  WorkloadSpec spec{Dist::kUniform, n, 4, 11};
  auto outcome = cluster.run([&](NodeContext& ctx) -> u64 {
    workload::write_share(spec, ctx.rank(),
                          perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    psrs.sequential.tape_count = 5;
    return ext_psrs_sort<DefaultKey>(ctx, perf, psrs).final_records;
  });

  const double expansion =
      metrics::sublist_expansion(std::span<const u64>(outcome.results), perf);
  EXPECT_LT(expansion, 1.25);
  EXPECT_GE(expansion, 1.0);
}

TEST(ExtPsrs, DeterministicMakespan) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.admissible_size(30);
  auto run_once = [&] {
    ClusterConfig config;
    config.perf = {4, 4, 1, 1};
    config.disk = tiny_blocks();
    Cluster cluster(config);
    WorkloadSpec spec{Dist::kUniform, n, 4, 5};
    auto outcome = cluster.run([&](NodeContext& ctx) -> int {
      workload::write_share(spec, ctx.rank(),
                            perf.share_offset(ctx.rank(), n),
                            perf.share(ctx.rank(), n), ctx.disk(), "input");
      ExtPsrsConfig psrs;
      psrs.sequential.memory_records = 256;
      psrs.sequential.tape_count = 4;
      psrs.sequential.allow_in_memory = false;
      ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
      return 0;
    });
    return outcome.makespan;
  };
  const double first = run_once();
  EXPECT_GT(first, 0.0);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(run_once(), first);
}

TEST(ExtPsrs, RejectsNonAdmissibleInput) {
  PerfVector perf({2, 1});
  ClusterConfig config;
  config.perf = {2, 1};
  config.disk = tiny_blocks();
  Cluster cluster(config);
  EXPECT_THROW(
      cluster.run([&](NodeContext& ctx) -> int {
        // 7 records on each node: total 14 is not a multiple of
        // sum*lcm = 6, and shares are not perf-proportional.
        std::vector<DefaultKey> data(7, 1);
        pdm::write_file<DefaultKey>(ctx.disk(), "input",
                                    std::span<const DefaultKey>(data));
        ExtPsrsConfig psrs;
        ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
        return 0;
      }),
      ContractViolation);
}

TEST(ExtPsrs, HeterogeneousBeatsHomogeneousOnSkewedCluster) {
  // The paper's Table 3 headline: with two 4x nodes and two loaded nodes,
  // perf-aware distribution roughly halves the execution time versus
  // treating the cluster as homogeneous.
  auto run_with = [&](const PerfVector& algo_perf) {
    ClusterConfig config;
    config.perf = {4, 4, 1, 1};  // true machine speeds
    config.disk = tiny_blocks();
    Cluster cluster(config);
    const u64 n = algo_perf.round_up_admissible(8000);  // same n both ways
    WorkloadSpec spec{Dist::kUniform, n, 4, 9};
    auto outcome = cluster.run([&](NodeContext& ctx) -> int {
      workload::write_share(spec, ctx.rank(),
                            algo_perf.share_offset(ctx.rank(), n),
                            algo_perf.share(ctx.rank(), n), ctx.disk(),
                            "input");
      ExtPsrsConfig psrs;
      psrs.sequential.memory_records = 512;
      psrs.sequential.tape_count = 5;
      psrs.sequential.allow_in_memory = false;
      ext_psrs_sort<DefaultKey>(ctx, algo_perf, psrs);
      return 0;
    });
    return outcome.makespan;
  };
  const double homo = run_with(PerfVector({1, 1, 1, 1}));
  const double hetero = run_with(PerfVector({4, 4, 1, 1}));
  EXPECT_LT(hetero, homo);
  EXPECT_GT(homo / hetero, 1.5);  // paper: 303.9/155.4 ≈ 1.96
}


TEST(ExtPsrs, SingleNodeClusterDegeneratesToSequentialSort) {
  PerfVector perf({3});
  const u64 n = 3000;
  ClusterConfig config;
  config.perf = {3};
  config.disk = tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kUniform, n, 1, 2};
  auto outcome = cluster.run([&](NodeContext& ctx) -> ExtPsrsReport {
    workload::write_share(spec, 0, 0, n, ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 256;
    psrs.sequential.tape_count = 4;
    psrs.sequential.allow_in_memory = false;
    const auto report = ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    EXPECT_TRUE(is_sorted_file<DefaultKey>(ctx.disk(), "sorted"));
    return report;
  });
  EXPECT_EQ(outcome.results[0].final_records, n);
  EXPECT_EQ(outcome.results[0].local_records, n);
}

// Step 5 needs a block buffer per run; when p > M/B − 1 the spill merge
// falls back to the concatenate + balanced multi-pass merge, and the sort
// stays correct.  The fallback reads and writes the slice more than once,
// so the step's block I/O exceeds the one-pass count.
TEST(ExtPsrs, FinalMergeFallsBackWhenRunsOutnumberBuffers) {
  PerfVector perf({2, 1, 1, 1, 1});
  const u64 n = perf.round_up_admissible(4000);
  ClusterConfig config;
  config.perf = {2, 1, 1, 1, 1};
  config.disk = tiny_blocks();
  Cluster cluster(config);
  WorkloadSpec spec{Dist::kUniform, n, 5, 6};
  const u64 rpb = tiny_blocks().records_per_block(sizeof(DefaultKey));
  auto outcome = cluster.run([&](NodeContext& ctx) -> ExtPsrsReport {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const MultisetChecksum before =
        file_checksum<DefaultKey>(ctx.disk(), "input");
    ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 4 * rpb;  // fan-in 3 < p = 5
    psrs.sequential.tape_count = 3;
    psrs.sequential.allow_in_memory = false;
    const ExtPsrsReport r = ext_psrs_sort<DefaultKey>(ctx, perf, psrs);
    EXPECT_TRUE(verify_global_order<DefaultKey>(ctx, "sorted"));
    EXPECT_TRUE(verify_global_permutation<DefaultKey>(ctx, before, "sorted"));
    EXPECT_FALSE(ctx.disk().exists("sorted.cat"));
    return r;
  });
  for (u32 i = 0; i < 5; ++i) {
    const ExtPsrsReport& r = outcome.results[i];
    EXPECT_GT(r.io_final_merge, 2 * ceil_div(r.final_records, rpb) + 6)
        << "node " << i;
  }
}

}  // namespace
}  // namespace paladin::core
