// Tests of the Parallel Disk Model substrate: backends, block accounting,
// typed buffered I/O and the PDM bound arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "base/math_util.h"
#include "base/rng.h"
#include "base/temp_dir.h"
#include "pdm/disk.h"
#include "pdm/pdm_math.h"
#include "pdm/typed_io.h"
#include "test_params.h"

namespace paladin::pdm {
namespace {

DiskParams tiny_blocks() {
  DiskParams p;
  p.block_bytes = 64;  // 16 u32 per block
  return p;
}

// ---------------------------------------------------------------------
// Backends (both must behave identically)
// ---------------------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<bool> {
 protected:
  Disk make_disk() {
    if (GetParam()) {
      dir_.emplace("pdm-test");
      return Disk::posix(dir_->path(), tiny_blocks());
    }
    return Disk::in_memory(tiny_blocks());
  }
  std::optional<ScopedTempDir> dir_;
};

TEST_P(BackendTest, RoundTripsRecords) {
  Disk disk = make_disk();
  std::vector<u32> data(1000);
  std::iota(data.begin(), data.end(), 7u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(read_file<u32>(disk, "f"), data);
  EXPECT_EQ(disk.file_records<u32>("f"), 1000u);
}

TEST_P(BackendTest, CreateTruncatesExisting) {
  Disk disk = make_disk();
  std::vector<u32> big(100, 1u), small(3, 2u);
  write_file<u32>(disk, "f", std::span<const u32>(big));
  write_file<u32>(disk, "f", std::span<const u32>(small));
  EXPECT_EQ(read_file<u32>(disk, "f"), small);
}

TEST_P(BackendTest, ExistsAndRemove) {
  Disk disk = make_disk();
  EXPECT_FALSE(disk.exists("f"));
  write_file<u32>(disk, "f", std::span<const u32>());
  EXPECT_TRUE(disk.exists("f"));
  disk.remove("f");
  EXPECT_FALSE(disk.exists("f"));
}

TEST_P(BackendTest, OpenMissingFileViolatesContract) {
  Disk disk = make_disk();
  EXPECT_THROW(disk.open("nope"), ContractViolation);
}

TEST_P(BackendTest, AppendExtendsFile) {
  Disk disk = make_disk();
  BlockFile f = disk.create("f");
  std::vector<u8> a(10, 0xaa), b(5, 0xbb);
  f.append(a);
  f.append(b);
  EXPECT_EQ(f.size_bytes(), 15u);
  std::vector<u8> out(15);
  EXPECT_EQ(f.read_at(0, out), 15u);
  EXPECT_EQ(out[0], 0xaa);
  EXPECT_EQ(out[14], 0xbb);
}

// Seeded write_at/read_at calls against a plain byte-vector model, checked
// after every call: 2–3 MiB transfers, writes straddling multiples of 2^20,
// unaligned overwrites inside the data, writes past EOF (the gap reads back
// as zero) and reads at or beyond EOF (0 or a short count).
TEST_P(BackendTest, MatchesByteVectorModel) {
  constexpr u64 kMiB = u64{1} << 20;
  constexpr u64 kMaxBytes = 4 * kMiB;  // keeps the whole-file checks cheap
  Disk disk = make_disk();
  BlockFile f;
  std::vector<u8> model;
  std::vector<u8> all;  // the whole file, read back after every call
  Xoshiro256 rng(1616);

  // Payload bytes are odd, so a gap that is not zeroed shows.
  auto write = [&](u64 off, u64 len) {
    std::vector<u8> data(len);
    for (u8& b : data) b = static_cast<u8>(rng.next() | 1);
    f.write_at(off, data);
    if (off + len > model.size()) model.resize(off + len, 0);
    std::copy(data.begin(), data.end(),
              model.begin() + static_cast<std::ptrdiff_t>(off));
  };
  auto read = [&](u64 off, u64 len) {
    std::vector<u8> out(len);
    const u64 got = f.read_at(off, out);
    const u64 want =
        off >= model.size() ? 0 : std::min(len, model.size() - off);
    ASSERT_EQ(got, want) << "read of " << len << " bytes at " << off;
    EXPECT_TRUE(std::equal(out.begin(),
                           out.begin() + static_cast<std::ptrdiff_t>(got),
                           model.begin() + static_cast<std::ptrdiff_t>(off)))
        << "read of " << len << " bytes at " << off;
  };
  auto unaligned_overwrite = [&] {
    const u64 off = rng.next_below(model.size());
    write(off, 1 + rng.next_below(std::min<u64>(model.size() - off, 65536)));
  };

  for (u32 call = 0; call < 300; ++call) {
    if (call % 50 == 0) {  // start over from an empty file now and then
      f = BlockFile();
      f = disk.create("f");
      model.clear();
    }
    const u64 size = model.size();
    switch (size == 0 ? 0 : rng.next_below(5)) {
      case 0: {  // a 2–3 MiB transfer starting inside the data or at EOF
        const u64 len = 2 * kMiB + rng.next_below(kMiB + 1);
        const u64 off = rng.next_below(std::min(size, kMaxBytes - len) + 1);
        if (size == 0 || rng.next_below(2) == 0) {
          write(off, len);
        } else {
          read(off, len);
        }
        break;
      }
      case 1: {  // a write straddling a multiple of 2^20
        const u64 boundary = (1 + rng.next_below(kMaxBytes / kMiB - 1)) * kMiB;
        const u64 before = 1 + rng.next_below(4096);
        write(boundary - before, before + 1 + rng.next_below(4096));
        break;
      }
      case 2:
        unaligned_overwrite();
        break;
      case 3: {  // a write past EOF, its gap crossing a chunk now and then
        const u64 gap = 1 + rng.next_below(kMiB + kMiB / 2);
        const u64 len = 1 + rng.next_below(8192);
        if (size + gap + len > kMaxBytes) {
          unaligned_overwrite();
        } else {
          write(size + gap, len);
        }
        break;
      }
      default: {  // a read at EOF, beyond it, or across it
        const u64 len = 1 + rng.next_below(8192);
        switch (rng.next_below(3)) {
          case 0: read(size, len); break;
          case 1: read(size + 1 + rng.next_below(kMiB), len); break;
          default: read(size - rng.next_below(std::min<u64>(size, len)), len);
        }
      }
    }
    ASSERT_EQ(f.size_bytes(), model.size()) << "after call " << call;
    ASSERT_EQ(disk.live_bytes(), model.size()) << "after call " << call;
    all.resize(model.size());
    ASSERT_EQ(f.read_at(0, all), model.size()) << "after call " << call;
    if (all != model) {
      const auto diff = std::mismatch(all.begin(), all.end(), model.begin());
      FAIL() << "byte " << diff.first - all.begin() << " wrong after call "
             << call;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, BackendTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "posix" : "mem";
                         });

// ---------------------------------------------------------------------
// Block accounting
// ---------------------------------------------------------------------

TEST(IoAccounting, WholeBlocksCountedExactly) {
  Disk disk = Disk::in_memory(tiny_blocks());  // 16 records/block
  std::vector<u32> data(64);                   // exactly 4 blocks
  std::iota(data.begin(), data.end(), 0u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(disk.stats().blocks_written, 4u);
  EXPECT_EQ(disk.stats().bytes_written, 256u);

  read_file<u32>(disk, "f");
  EXPECT_EQ(disk.stats().blocks_read, 4u);
  EXPECT_EQ(disk.stats().bytes_read, 256u);
}

TEST(IoAccounting, PartialFinalBlockCostsOneTransfer) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data(17);  // one full block + 1 record
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_EQ(disk.stats().blocks_written, 2u);
}

TEST(IoAccounting, CostSinkChargedPerBlock) {
  Disk disk = Disk::in_memory(tiny_blocks());
  double charged = 0;
  disk.set_cost_sink([&](double s) { charged += s; });
  std::vector<u32> data(32);  // 2 blocks
  write_file<u32>(disk, "f", std::span<const u32>(data));
  EXPECT_NEAR(charged, 2 * disk.params().block_cost_seconds(), 1e-12);
}

/// Writes a file through alternating runs of push and push_span, then reads
/// it back through alternating runs of next and read_span.  Spans start at
/// unaligned record offsets and some cover more than kMaxBulkBlocks blocks.
/// However the calls batch their transfers, a sequential stream of n
/// records costs one transfer per record-block, ⌈n / records_per_block⌉,
/// in each direction, and the cost sink is called once per block.
template <typename T>
void expect_mixed_transfers_match_formula(u64 block_bytes, bool posix) {
  DiskParams params;
  params.block_bytes = block_bytes;
  std::optional<ScopedTempDir> dir;
  if (posix) dir.emplace("pdm-accounting");
  Disk disk =
      posix ? Disk::posix(dir->path(), params) : Disk::in_memory(params);
  u64 sink_calls = 0;
  disk.set_cost_sink([&](double) { ++sink_calls; });

  const u64 rpb = params.records_per_block(sizeof(T));
  ASSERT_GE(rpb, 1u);
  const u64 longer = (kMaxBulkBlocks + 2) * rpb + 1;
  // Run lengths, used in turn; even positions are single-record calls.
  const u64 runs[] = {1, longer, 3, rpb + 2, 1, 2 * longer, rpb - 1, 5};
  const u64 n = 5 * longer + rpb / 2 + 3;
  std::vector<T> data(n);
  std::iota(data.begin(), data.end(), T{11});
  const u64 blocks = ceil_div(n, rpb);

  {
    BlockFile f = disk.create("f");
    BlockWriter<T> w(f);
    for (u64 pos = 0, k = 0; pos < n; ++k) {
      const u64 take = std::min(n - pos, runs[k % std::size(runs)]);
      if (k % 2 == 0) {
        for (u64 i = 0; i < take; ++i) w.push(data[pos + i]);
      } else {
        w.push_span(std::span<const T>(data).subspan(pos, take));
      }
      pos += take;
    }
    w.flush();
  }
  EXPECT_EQ(disk.stats().blocks_written, blocks);
  EXPECT_EQ(disk.stats().bytes_written, n * sizeof(T));
  EXPECT_EQ(sink_calls, blocks);

  std::vector<T> back(n);
  {
    BlockFile f = disk.open("f");
    BlockReader<T> r(f);
    for (u64 pos = 0, k = 0; pos < n; ++k) {
      const u64 take = std::min(n - pos, runs[(k + 3) % std::size(runs)]);
      if (k % 2 == 0) {
        for (u64 i = 0; i < take; ++i) ASSERT_TRUE(r.next(back[pos + i]));
      } else {
        ASSERT_EQ(r.read_span(std::span<T>(back).subspan(pos, take)), take);
      }
      pos += take;
    }
    EXPECT_TRUE(r.done());
  }
  EXPECT_EQ(back, data);
  EXPECT_EQ(disk.stats().blocks_read, blocks);
  EXPECT_EQ(disk.stats().bytes_read, n * sizeof(T));
  EXPECT_EQ(sink_calls, 2 * blocks);
}

/// (block bytes, record bytes, real files or in memory).
class MixedTransferAccounting
    : public ::testing::TestWithParam<std::tuple<u64, u64, bool>> {};

TEST_P(MixedTransferAccounting, BlocksBytesAndSinkCallsMatchFormula) {
  const auto [block_bytes, record_bytes, posix] = GetParam();
  if (record_bytes == sizeof(u32)) {
    expect_mixed_transfers_match_formula<u32>(block_bytes, posix);
  } else {
    expect_mixed_transfers_match_formula<u64>(block_bytes, posix);
  }
}

// Records per block (u32 / u64): 8 → 2 / 1, 30 → 7 / 3 with slack,
// 128 → 32 / 16, 4090 → 1022 / 511 with slack, 4096 → 1024 / 512.  Spans
// over blocks the records tile batch up to kMaxBulkBlocks blocks per
// transfer; over blocks with slack they transfer one block at a time.
INSTANTIATE_TEST_SUITE_P(
    Geometries, MixedTransferAccounting,
    ::testing::Combine(::testing::Values<u64>(8, 30, 128, 4090, 4096),
                       ::testing::Values<u64>(sizeof(u32), sizeof(u64)),
                       ::testing::Bool()),
    test_params::printed_name);

TEST(IoAccounting, StatsDifferenceOperator) {
  IoStats a{10, 5, 100, 50, 2, 1};
  IoStats b{4, 2, 40, 20, 1, 0};
  const IoStats d = a - b;
  EXPECT_EQ(d.blocks_read, 6u);
  EXPECT_EQ(d.blocks_written, 3u);
  EXPECT_EQ(d.total_block_ios(), 9u);
}

// ---------------------------------------------------------------------
// BlockReader / BlockWriter
// ---------------------------------------------------------------------

TEST(TypedIo, ReaderPeeksWithoutConsuming) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data = {10, 20, 30};
  write_file<u32>(disk, "f", std::span<const u32>(data));
  BlockFile f = disk.open("f");
  BlockReader<u32> r(f);
  EXPECT_EQ(*r.peek(), 10u);
  EXPECT_EQ(*r.peek(), 10u);
  u32 v;
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(*r.peek(), 20u);
}

TEST(TypedIo, SeekRecordRepositions) {
  Disk disk = Disk::in_memory(tiny_blocks());
  std::vector<u32> data(100);
  std::iota(data.begin(), data.end(), 0u);
  write_file<u32>(disk, "f", std::span<const u32>(data));
  BlockFile f = disk.open("f");
  BlockReader<u32> r(f);
  r.seek_record(57);
  u32 v;
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 57u);
  r.seek_record(3);
  EXPECT_TRUE(r.next(v));
  EXPECT_EQ(v, 3u);
  r.seek_record(100);
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.next(v));
}

TEST(TypedIo, WriterFlushOnDestruction) {
  Disk disk = Disk::in_memory(tiny_blocks());
  {
    BlockFile f = disk.create("f");
    BlockWriter<u32> w(f);
    w.push(123u);
    // no explicit flush
  }
  EXPECT_EQ(read_file<u32>(disk, "f"), std::vector<u32>{123u});
}

TEST(TypedIo, NonRecordSizedFileRejected) {
  Disk disk = Disk::in_memory(tiny_blocks());
  BlockFile f = disk.create("f");
  std::vector<u8> junk(6, 0);  // not a multiple of sizeof(u64)
  f.append(junk);
  BlockFile g = disk.open("f");
  EXPECT_THROW(BlockReader<u64> r(g), ContractViolation);
}

TEST(TypedIo, LargeRecordsSpanningBlocks) {
  struct Wide {
    u64 a, b, c, d, e;  // 40 bytes; block = 64 → 1 record per block
  };
  Disk disk = Disk::in_memory(tiny_blocks());
  BlockFile f = disk.create("f");
  BlockWriter<Wide> w(f);
  for (u64 i = 0; i < 10; ++i) w.push(Wide{i, i, i, i, i});
  w.flush();
  BlockFile g = disk.open("f");
  BlockReader<Wide> r(g);
  EXPECT_EQ(r.size_records(), 10u);
  Wide v{};
  u64 i = 0;
  while (r.next(v)) EXPECT_EQ(v.a, i++);
  EXPECT_EQ(i, 10u);
}

// ---------------------------------------------------------------------
// PDM bound arithmetic
// ---------------------------------------------------------------------

TEST(PdmMath, BlocksAndMemoryBlocks) {
  PdmShape s{.N = 1000, .M = 160, .B = 16, .D = 1};
  EXPECT_EQ(s.n_blocks(), 63u);
  EXPECT_EQ(s.m_blocks(), 10u);
  EXPECT_FALSE(s.fits_in_memory());
}

TEST(PdmMath, OptimalPassesFollowsLogM) {
  // 1000 records, memory 100 → 10 runs, m = 100/10=10 blocks... choose
  // clean numbers: N=10000, M=100, B=10 → runs=100, m=10 → 1+ceil(log_10
  // 100)=3 passes.
  PdmShape s{.N = 10000, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(s.optimal_passes(), 3u);
  PdmShape in_mem{.N = 50, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(in_mem.optimal_passes(), 1u);
}

TEST(PdmMath, SortBoundScalesInverselyWithD) {
  PdmShape d1{.N = 10000, .M = 100, .B = 10, .D = 1};
  PdmShape d4{.N = 10000, .M = 100, .B = 10, .D = 4};
  EXPECT_EQ(d1.sort_io_bound(), 4u * d4.sort_io_bound());
}

TEST(PdmMath, SequentialBoundHelper) {
  const PdmShape shape{.N = 10000, .M = 100, .B = 10, .D = 1};
  EXPECT_EQ(sequential_sort_io_bound(10000, 100, 10), shape.sort_io_bound());
}

TEST(DiskParams, BlockCostCombinesAccessAndTransfer) {
  DiskParams p;
  p.block_bytes = 1000;
  p.access_seconds = 0.001;
  p.transfer_bytes_per_second = 1e6;
  EXPECT_NEAR(p.block_cost_seconds(), 0.002, 1e-12);
}

TEST(DiskParams, RecordsPerBlockNeverZero) {
  DiskParams p;
  p.block_bytes = 4;
  EXPECT_EQ(p.records_per_block(8), 1u);  // record wider than block
  EXPECT_EQ(p.records_per_block(4), 1u);
  EXPECT_EQ(p.records_per_block(2), 2u);
}

}  // namespace
}  // namespace paladin::pdm
