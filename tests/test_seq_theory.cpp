// Theory-level tests of the sequential machinery: polyphase phase counts
// against the generalised-Fibonacci schedule, the in-memory sort's charge
// model and its counting and radix paths, comparison-count envelopes,
// custom orderings, and metering exactness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>

#include "base/meter.h"
#include "base/rng.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"
#include "seq/cursors.h"
#include "seq/external_sort.h"
#include "seq/loser_tree.h"
#include "seq/polyphase.h"
#include "test_params.h"
#include "workload/datamation.h"
#include "workload/generators.h"

namespace paladin::seq {
namespace {

pdm::DiskParams tiny_blocks() {
  pdm::DiskParams p;
  p.block_bytes = 64;
  return p;
}

std::vector<u32> random_keys(u64 n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u32> v(n);
  for (auto& x : v) x = static_cast<u32>(rng.next());
  return v;
}

// ---------------------------------------------------------------------
// Polyphase phase counts follow the Fibonacci schedule
// ---------------------------------------------------------------------

TEST(PolyphaseTheory, PhaseCountMatchesFibonacciLevels) {
  // With 3 tapes (2-way merges), R initial runs need exactly the number
  // of phases it takes the Fibonacci perfect distributions to reach R:
  // totals 1, 2, 3, 5, 8, 13, ... → levels 0, 1, 2, 3, 4, 5.
  struct Case {
    u64 runs;
    u64 phases;
  };
  // level L reaches total F(L+2); merging back down needs L phases.
  const Case cases[] = {{2, 1}, {3, 2}, {4, 3}, {5, 3}, {6, 4},
                        {8, 4}, {9, 5}, {13, 5}, {20, 6}, {21, 6}};
  for (const Case& c : cases) {
    pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
    const u64 memory = 16;  // one block per run load
    const auto input = random_keys(c.runs * memory, c.runs);
    pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

    PolyphaseConfig config;
    config.memory_records = memory;
    config.tape_count = 3;
    NullMeter meter;
    const auto result = polyphase_sort<u32>(disk, "in", "out", config, meter);
    EXPECT_EQ(result.initial_runs, c.runs);
    EXPECT_EQ(result.merge_phases, c.phases) << "runs=" << c.runs;

    auto expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
  }
}

TEST(PolyphaseTheory, HigherOrderTapesNeedFewerPhases) {
  const u64 memory = 16;
  const u64 runs = 60;
  const auto input = random_keys(runs * memory, 17);
  u64 previous_phases = ~u64{0};
  for (u32 tapes : {3u, 4u, 6u, 10u}) {
    pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
    pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
    PolyphaseConfig config;
    config.memory_records = 16 * tapes;  // keep tapes affordable
    config.tape_count = tapes;
    NullMeter meter;
    const auto result = polyphase_sort<u32>(disk, "in", "out", config, meter);
    EXPECT_LE(result.merge_phases, previous_phases) << "tapes=" << tapes;
    previous_phases = result.merge_phases;
  }
}

TEST(PolyphaseTheory, DummyRunsAccountForTheDeficit) {
  // R runs padded to the next perfect total: 7 runs on 3 tapes → perfect
  // total 8, one dummy.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 memory = 16;
  const auto input = random_keys(7 * memory, 3);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  PolyphaseConfig config;
  config.memory_records = memory;
  config.tape_count = 3;
  NullMeter meter;
  const auto result = polyphase_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_EQ(result.initial_runs, 7u);
  EXPECT_EQ(result.dummy_runs, 1u);
}

TEST(PolyphaseTheory, CustomComparatorDescending) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const auto input = random_keys(3000, 4);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  PolyphaseConfig config;
  config.memory_records = 64;
  config.tape_count = 4;
  NullMeter meter;
  auto desc = [](u32 a, u32 b) { return a > b; };
  polyphase_sort<u32, decltype(desc)>(disk, "in", "out", config, meter, desc);
  const auto output = pdm::read_file<u32>(disk, "out");
  EXPECT_TRUE(std::is_sorted(output.rbegin(), output.rend()));
  EXPECT_EQ(output.size(), input.size());
}

TEST(PolyphaseTheory, SortsU64Records) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  Xoshiro256 rng(6);
  std::vector<u64> input(2000);
  for (auto& x : input) x = rng.next();
  pdm::write_file<u64>(disk, "in", std::span<const u64>(input));
  PolyphaseConfig config;
  config.memory_records = 64;
  config.tape_count = 4;
  NullMeter meter;
  polyphase_sort<u64>(disk, "in", "out", config, meter);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pdm::read_file<u64>(disk, "out"), expected);
}

// ---------------------------------------------------------------------
// In-memory sort charges (the (n, distinct keys) model) and comparison-
// count envelopes
// ---------------------------------------------------------------------

// The in-memory sort model, written out independently of the library:
// max(n − 1, ⌈1.21·n·⌈log2 d⌉⌉) compares for n records with d distinct
// keys, in integer arithmetic.
u64 model_compares(u64 n, u64 distinct) {
  if (n == 0) return 0;
  u64 levels = 0;
  while ((u64{1} << levels) < distinct) ++levels;
  return std::max(n - 1, (121 * n * levels + 99) / 100);
}

template <typename T, typename Less = std::less<T>>
u64 distinct_keys(std::vector<T> v, Less less = {}) {
  std::sort(v.begin(), v.end(), less);
  auto equiv = [&less](const T& a, const T& b) {
    return !less(a, b) && !less(b, a);
  };
  return static_cast<u64>(std::unique(v.begin(), v.end(), equiv) - v.begin());
}

class MeteredSortModel : public ::testing::TestWithParam<workload::Dist> {};

TEST_P(MeteredSortModel, ChargeEqualsTheModelAtEverySize) {
  for (u64 n : {u64{0}, u64{1}, u64{2}, u64{63}, u64{64}, u64{1000},
                (u64{1} << 16) + 1}) {
    workload::WorkloadSpec spec;
    spec.dist = GetParam();
    spec.total_records = n;
    spec.seed = 31 + n;
    std::vector<u32> data = workload::generate_share(spec, 0, 0, n);
    std::vector<u32> expected = data;
    std::sort(expected.begin(), expected.end());
    const u64 distinct = distinct_keys(data);

    CountingMeter meter;
    metered_sort(std::span<u32>(data), meter);
    EXPECT_EQ(data, expected) << "n=" << n;
    EXPECT_EQ(meter.compares, model_compares(n, distinct)) << "n=" << n;
    EXPECT_EQ(meter.moves, n);
    if (GetParam() == workload::Dist::kZero && n > 0) {
      EXPECT_EQ(meter.compares, n - 1) << "all-equal input, n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, MeteredSortModel,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

TEST(Metering, MeteredSortChargeIgnoresInputOrder) {
  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kZipf;
  spec.total_records = 5000;
  const std::vector<u32> input = workload::generate_share(spec, 0, 0, 5000);
  std::vector<u32> sorted = input;
  std::sort(sorted.begin(), sorted.end());

  CountingMeter reference;
  std::vector<u32> data = input;
  metered_sort(std::span<u32>(data), reference);
  for (u64 seed = 1; seed <= 4; ++seed) {
    std::vector<u32> permuted = input;
    Xoshiro256 rng(seed);
    for (u64 i = permuted.size(); i > 1; --i) {
      std::swap(permuted[i - 1], permuted[rng.next_below(i)]);
    }
    for (const auto& order : {permuted, sorted}) {
      CountingMeter meter;
      std::vector<u32> copy = order;
      metered_sort(std::span<u32>(copy), meter);
      EXPECT_EQ(meter.compares, reference.compares) << "seed " << seed;
      EXPECT_EQ(meter.moves, reference.moves);
    }
  }
}

// The radix path must reproduce std::sort byte for byte on both sides of
// its cutoff, including inputs where some 8-bit digit never changes (the
// pass is skipped) and signed inputs straddling zero.
template <typename T>
class RadixSortMatchesStdSort : public ::testing::Test {};

using RadixKeyTypes = ::testing::Types<u32, u64, i32, i64>;
TYPED_TEST_SUITE(RadixSortMatchesStdSort, RadixKeyTypes);

TYPED_TEST(RadixSortMatchesStdSort, ByteIdentical) {
  using T = TypeParam;
  using U = std::make_unsigned_t<T>;
  constexpr u32 kBits = sizeof(T) * 8;
  const U low_byte = 0xFF;
  const U high_byte = static_cast<U>(low_byte << (kBits - 8));
  const U no_second_byte = static_cast<U>(~(low_byte << 8));
  const std::pair<const char*, U> masks[] = {
      {"full range", static_cast<U>(~U{0})},
      {"low byte only", low_byte},
      {"high byte only", high_byte},
      {"second byte constant", no_second_byte},
      {"all equal", U{0}},
  };
  for (u64 n : {u64{1}, u64{63}, u64{64}, u64{65}, u64{1000}, u64{70000}}) {
    for (const auto& [name, mask] : masks) {
      Xoshiro256 rng(n * 7 + mask);
      std::vector<T> data(n);
      for (T& v : data) {
        v = static_cast<T>(static_cast<U>(rng.next()) & mask);
      }
      std::vector<T> expected = data;
      std::sort(expected.begin(), expected.end());
      CountingMeter meter;
      metered_sort(std::span<T>(data), meter);
      ASSERT_EQ(std::memcmp(data.data(), expected.data(), n * sizeof(T)), 0)
          << name << ", n=" << n;
      EXPECT_EQ(meter.compares, model_compares(n, distinct_keys(expected)))
          << name << ", n=" << n;
    }
  }
}

/// `n` records holding exactly `distinct` keys: each key once, the rest
/// drawn with Zipf skew, shuffled.  With `late_key` one more key replaces a
/// record in the last 1% of the span, and appears nowhere before it.
template <typename T>
std::vector<T> keys_with_distinct(u64 n, u64 distinct, bool late_key,
                                  u64 seed) {
  using U = std::make_unsigned_t<T>;
  // An odd multiplier is a bijection mod 2^bits: distinct indices give
  // distinct keys, scattered over the range (and both signs).
  auto key = [](u64 k) {
    return static_cast<T>(static_cast<U>(k * 0x9E3779B97F4A7C15ull));
  };
  Xoshiro256 rng(seed);
  const u64 tail = late_key ? std::max<u64>(1, n / 100) : 0;
  const u64 head = n - tail;
  const double ln_d = std::log(static_cast<double>(distinct));
  std::vector<T> data(n);
  for (u64 i = 0; i < n; ++i) {
    const u64 rank = std::min<u64>(
        static_cast<u64>(std::exp(rng.next_double() * ln_d)) - 1,
        distinct - 1);
    data[i] = key(i < distinct ? i : rank);
  }
  for (u64 i = head; i > 1; --i) {
    std::swap(data[i - 1], data[rng.next_below(i)]);
  }
  if (late_key) data[head + rng.next_below(tail)] = key(distinct);
  return data;
}

// A run holding at most K = counting_max_distinct(n) distinct keys is
// counting-sorted and any other run radix-sorted: on both sides of K, and
// for a run whose (K+1)-th key first appears in its last 1%, the output is
// std::sort's byte for byte and the charge is the model's.
TYPED_TEST(RadixSortMatchesStdSort, DistinctCountBands) {
  using T = TypeParam;
  for (u64 n : {u64{detail::kRadixCutoff - 1}, u64{detail::kRadixCutoff},
                u64{detail::kRadixCutoff + 1}, u64{1} << 17}) {
    const u64 k = std::max<u64>(detail::counting_max_distinct(n), 1);
    const std::pair<u64, bool> bands[] = {
        {1, false}, {k - 1, false}, {k, false}, {k + 1, false}, {k, true}};
    for (const auto& [distinct, late] : bands) {
      if (distinct == 0) continue;
      std::vector<T> data = keys_with_distinct<T>(n, distinct, late, n + k);
      std::vector<T> expected = data;
      std::sort(expected.begin(), expected.end());
      const u64 d = distinct_keys(expected);
      ASSERT_EQ(d, distinct + (late ? 1 : 0)) << "n=" << n;
      CountingMeter meter;
      metered_sort(std::span<T>(data), meter);
      ASSERT_EQ(std::memcmp(data.data(), expected.data(), n * sizeof(T)), 0)
          << "n=" << n << ", " << d << " distinct, late=" << late;
      EXPECT_EQ(meter.compares, model_compares(n, d))
          << "n=" << n << ", " << d << " distinct";
      EXPECT_EQ(meter.moves, n);
    }
  }
}

// The counting kernel sorts a run holding K distinct keys and returns K.
// When the (K+1)-th key appears it declines: the span is unchanged and the
// digit counts it hands the radix sort cover every record.
TEST(CountingSort, DeclinesWithTheSpanUnchanged) {
  const u64 n = u64{1} << 17;
  const u64 k = detail::counting_max_distinct(n);

  std::vector<u32> data = keys_with_distinct<u32>(n, k, false, 5);
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end());
  detail::DigitCounts<u32> counts{};
  EXPECT_EQ(detail::counting_sort(std::span<u32>(data), counts), k);
  EXPECT_EQ(data, expected);

  const std::vector<u32> input = keys_with_distinct<u32>(n, k, true, 5);
  data = input;
  counts = {};
  EXPECT_EQ(detail::counting_sort(std::span<u32>(data), counts), std::nullopt);
  ASSERT_EQ(std::memcmp(data.data(), input.data(), n * sizeof(u32)), 0);
  detail::DigitCounts<u32> all{};
  detail::add_digit_counts(std::span<const u32>(input), all);
  EXPECT_EQ(counts, all);
}

// Comparator-only sorts keep std::sort (same comparisons, so the same
// bytes as the counted sort they replace) and are priced by the same model.
TEST(Metering, DatamationSortIsChargedByTheModel) {
  using workload::DatamationLess;
  using workload::DatamationRecord;
  std::vector<DatamationRecord> input;
  for (u64 i = 0; i < 3000; ++i) {
    DatamationRecord r = workload::datamation_record(9, i);
    if (i % 3 == 0) std::memset(r.key, 0x5A, sizeof(r.key));  // a heavy key
    input.push_back(r);
  }
  std::vector<DatamationRecord> expected = input;
  u64 counted = 0;
  std::sort(expected.begin(), expected.end(),
            CountingLess<DatamationLess>{DatamationLess{}, &counted});

  std::vector<DatamationRecord> data = input;
  CountingMeter meter;
  metered_sort(std::span<DatamationRecord>(data), meter, DatamationLess{});
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), DatamationLess{}));
  ASSERT_EQ(std::memcmp(data.data(), expected.data(),
                        data.size() * sizeof(DatamationRecord)),
            0);
  EXPECT_EQ(meter.compares,
            model_compares(input.size(), distinct_keys(input, DatamationLess{})));
  EXPECT_EQ(meter.moves, input.size());
}

TEST(Metering, GreaterSortIsChargedByTheModel) {
  std::vector<u32> data = random_keys(10000, 8);
  for (u32& v : data) v %= 700;  // duplicates: d = 700 < n
  std::vector<u32> expected = data;
  std::sort(expected.begin(), expected.end(), std::greater<u32>{});
  CountingMeter meter;
  metered_sort(std::span<u32>(data), meter, std::greater<u32>{});
  EXPECT_EQ(data, expected);
  EXPECT_EQ(meter.compares,
            model_compares(data.size(), distinct_keys(data, std::greater<u32>{})));
  EXPECT_EQ(meter.moves, data.size());
}

TEST(Metering, ExternalSortChargesScaleWithInput) {
  // Total charged comparisons should grow superlinearly but within
  // c·n·log2(n); and identical runs charge identical counts.
  auto run_count = [](u64 n) {
    pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
    const auto input = random_keys(n, 42);
    pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
    ExternalSortConfig config;
    config.memory_records = 64;
    config.tape_count = 4;
    config.allow_in_memory = false;
    CountingMeter meter;
    external_sort<u32>(disk, "in", "out", config, meter);
    return meter.compares;
  };
  const u64 small = run_count(2000);
  const u64 big = run_count(8000);
  EXPECT_GT(big, 4 * small * 9 / 10);  // at least ~linear growth
  EXPECT_LT(big, 8 * small);           // far below quadratic
  EXPECT_EQ(run_count(2000), small);   // deterministic metering
}

TEST(Metering, LoserTreeComparisonsPerPopAreLogK) {
  const u64 k = 16, per_run = 1000;
  std::vector<std::vector<u32>> runs(k);
  for (u64 i = 0; i < k; ++i) {
    runs[i] = random_keys(per_run, i);
    std::sort(runs[i].begin(), runs[i].end());
  }
  std::vector<MemCursor<u32>> cursors;
  cursors.reserve(k);
  for (auto& r : runs) cursors.emplace_back(std::span<const u32>(r));
  std::vector<MemCursor<u32>*> sources;
  for (auto& c : cursors) sources.push_back(&c);
  CountingMeter meter;
  {
    // Comparisons reach the meter in one batch when the tree is destroyed
    // (see loser_tree.h), so the count is read after the scope closes.
    LoserTree<u32, MemCursor<u32>> tree(std::move(sources), {}, &meter);
    while (tree.peek()) tree.pop_discard();
  }
  const u64 pops = k * per_run;
  // Exactly log2(16) = 4 comparisons per replay (plus k-1 to build).
  EXPECT_LE(meter.compares, pops * 4 + k);
  EXPECT_GE(meter.compares, pops * 2);
}

// ---------------------------------------------------------------------
// LoserTree over file-backed cursors
// ---------------------------------------------------------------------

TEST(LoserTreeFiles, MergesBlockReaderSources) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  std::vector<u32> expected;
  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockReader<u32>> readers;
  files.reserve(5);
  readers.reserve(5);
  for (u32 f = 0; f < 5; ++f) {
    std::vector<u32> run;
    for (u32 i = 0; i < 100; ++i) run.push_back(f + 5 * i);
    expected.insert(expected.end(), run.begin(), run.end());
    pdm::write_file<u32>(disk, "r" + std::to_string(f),
                         std::span<const u32>(run));
    files.push_back(disk.open("r" + std::to_string(f)));
    readers.emplace_back(files.back());
  }
  std::sort(expected.begin(), expected.end());

  std::vector<pdm::BlockReader<u32>*> sources;
  for (auto& r : readers) sources.push_back(&r);
  LoserTree<u32, pdm::BlockReader<u32>> tree(std::move(sources));
  std::vector<u32> out;
  while (tree.peek()) out.push_back(tree.pop());
  EXPECT_EQ(out, expected);
}

// ---------------------------------------------------------------------
// Edge sizes through the facade
// ---------------------------------------------------------------------

TEST(ExternalSortEdges, OneAndTwoRecordFiles) {
  for (u64 n : {u64{1}, u64{2}}) {
    pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
    std::vector<u32> input(n, 5u);
    if (n == 2) input[0] = 9;
    pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
    ExternalSortConfig config;
    config.memory_records = 16;
    config.tape_count = 3;
    config.allow_in_memory = false;
    NullMeter meter;
    external_sort<u32>(disk, "in", "out", config, meter);
    auto expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected) << n;
  }
}

TEST(ExternalSortEdges, MemoryExactlyEqualToInput) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const auto input = random_keys(256, 2);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  ExternalSortConfig config;
  config.memory_records = 256;
  config.tape_count = 3;
  config.allow_in_memory = false;  // force the external path anyway
  NullMeter meter;
  const auto result = external_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_EQ(result.initial_runs, 1u);
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
}

TEST(ExternalSortEdges, TapeCountClampedToMemory) {
  // 15 tapes requested but only 4 blocks of memory: the facade clamps
  // instead of rejecting.
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const auto input = random_keys(2000, 3);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  ExternalSortConfig config;
  config.memory_records = 64;  // 4 blocks of 16
  config.tape_count = 15;
  config.allow_in_memory = false;
  NullMeter meter;
  EXPECT_NO_THROW(external_sort<u32>(disk, "in", "out", config, meter));
  auto expected = input;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(pdm::read_file<u32>(disk, "out"), expected);
}


// ---------------------------------------------------------------------
// Linear space: peak live bytes stay within a small constant of the input
// ---------------------------------------------------------------------

TEST(LinearSpace, PolyphasePeakFootprintIsLinear) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 n = 20000;
  const auto input = random_keys(n, 33);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  // Sample the live footprint on every block transfer via the cost sink.
  u64 peak = 0;
  disk.set_cost_sink([&](double) { peak = std::max(peak, disk.live_bytes()); });

  ExternalSortConfig config;
  config.memory_records = 256;
  config.tape_count = 5;
  config.allow_in_memory = false;
  NullMeter meter;
  external_sort<u32>(disk, "in", "out", config, meter);

  const u64 input_bytes = n * sizeof(u32);
  // Linear space: the input, the runs copy, the distributed tapes and the
  // growing output coexist at a small constant of N (measured ~4.8N).
  EXPECT_LE(peak, 6 * input_bytes);
  // And the end state holds exactly input + output.
  EXPECT_EQ(disk.live_bytes(), 2 * input_bytes);
}

TEST(LinearSpace, BalancedKWayPeakFootprintIsLinear) {
  pdm::Disk disk = pdm::Disk::in_memory(tiny_blocks());
  const u64 n = 20000;
  const auto input = random_keys(n, 34);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));
  u64 peak = 0;
  disk.set_cost_sink([&](double) { peak = std::max(peak, disk.live_bytes()); });
  ExternalSortConfig config;
  config.memory_records = 256;
  config.strategy = SortStrategy::kBalancedKWay;
  config.allow_in_memory = false;
  NullMeter meter;
  external_sort<u32>(disk, "in", "out", config, meter);
  EXPECT_LE(peak, 4 * n * sizeof(u32));
}

}  // namespace
}  // namespace paladin::seq
