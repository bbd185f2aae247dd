// Equivalence of the storage backends (DESIGN.md §6): a sort on real files
// (PosixBackend) must be *exactly* the same sort on an in-memory disk as
// far as the model can see — byte-identical output files, identical
// IoStats block/byte counts, identical metered comparisons and moves, and
// bit-identical accumulated cost-sink seconds (charge order matters under
// floating-point addition).  Only wall-clock time may differ.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "base/meter.h"
#include "core/backend.h"
#include "core/ext_psrs.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
#include "test_params.h"
#include "workload/generators.h"

namespace paladin {
namespace {

namespace fs = std::filesystem;
using hetero::PerfVector;
using net::Cluster;
using net::ClusterConfig;
using net::NodeContext;
using workload::Dist;
using workload::WorkloadSpec;

std::vector<u32> make_input(Dist dist, u64 n, u64 seed) {
  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = 4;
  spec.seed = seed;
  std::vector<u32> all;
  for (u32 node = 0; node < 4; ++node) {
    const auto part =
        workload::generate_share(spec, node, node * (n / 4), n / 4);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// One storage backend under test.
struct BackendCase {
  const char* label;
  bool posix;  ///< real files instead of an in-memory disk
};

constexpr BackendCase kBaseline{"mem", false};
constexpr BackendCase kPosix{"posix", true};

/// Everything the simulation model observes about one run.
struct Observed {
  std::vector<u32> output;
  pdm::IoStats stats;
  double sink_seconds = 0.0;
  u64 compares = 0;
  u64 moves = 0;
};

void expect_identical(const Observed& base, const Observed& got,
                      const std::string& what) {
  EXPECT_EQ(base.output, got.output) << what;
  EXPECT_EQ(base.stats.blocks_read, got.stats.blocks_read) << what;
  EXPECT_EQ(base.stats.blocks_written, got.stats.blocks_written) << what;
  EXPECT_EQ(base.stats.bytes_read, got.stats.bytes_read) << what;
  EXPECT_EQ(base.stats.bytes_written, got.stats.bytes_written) << what;
  EXPECT_EQ(base.stats.files_created, got.stats.files_created) << what;
  EXPECT_EQ(base.stats.files_removed, got.stats.files_removed) << what;
  // Bit-identical virtual time: the sequence of double additions must
  // match, not just their mathematical sum.
  EXPECT_EQ(base.sink_seconds, got.sink_seconds) << what;
  EXPECT_EQ(base.compares, got.compares) << what;
  EXPECT_EQ(base.moves, got.moves) << what;
}

/// A scratch directory for posix-backed cases, removed on destruction.
/// Distinct tests can derive the same tag (the edge cases reuse the
/// parameterized cases' configs), and ctest runs them concurrently — the
/// pid+counter suffix keeps their directories disjoint.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::path(::testing::TempDir()) /
              ("paladin_ioeq_" + tag + "_" + std::to_string(::getpid()) +
               "_" + std::to_string(next_id()))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  static u64 next_id() {
    static std::atomic<u64> counter{0};
    return counter.fetch_add(1);
  }

  fs::path path_;
};

pdm::Disk make_disk(const BackendCase& backend, pdm::DiskParams params,
                    const ScratchDir& dir) {
  return backend.posix ? pdm::Disk::posix(dir.path(), params)
                       : pdm::Disk::in_memory(params);
}

// ---------------------------------------------------------------------
// Sequential external sorts: both strategies × both run formations, every
// distribution
// ---------------------------------------------------------------------

struct SeqEqCase {
  Dist dist;
  seq::SortStrategy strategy;
  seq::RunFormation run_formation = seq::RunFormation::kLoadSortStore;
};

void PrintTo(const SeqEqCase& c, std::ostream* os) {
  *os << workload::to_string(c.dist) << "_" << seq::to_string(c.strategy);
}

Observed run_seq(const SeqEqCase& c, const BackendCase& backend,
                 pdm::DiskParams params, const std::vector<u32>& input) {
  ScratchDir dir(std::string("seq_") + workload::to_string(c.dist) + "_" +
                 seq::to_string(c.strategy) + "_" + backend.label);
  pdm::Disk disk = make_disk(backend, params, dir);
  pdm::write_file<u32>(disk, "in", std::span<const u32>(input));

  Observed obs;
  disk.reset_stats();
  disk.set_cost_sink([&obs](double s) { obs.sink_seconds += s; });
  CountingMeter meter;
  seq::ExternalSortConfig config;
  config.strategy = c.strategy;
  config.run_formation = c.run_formation;
  config.memory_records = 512;
  config.allow_in_memory = false;
  seq::external_sort<u32>(disk, "in", "out", config, meter);

  disk.set_cost_sink(nullptr);
  obs.stats = disk.stats();
  obs.compares = meter.compares;
  obs.moves = meter.moves;
  obs.output = pdm::read_file<u32>(disk, "out");
  return obs;
}

class SeqIoEquivalence : public ::testing::TestWithParam<SeqEqCase> {};

TEST_P(SeqIoEquivalence, BothBackendsObservationallyIdentical) {
  const SeqEqCase& c = GetParam();
  pdm::DiskParams params;
  params.block_bytes = 128;  // 32 records/block, exact fit
  const auto input = make_input(c.dist, 6144, 99);

  const Observed base = run_seq(c, kBaseline, params, input);
  // Sanity: the baseline really sorted.
  EXPECT_TRUE(std::is_sorted(base.output.begin(), base.output.end()));
  EXPECT_EQ(base.output.size(), input.size());
  expect_identical(base, run_seq(c, kPosix, params, input), kPosix.label);
}

std::vector<SeqEqCase> seq_eq_cases(seq::RunFormation run_formation) {
  std::vector<SeqEqCase> out;
  for (Dist dist : workload::kAllDists) {
    for (auto strategy :
         {seq::SortStrategy::kPolyphase, seq::SortStrategy::kBalancedKWay}) {
      out.push_back(SeqEqCase{dist, strategy, run_formation});
    }
  }
  return out;
}

// Load-sort-store moves whole loads with read_span / push_span.
INSTANTIATE_TEST_SUITE_P(AllDistributions, SeqIoEquivalence,
                         ::testing::ValuesIn(seq_eq_cases(
                             seq::RunFormation::kLoadSortStore)));
// Replacement selection reads and writes one record per call (next / push)
// through the same block buffers.
INSTANTIATE_TEST_SUITE_P(ReplacementSelection, SeqIoEquivalence,
                         ::testing::ValuesIn(seq_eq_cases(
                             seq::RunFormation::kReplacementSelection)));

// Records that do not tile the block (30-byte blocks, 4-byte records →
// 7 records/block, 28 of 30 bytes used) force the span transfers onto
// their one-record-block-at-a-time chunking; accounting must still match.
TEST(SeqIoEquivalenceEdge, InexactRecordBlockFit) {
  pdm::DiskParams params;
  params.block_bytes = 30;
  const auto input = make_input(Dist::kUniform, 4096, 7);
  const SeqEqCase c{Dist::kUniform, seq::SortStrategy::kPolyphase};

  const Observed base = run_seq(c, kBaseline, params, input);
  expect_identical(base, run_seq(c, kPosix, params, input), kPosix.label);
}

// ---------------------------------------------------------------------
// Spill exchange: every backend's exchange lands the pieces it receives on
// disk (core/redistribute.h appends them to landing files, some of which
// already hold earlier pieces) and merges them back, so on real files it
// must collect the same output, with the same per-node IoStats and the
// same virtual makespan, as on in-memory disks.
// ---------------------------------------------------------------------

struct ExchangeRun {
  std::vector<DefaultKey> output;  ///< collect_sorted_output at rank 0
  std::vector<pdm::IoStats> io;    ///< per node, after the sort
  double makespan = 0.0;
};

ExchangeRun run_exchange(core::ParallelSortAlgorithm algorithm, Dist dist,
                         const BackendCase& backend) {
  const PerfVector perf({4, 4, 1, 1});
  core::ParallelSortConfig psc;
  psc.algorithm = algorithm;
  psc.sequential.memory_records = test_params::kMemoryRecords;
  psc.sequential.tape_count = test_params::kTapeCount;
  psc.sequential.allow_in_memory = false;
  psc.message_records = test_params::kMessageRecords;
  const u64 n = perf.round_up_admissible(
      std::max<u64>(12000, core::minimum_input(psc, perf)));

  ScratchDir dir(std::string("exchange_") + core::to_string(algorithm) + "_" +
                 workload::to_string(dist) + "_" + backend.label);
  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk.block_bytes = 256;
  if (backend.posix) config.workdir = dir.path();
  Cluster cluster(config);

  WorkloadSpec spec;
  spec.dist = dist;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 2718;

  struct NodeResult {
    pdm::IoStats io;
    std::vector<DefaultKey> collected;  // rank 0 only
  };
  auto outcome = cluster.run([&](NodeContext& ctx) -> NodeResult {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    const core::ParallelSortReport report =
        core::parallel_external_sort<DefaultKey>(ctx, perf, psc);
    NodeResult r;
    r.io = ctx.disk().stats();
    core::collect_sorted_output<DefaultKey>(ctx, psc, report, "all.out", 0);
    if (ctx.rank() == 0) {
      r.collected = pdm::read_file<DefaultKey>(ctx.disk(), "all.out");
    }
    return r;
  });

  ExchangeRun run;
  run.makespan = outcome.makespan;
  for (NodeResult& r : outcome.results) run.io.push_back(r.io);
  run.output = std::move(outcome.results[0].collected);
  return run;
}

void check_exchange(core::ParallelSortAlgorithm algorithm, Dist dist) {
  const ExchangeRun base = run_exchange(algorithm, dist, kBaseline);
  ASSERT_TRUE(std::is_sorted(base.output.begin(), base.output.end()));
  const ExchangeRun posix = run_exchange(algorithm, dist, kPosix);
  EXPECT_EQ(base.output, posix.output);
  ASSERT_EQ(base.io.size(), posix.io.size());
  for (std::size_t i = 0; i < base.io.size(); ++i) {
    EXPECT_EQ(base.io[i], posix.io[i]) << "node " << i;
  }
  // Bit-identical simulated execution time.
  EXPECT_EQ(base.makespan, posix.makespan);
}

class ExchangeIoEquivalence : public ::testing::TestWithParam<Dist> {};

TEST_P(ExchangeIoEquivalence, PhasedExtPsrs) {
  check_exchange(core::ParallelSortAlgorithm::kExtPsrs, GetParam());
}

TEST_P(ExchangeIoEquivalence, ExtMultiway) {
  check_exchange(core::ParallelSortAlgorithm::kExtMultiway, GetParam());
}

TEST_P(ExchangeIoEquivalence, ExtDistribution) {
  check_exchange(core::ParallelSortAlgorithm::kExtDistribution, GetParam());
}

TEST_P(ExchangeIoEquivalence, ExtOverpartition) {
  check_exchange(core::ParallelSortAlgorithm::kExtOverpartition, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, ExchangeIoEquivalence,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

// ---------------------------------------------------------------------
// Full parallel pipeline: virtual makespan is a pure function of
// (seed, config), independent of the storage backend.
// ---------------------------------------------------------------------

struct PipelineRun {
  std::vector<u32> output;
  double makespan = 0.0;
};

PipelineRun run_pipeline(Dist dist, const BackendCase& backend) {
  PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(12000);

  ScratchDir dir(std::string("pipeline_") + workload::to_string(dist) + "_" +
                 backend.label);
  ClusterConfig config;
  config.perf = {4, 4, 1, 1};
  config.disk.block_bytes = 256;
  if (backend.posix) config.workdir = dir.path();
  Cluster cluster(config);

  const auto input = make_input(dist, n, 4321);
  auto outcome = cluster.run([&](NodeContext& ctx) -> std::vector<u32> {
    if (ctx.rank() == 0) {
      pdm::write_file<u32>(ctx.disk(), "all.in", std::span<const u32>(input));
    }
    core::scatter_shares<u32>(ctx, perf, "all.in", "input", 0, 256);
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 512;
    psrs.sequential.allow_in_memory = false;
    core::ext_psrs_sort<u32>(ctx, perf, psrs);
    core::gather_shares<u32>(ctx, "sorted", "all.out", 0, 256);
    if (ctx.rank() == 0) {
      return pdm::read_file<u32>(ctx.disk(), "all.out");
    }
    return {};
  });
  return PipelineRun{std::move(outcome.results[0]), outcome.makespan};
}

class PipelineIoEquivalence : public ::testing::TestWithParam<Dist> {};

TEST_P(PipelineIoEquivalence, MakespanIndependentOfBackend) {
  const Dist dist = GetParam();
  const PipelineRun base = run_pipeline(dist, kBaseline);
  const PipelineRun posix = run_pipeline(dist, kPosix);
  EXPECT_EQ(base.output, posix.output);
  // Bit-identical simulated execution time.
  EXPECT_EQ(base.makespan, posix.makespan);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, PipelineIoEquivalence,
                         ::testing::ValuesIn(workload::kAllDists),
                         test_params::dist_name);

}  // namespace
}  // namespace paladin
