// Wide-record (Datamation 100-byte) tests: the full external machinery on
// records where payload integrity matters, plus disk fault injection —
// storage that fails mid-sort must surface as a clean exception, abort the
// whole cluster run, and never deadlock.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ext_psrs.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
#include "workload/datamation.h"

namespace paladin {
namespace {

using workload::DatamationLess;
using workload::DatamationRecord;

// ---------------------------------------------------------------------
// Wide records through the sequential and parallel sorts
// ---------------------------------------------------------------------

TEST(WideRecords, SequentialExternalSortPreservesPayloads) {
  pdm::DiskParams params;
  params.block_bytes = 1000;  // 10 records per block
  pdm::Disk disk = pdm::Disk::in_memory(params);
  const u64 n = 2000, seed = 7;
  workload::write_datamation(disk, "in", seed, 0, n);

  seq::ExternalSortConfig config;
  config.memory_records = 128;
  config.tape_count = 5;
  config.allow_in_memory = false;
  NullMeter meter;
  seq::external_sort<DatamationRecord, DatamationLess>(disk, "in", "out",
                                                       config, meter);

  pdm::BlockFile f = disk.open("out");
  pdm::BlockReader<DatamationRecord> r(f);
  ASSERT_EQ(r.size_records(), n);
  DatamationRecord prev{}, cur{};
  DatamationLess less;
  bool first = true;
  u64 intact = 0;
  while (r.next(cur)) {
    if (!first) {
      EXPECT_FALSE(less(cur, prev));
    }
    intact += workload::datamation_intact(cur, seed);
    prev = cur;
    first = false;
  }
  EXPECT_EQ(intact, n);  // every payload still matches its key
}

TEST(WideRecords, ParallelExtPsrsOnHeterogeneousCluster) {
  hetero::PerfVector perf({3, 1});
  const u64 n = perf.round_up_admissible(2000);
  net::ClusterConfig config;
  config.perf = {3, 1};
  config.disk.block_bytes = 1000;
  net::Cluster cluster(config);
  const u64 seed = 9;

  auto outcome = cluster.run([&](net::NodeContext& ctx) -> std::pair<bool, u64> {
    workload::write_datamation(ctx.disk(), "input", seed,
                               perf.share_offset(ctx.rank(), n),
                               perf.share(ctx.rank(), n));
    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 128;
    psrs.sequential.tape_count = 4;
    psrs.sequential.allow_in_memory = false;
    psrs.message_records = 32;
    core::ext_psrs_sort<DatamationRecord, DatamationLess>(ctx, perf, psrs);

    const bool sorted =
        core::verify_global_order<DatamationRecord, DatamationLess>(ctx,
                                                                    "sorted");
    pdm::BlockFile f = ctx.disk().open("sorted");
    pdm::BlockReader<DatamationRecord> r(f);
    DatamationRecord rec{};
    u64 intact = 0;
    while (r.next(rec)) intact += workload::datamation_intact(rec, seed);
    return {sorted, intact};
  });
  u64 intact_total = 0;
  for (const auto& [sorted, intact] : outcome.results) {
    EXPECT_TRUE(sorted);
    intact_total += intact;
  }
  EXPECT_EQ(intact_total, n);
}

TEST(WideRecords, GeneratorDeterministicAndKeyed) {
  const auto a = workload::datamation_record(1, 42);
  const auto b = workload::datamation_record(1, 42);
  const auto c = workload::datamation_record(1, 43);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
  EXPECT_NE(std::memcmp(&a, &c, sizeof(a)), 0);
  EXPECT_TRUE(workload::datamation_intact(a, 1));
  EXPECT_FALSE(workload::datamation_intact(a, 2));
}

// ---------------------------------------------------------------------
// Disk fault injection
// ---------------------------------------------------------------------

/// Backend decorator that fails every operation once `budget` byte-moving
/// calls have happened — simulating a disk that dies mid-sort.
class FaultyBackend final : public pdm::FileBackend {
 public:
  FaultyBackend(std::unique_ptr<pdm::FileBackend> inner, u64 budget)
      : inner_(std::move(inner)), budget_(budget) {}

  class FaultyHandle final : public pdm::FileHandle {
   public:
    FaultyHandle(std::unique_ptr<pdm::FileHandle> inner, FaultyBackend* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    u64 read_at(u64 offset, std::span<u8> out) override {
      owner_->spend();
      return inner_->read_at(offset, out);
    }
    void write_at(u64 offset, std::span<const u8> data) override {
      owner_->spend();
      inner_->write_at(offset, data);
    }
    u64 size_bytes() const override { return inner_->size_bytes(); }

   private:
    std::unique_ptr<pdm::FileHandle> inner_;
    FaultyBackend* owner_;
  };

  std::unique_ptr<pdm::FileHandle> create(const std::string& name) override {
    return std::make_unique<FaultyHandle>(inner_->create(name), this);
  }
  std::unique_ptr<pdm::FileHandle> open(const std::string& name) override {
    return std::make_unique<FaultyHandle>(inner_->open(name), this);
  }
  bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  void remove(const std::string& name) override { inner_->remove(name); }
  u64 file_size(const std::string& name) const override {
    return inner_->file_size(name);
  }
  u64 total_bytes() const override { return inner_->total_bytes(); }

  void spend() {
    if (budget_ == 0) throw std::runtime_error("injected disk failure");
    --budget_;
  }

 private:
  std::unique_ptr<pdm::FileBackend> inner_;
  u64 budget_;
};

TEST(FaultInjection, SequentialSortSurfacesDiskFailure) {
  pdm::DiskParams params;
  params.block_bytes = 64;
  // Writing the 5000-record input costs ~313 block writes; the remaining
  // budget dies early in the sort's run-formation pass.
  pdm::Disk disk(std::make_unique<FaultyBackend>(
                     std::make_unique<pdm::MemBackend>(), 450),
                 params);
  {
    pdm::BlockFile f = disk.create("in");
    pdm::BlockWriter<u32> w(f);
    Xoshiro256 rng(4);
    for (u32 i = 0; i < 5000; ++i) w.push(static_cast<u32>(rng.next()));
    w.flush();
  }
  seq::ExternalSortConfig config;
  config.memory_records = 64;
  config.tape_count = 4;
  config.allow_in_memory = false;
  NullMeter meter;
  EXPECT_THROW(seq::external_sort<u32>(disk, "in", "out", config, meter),
               std::runtime_error);
}

TEST(FaultInjection, BudgetBoundaryIsExact) {
  pdm::DiskParams params;
  params.block_bytes = 64;
  pdm::Disk disk(std::make_unique<FaultyBackend>(
                     std::make_unique<pdm::MemBackend>(), 2),
                 params);
  pdm::BlockFile f = disk.create("f");
  std::vector<u8> block(64, 1);
  EXPECT_NO_THROW(f.write_at(0, block));    // 1st op
  EXPECT_NO_THROW(f.write_at(64, block));   // 2nd op
  EXPECT_THROW(f.write_at(128, block), std::runtime_error);
}

TEST(FaultInjection, NodeDiskFailureAbortsClusterWithoutDeadlock) {
  // Node 1's scratch disk dies mid-sort while its peers are blocked in
  // the sampling gather; the run must end with the injected exception.
  hetero::PerfVector perf({1, 1, 1});
  const u64 n = perf.round_up_admissible(6000);
  net::ClusterConfig config;
  config.perf = {1, 1, 1};
  config.disk.block_bytes = 64;
  net::Cluster cluster(config);

  EXPECT_THROW(
      cluster.run([&](net::NodeContext& ctx) -> int {
        // Each node sorts on a *private* disk; node 1's is faulty.
        pdm::DiskParams params;
        params.block_bytes = 64;
        auto backend = std::make_unique<FaultyBackend>(
            std::make_unique<pdm::MemBackend>(),
            ctx.rank() == 1 ? 300 : ~u64{0});
        pdm::Disk disk(std::move(backend), params);
        {
          pdm::BlockFile f = disk.create("in");
          pdm::BlockWriter<u32> w(f);
          for (u64 i = 0; i < n / 3; ++i) {
            w.push(static_cast<u32>(ctx.rng().next()));
          }
          w.flush();
        }
        seq::ExternalSortConfig sc;
        sc.memory_records = 64;
        sc.tape_count = 4;
        sc.allow_in_memory = false;
        NullMeter meter;
        seq::external_sort<u32>(disk, "in", "out", sc, meter);
        // Healthy nodes proceed to a collective and block there until the
        // poison wakes them.
        ctx.comm().barrier();
        return 0;
      }),
      std::runtime_error);
}

}  // namespace
}  // namespace paladin
