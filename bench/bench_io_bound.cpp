// Validates the PDM side of the paper (§2): measured block I/Os of the
// sequential external sorts against the Aggarwal–Vitter bound
// Sort(N) = Θ((n/D)·log_m n) (Theorem 1) at D = 1, across problem size
// and memory size, and compares polyphase against the balanced k-way
// baseline and both run-formation strategies.  The paper's algorithm needs
// only the D = 1 building blocks per node: each node sorts its share on
// its own disk, so the bench measures no D > 1 layout.
#include <iostream>

#include "base/meter.h"
#include "base/rng.h"
#include "bench/bench_common.h"
#include "metrics/table.h"
#include "pdm/pdm_math.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"

namespace paladin::bench {
namespace {

void fill_random(pdm::Disk& disk, const std::string& name, u64 n, u64 seed) {
  pdm::BlockFile f = disk.create(name);
  pdm::BlockWriter<u32> w(f);
  Xoshiro256 rng(seed);
  for (u64 i = 0; i < n; ++i) w.push(static_cast<u32>(rng.next()));
  w.flush();
}

int run(const BenchOptions& opt) {
  pdm::DiskParams params;  // 32 KiB blocks, 8192 u32 records per block
  const u64 rpb = params.records_per_block(sizeof(u32));

  heading("Theorem 1 / Eq.(1): measured block I/Os vs the PDM sort bound");
  metrics::TextTable table({"N (records)", "M (records)", "strategy",
                            "run formation", "initial runs", "passes",
                            "measured IOs", "bound 2(n)(1+ceil(log_m n))",
                            "measured/bound"});

  const u64 base = opt.full ? (u64{1} << 24) : (u64{1} << 20);
  struct Case {
    u64 n, m;
    seq::SortStrategy strategy;
    seq::RunFormation rf;
  };
  std::vector<Case> cases;
  for (u64 n : {base / 4, base, base * 2}) {
    for (u64 m : {base / 64, base / 16}) {
      cases.push_back({n, m, seq::SortStrategy::kPolyphase,
                       seq::RunFormation::kLoadSortStore});
      cases.push_back({n, m, seq::SortStrategy::kBalancedKWay,
                       seq::RunFormation::kLoadSortStore});
      cases.push_back({n, m, seq::SortStrategy::kPolyphase,
                       seq::RunFormation::kReplacementSelection});
    }
  }

  for (const Case& c : cases) {
    pdm::Disk disk = pdm::Disk::in_memory(params);
    fill_random(disk, "in", c.n, 42 + c.n);
    disk.reset_stats();

    seq::ExternalSortConfig sort_config;
    sort_config.memory_records = c.m;
    sort_config.strategy = c.strategy;
    sort_config.run_formation = c.rf;
    // Tape count bounded by the memory budget (m blocks).
    sort_config.tape_count = static_cast<u32>(
        std::min<u64>(15, seq::max_fan_in<u32>(disk, c.m) + 1));
    sort_config.allow_in_memory = false;
    NullMeter meter;
    const auto result =
        seq::external_sort<u32>(disk, "in", "out", sort_config, meter);

    const u64 measured = disk.stats().total_block_ios();
    const u64 bound = pdm::sequential_sort_io_bound(c.n, c.m, rpb);
    table.add_row(
        {std::to_string(c.n), std::to_string(c.m),
         seq::to_string(c.strategy), seq::to_string(c.rf),
         std::to_string(result.initial_runs),
         std::to_string(result.merge_passes), std::to_string(measured),
         std::to_string(bound),
         metrics::TextTable::fmt(static_cast<double>(measured) /
                                     static_cast<double>(bound),
                                 2)});
  }
  table.print(std::cout);
  note("polyphase pays one distribution pass over the balanced merge but "
       "needs no run redistribution between phases; replacement selection "
       "halves the initial run count (runs ~2M on random input)");
  return 0;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
