// External sorting over a D-disk StripedVolume — the D > 1 half of the
// Aggarwal–Vitter model (paper §2, Figure 1a).  Every stream in the sort —
// the input, each run, each intermediate run, the output — is striped over
// all D disks, so writes follow PDM's "striped manner" and reads pull from
// the D disks concurrently: each pass moves ~ceil(n/D) blocks per disk and
// the whole sort meets Sort(N) = Θ((n/D)·log_m n).  bench_io_bound checks
// the measured per-disk counts.
//
// Memory discipline: a striped run cursor buffers one block per disk, so
// the fan-in is (M/B)/D − 1 instead of the single-disk M/B − 1 — the
// classic capacity cost of block striping that Vitter's forecasting
// techniques exist to reduce.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/striped_volume.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"
#include "seq/loser_tree.h"

namespace paladin::seq {

struct StripedSortResult {
  u64 records = 0;
  u64 initial_runs = 0;
  u64 merge_passes = 0;
};

/// Sorts the striped logical file `input` on `volume` into the striped
/// logical file `output`.  `memory_records` is the in-core budget (run
/// length and merge fan-in derive from it, as in the single-disk sorts).
template <Record T, typename Less = std::less<T>>
StripedSortResult striped_sort(pdm::StripedVolume& volume,
                               const std::string& input,
                               const std::string& output, u64 memory_records,
                               Meter& meter, Less less = {}) {
  PALADIN_EXPECTS(input != output);
  PALADIN_EXPECTS(memory_records > 0);
  const u64 d = volume.disk_count();
  StripedSortResult result;

  struct Run {
    std::string name;
    u64 records = 0;
  };

  // ---- Run formation: stream the striped input, write each run striped.
  std::vector<Run> runs;
  {
    pdm::StripedReader<T> reader(volume, input);
    result.records = reader.size_records();
    std::vector<T> buffer(memory_records);
    u64 run_index = 0;
    for (;;) {
      // Fill the workspace block-at-a-time from the stripes' buffers.
      u64 got = 0;
      while (got < memory_records) {
        const std::span<const T> chunk = reader.buffered();
        if (chunk.empty()) break;
        const u64 take = std::min<u64>(chunk.size(), memory_records - got);
        std::memcpy(buffer.data() + got, chunk.data(), take * sizeof(T));
        reader.advance_n(take);
        got += take;
      }
      if (got == 0) break;
      metered_sort(std::span<T>(buffer.data(), got), meter, less);
      Run run{output + ".srun" + std::to_string(run_index++), got};
      pdm::StripedWriter<T> w(volume, run.name);
      w.push_span(std::span<const T>(buffer.data(), got));
      w.flush();
      runs.push_back(std::move(run));
    }
  }
  result.initial_runs = runs.size();

  if (runs.empty()) {
    pdm::StripedWriter<T> w(volume, output);
    w.flush();
    return result;
  }

  // A striped cursor buffers one block per disk.
  const u64 rpb = volume.disk(0).params().records_per_block(sizeof(T));
  const u64 blocks_in_memory = memory_records / rpb;
  const u64 fan_in = std::max<u64>(
      2, blocks_in_memory / d > 0 ? blocks_in_memory / d - 1 : 1);

  // ---- Merge passes: groups of fan_in striped runs → one striped run;
  // the final pass streams into the striped output. ----------------------
  u64 next_run_index = runs.size();
  while (true) {
    const bool final_pass = runs.size() <= fan_in;
    std::vector<Run> next_runs;

    for (u64 first = 0; first < runs.size(); first += fan_in) {
      const u64 count = std::min<u64>(fan_in, runs.size() - first);
      std::vector<pdm::StripedReader<T>> readers;
      readers.reserve(count);
      for (u64 i = 0; i < count; ++i) {
        readers.emplace_back(volume, runs[first + i].name);
      }
      std::vector<pdm::StripedReader<T>*> sources;
      for (auto& r : readers) sources.push_back(&r);
      LoserTree<T, pdm::StripedReader<T>, Less> tree(std::move(sources), less,
                                                     &meter);

      const std::string out_name =
          final_pass && runs.size() <= fan_in
              ? output
              : output + ".srun" + std::to_string(next_run_index++);
      pdm::StripedWriter<T> writer(volume, out_name);
      const u64 merged = tree.pop_run_into(writer);
      writer.flush();
      meter.on_moves(merged);
      if (!final_pass) next_runs.push_back(Run{out_name, merged});

      for (u64 i = 0; i < count; ++i) volume.remove(runs[first + i].name);
    }
    ++result.merge_passes;
    if (final_pass) break;
    runs = std::move(next_runs);
  }
  return result;
}

}  // namespace paladin::seq
