// Facade over the sequential external sorts.  The parallel algorithm's
// Step 1 and Step 5, the Table 2 bench and the calibration protocol all go
// through this entry point, selecting a strategy:
//
//  * kPolyphase     — polyphase merge sort (the paper's choice);
//  * kBalancedKWay  — classic balanced multi-pass k-way merge (baseline);
//  * in-memory fast path when the data fits in M.
#pragma once

#include <string>

#include "base/meter.h"
#include "base/types.h"
#include "obs/trace.h"
#include "pdm/pdm_math.h"
#include "pdm/typed_io.h"
#include "seq/kway_merge.h"
#include "seq/polyphase.h"
#include "seq/run_formation.h"

namespace paladin::seq {

enum class SortStrategy {
  kPolyphase,
  kBalancedKWay,
};

inline const char* to_string(SortStrategy s) {
  switch (s) {
    case SortStrategy::kPolyphase: return "polyphase";
    case SortStrategy::kBalancedKWay: return "balanced-kway";
  }
  PALADIN_UNREACHABLE();
}

struct ExternalSortConfig {
  u64 memory_records = u64{1} << 20;
  SortStrategy strategy = SortStrategy::kPolyphase;
  /// Files used by polyphase (paper: 15).  Clamped down automatically when
  /// the memory budget cannot buffer one block per tape.
  u32 tape_count = 15;
  RunFormation run_formation = RunFormation::kLoadSortStore;
  /// When true, inputs that fit in memory are sorted in one load.
  bool allow_in_memory = true;
  /// In-node merge engine (seq/parallel_merge.h): threads == 1 forces the
  /// serial tree, 0 auto-sizes.  Output and accounting are bit-identical
  /// for every setting; only wall-clock changes.
  MergeTuning merge;
};

struct ExternalSortResult {
  u64 records = 0;
  u64 initial_runs = 0;
  u64 merge_passes = 0;  ///< balanced passes, or polyphase phases
  bool sorted_in_memory = false;
};

template <Record T, typename Less = std::less<T>>
ExternalSortResult external_sort(pdm::Disk& disk, const std::string& input,
                                 const std::string& output,
                                 const ExternalSortConfig& config, Meter& meter,
                                 Less less = {},
                                 obs::Tracer* tracer = nullptr) {
  PALADIN_EXPECTS(input != output);
  ExternalSortResult result;
  const u64 records = disk.file_records<T>(input);
  result.records = records;

  if (config.allow_in_memory && records <= config.memory_records) {
    obs::ScopedSpan span(tracer, "seq.in_memory_sort", "seq");
    std::vector<T> data = pdm::read_file<T>(disk, input);
    metered_sort(std::span<T>(data), meter, less);
    pdm::write_file<T>(disk, output, std::span<const T>(data));
    result.initial_runs = records > 0 ? 1 : 0;
    result.sorted_in_memory = true;
    span.arg("records", records);
    return result;
  }

  switch (config.strategy) {
    case SortStrategy::kPolyphase: {
      PolyphaseConfig pc;
      pc.memory_records = config.memory_records;
      // One block buffer per tape must fit in M; never below the 3 tapes
      // polyphase needs.
      const u32 affordable = static_cast<u32>(std::min<u64>(
          config.tape_count, max_fan_in<T>(disk, config.memory_records) + 1));
      pc.tape_count = std::max<u32>(3, affordable);
      pc.run_formation = config.run_formation;
      const PolyphaseResult pr =
          polyphase_sort<T, Less>(disk, input, output, pc, meter, less,
                                  tracer);
      result.initial_runs = pr.initial_runs;
      result.merge_passes = pr.merge_phases;
      return result;
    }
    case SortStrategy::kBalancedKWay: {
      const std::string runs_name = output + ".runs";
      RunLayout layout;
      {
        pdm::BlockFile in_file = disk.open(input);
        pdm::BlockReader<T> reader(in_file);
        pdm::BlockFile runs_file = disk.create(runs_name);
        pdm::BlockWriter<T> writer(runs_file);
        layout = form_runs<T, Less>(config.run_formation, reader, writer,
                                    config.memory_records, meter, less);
      }
      result.initial_runs = layout.run_count();
      result.merge_passes = merge_runs_balanced<T, Less>(
          disk, runs_name, layout, output, config.memory_records, meter, less,
          config.merge);
      disk.remove(runs_name);
      return result;
    }
  }
  PALADIN_UNREACHABLE();
}

}  // namespace paladin::seq
