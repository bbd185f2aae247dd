// Run formation: turning an unsorted file into initial sorted runs using at
// most M records of memory.  Two classic strategies:
//
//  * load-sort-store — fill memory, sort, write; runs of exactly M records
//    (except the last).  Simple and cache-friendly.
//  * replacement selection — a selection tree streams records through the
//    M-record workspace; on random input runs average 2M (Knuth 5.4.1),
//    halving the number of runs the merge phases must absorb, and an
//    already-sorted input becomes a single run.
//
// Both write runs back-to-back into one "runs file" and return the run
// lengths, which is the layout the polyphase distribution step consumes.
#pragma once

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/typed_io.h"
#include "seq/counting.h"

namespace paladin::seq {

enum class RunFormation {
  kLoadSortStore,
  kReplacementSelection,
};

inline const char* to_string(RunFormation r) {
  return r == RunFormation::kLoadSortStore ? "load-sort-store"
                                           : "replacement-selection";
}

/// Result of a run-formation pass.
struct RunLayout {
  std::vector<u64> run_lengths;  ///< records per run, in file order
  u64 total_records = 0;

  u64 run_count() const { return run_lengths.size(); }
};

/// Load-sort-store over `input`, writing runs back-to-back into `out`.
template <Record T, typename Less = std::less<T>>
RunLayout form_runs_load_sort(pdm::BlockReader<T>& input,
                              pdm::BlockWriter<T>& out, u64 memory_records,
                              Meter& meter, Less less = {}) {
  PALADIN_EXPECTS(memory_records > 0);
  RunLayout layout;
  std::vector<T> buffer(std::min(memory_records, input.remaining()));
  for (;;) {
    const u64 got = input.read_span(std::span<T>(buffer));
    if (got == 0) break;
    metered_sort(std::span<T>(buffer.data(), got), meter, less);
    out.push_span(std::span<const T>(buffer.data(), got));
    layout.run_lengths.push_back(got);
    layout.total_records += got;
  }
  out.flush();
  return layout;
}

/// Replacement selection over `input`.  The workspace is a binary heap
/// keyed by (run id, record): records smaller than the last one emitted are
/// fenced into the next run.  Comparison counts are charged per heap
/// operation (~log2 M each).
template <Record T, typename Less = std::less<T>>
RunLayout form_runs_replacement_selection(pdm::BlockReader<T>& input,
                                          pdm::BlockWriter<T>& out,
                                          u64 memory_records, Meter& meter,
                                          Less less = {}) {
  PALADIN_EXPECTS(memory_records > 0);

  struct Slot {
    u64 run;
    T value;
  };
  u64 compares = 0;
  auto slot_greater = [&less, &compares](const Slot& a, const Slot& b) {
    // std::priority_queue is a max-heap; invert to pop the minimum
    // (run id first, then key).
    if (a.run != b.run) return a.run > b.run;
    ++compares;
    return less(b.value, a.value);
  };
  std::priority_queue<Slot, std::vector<Slot>, decltype(slot_greater)> heap(
      slot_greater);

  RunLayout layout;
  // Prime the workspace.
  {
    T v;
    for (u64 i = 0; i < memory_records && input.next(v); ++i) {
      heap.push(Slot{0, v});
    }
  }
  if (heap.empty()) {
    out.flush();
    return layout;
  }

  u64 current_run = 0;
  u64 current_len = 0;
  bool have_last = false;
  T last_out{};
  while (!heap.empty()) {
    Slot s = heap.top();
    heap.pop();
    if (s.run != current_run) {
      // The workspace holds only next-run records: seal the current run.
      PALADIN_ASSERT(s.run == current_run + 1);
      layout.run_lengths.push_back(current_len);
      layout.total_records += current_len;
      current_run = s.run;
      current_len = 0;
      have_last = false;
    }
    out.push(s.value);
    ++current_len;
    last_out = s.value;
    have_last = true;
    meter.on_moves(1);

    T v;
    if (input.next(v)) {
      // A record smaller than the last output cannot join this run.
      ++compares;
      const bool fenced = have_last && less(v, last_out);
      heap.push(Slot{fenced ? current_run + 1 : current_run, v});
    }
  }
  layout.run_lengths.push_back(current_len);
  layout.total_records += current_len;
  out.flush();
  meter.on_compares(compares);
  return layout;
}

/// Dispatch on strategy.
template <Record T, typename Less = std::less<T>>
RunLayout form_runs(RunFormation strategy, pdm::BlockReader<T>& input,
                    pdm::BlockWriter<T>& out, u64 memory_records, Meter& meter,
                    Less less = {}) {
  switch (strategy) {
    case RunFormation::kLoadSortStore:
      return form_runs_load_sort(input, out, memory_records, meter, less);
    case RunFormation::kReplacementSelection:
      return form_runs_replacement_selection(input, out, memory_records, meter,
                                             less);
  }
  PALADIN_UNREACHABLE();
}

}  // namespace paladin::seq
