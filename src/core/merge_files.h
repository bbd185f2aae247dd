// Step 5, and the spill merge of every backend: merge sorted pieces (file,
// offset, length) into one output file.  Single-pass (loser tree over one
// cursor per piece) when the memory budget admits the fan-in — always true
// for the p ≤ m−1 clusters the paper targets — otherwise the pieces are
// concatenated as runs and merged with the balanced multi-pass machinery.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"

namespace paladin::core {

/// Absorb merge for the adaptive re-split path (hetero::AdaptiveConfig):
/// when a node's re-split slice fits the sequential memory budget, load
/// the sorted pieces and merge them with ⌈log2 k⌉ in-memory pairwise levels
/// — one read and one write pass of block I/O instead of the concatenate +
/// multi-pass external merge below, with the same log-factor comparison
/// bill a loser tree would charge.  Callers gate on the budget; the only
/// caller is ext_psrs once adaptation applied, so static and drift-free
/// runs keep their exact external-merge cost funnel.
template <Record T, typename Less = std::less<T>>
u64 merge_sorted_pieces_in_memory(pdm::Disk& disk,
                                  const std::vector<seq::MergePiece>& pieces,
                                  const std::string& output, Meter& meter,
                                  Less less = {}) {
  PALADIN_EXPECTS(!pieces.empty());
  std::vector<std::vector<T>> runs;
  runs.reserve(pieces.size());
  u64 total = 0;
  for (const seq::MergePiece& piece : pieces) {
    pdm::BlockFile f = disk.open(piece.file);
    pdm::BlockReader<T> reader(f);
    reader.seek_record(piece.offset);
    std::vector<T> run(piece.len);
    for (T& v : run) {
      const bool ok = reader.next(v);
      PALADIN_ASSERT(ok);
    }
    total += run.size();
    runs.push_back(std::move(run));
  }
  meter.on_moves(total);  // the load pass

  while (runs.size() > 1) {
    std::vector<std::vector<T>> next;
    next.reserve((runs.size() + 1) / 2);
    u64 level_records = 0;
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<T> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                 runs[i + 1].end(), std::back_inserter(merged), less);
      level_records += merged.size();
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 != 0) next.push_back(std::move(runs.back()));
    meter.on_compares(level_records);
    meter.on_moves(level_records);
    runs = std::move(next);
  }

  pdm::BlockFile out_file = disk.create(output);
  pdm::BlockWriter<T> writer(out_file);
  writer.push_span(std::span<const T>(runs.front()));
  writer.flush();
  return total;
}

struct MergeOutcome {
  u64 merged = 0;  ///< records written to the output
  /// Passes over the data: 0 for no pieces, 1 for the single loser-tree
  /// pass, and in the fallback the concatenation plus the balanced passes.
  u64 passes = 0;
};

/// The spill merge of every backend: merges the sorted `pieces` into
/// `output`.  One loser-tree pass when the memory budget holds a block
/// buffer per piece (M/B − 1 of them; always true for the p ≤ m−1
/// clusters the paper targets), otherwise the pieces are concatenated as
/// runs and merged with the balanced multi-pass machinery.
template <Record T, typename Less = std::less<T>>
MergeOutcome merge_sorted_pieces(pdm::Disk& disk,
                                 const std::vector<seq::MergePiece>& pieces,
                                 const std::string& output,
                                 u64 memory_records, Meter& meter,
                                 Less less = {}) {
  MergeOutcome outcome;
  if (pieces.size() <= seq::max_fan_in<T>(disk, memory_records)) {
    pdm::BlockFile out_file = disk.create(output);
    pdm::BlockWriter<T> writer(out_file);
    const seq::MergeResult r =
        seq::merge_pieces<T, Less>(disk, pieces, writer, meter, less);
    writer.flush();
    if (!pieces.empty()) {
      meter.on_moves(r.merged);
      if (r.tail_compares > 0) meter.on_compares(r.tail_compares);
      outcome = {r.merged, 1};
    }
    return outcome;
  }

  // Degenerate memory budget: concatenate into a runs file and reuse the
  // balanced multi-pass merge.  The copy is block I/O only; it charges no
  // per-record moves.
  const std::string runs_name = output + ".cat";
  seq::RunLayout layout;
  {
    pdm::BlockFile cat_file = disk.create(runs_name);
    pdm::BlockWriter<T> writer(cat_file);
    for (const seq::MergePiece& piece : pieces) {
      pdm::BlockFile f = disk.open(piece.file);
      pdm::BlockReader<T> reader(f);
      reader.seek_record(piece.offset);
      const u64 len = pdm::copy_records(reader, writer, piece.len);
      PALADIN_ASSERT(len == piece.len);
      layout.run_lengths.push_back(len);
      layout.total_records += len;
    }
    writer.flush();
  }
  outcome.merged = layout.total_records;
  outcome.passes =
      1 + seq::merge_runs_balanced<T, Less>(disk, runs_name, layout, output,
                                            memory_records, meter, less);
  disk.remove(runs_name);
  return outcome;
}

}  // namespace paladin::core
