// K-way merging of sorted file ranges.  merge_pieces() is the one file
// merge every caller shares: a serial loser tree over one block reader per
// piece.  On top of it, balanced multi-pass merging of sorted runs keeps
// the fan-in within the memory budget (one block buffer per input run +
// one output block must fit in M), so the pass count matches the
// PDM-optimal ⌈log_m(runs)⌉.  This is both the baseline external sort's
// merge phase and, through core/merge_files.h, the final merge (Step 5)
// of the parallel algorithm.
#pragma once

#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/loser_tree.h"
#include "seq/run_formation.h"

namespace paladin::seq {

/// One sorted merge input: `len` records of `file` starting at record
/// `offset`.
struct MergePiece {
  std::string file;
  u64 offset = 0;
  u64 len = 0;
};

struct MergeResult {
  u64 merged = 0;
  /// Compare count not yet delivered to the meter: the caller emits it
  /// (after its on_moves) exactly where the serial tree's destructor
  /// flush would land.
  u64 tail_compares = 0;
};

/// Merges `pieces` (each sorted) into `out`.  Delivers moves/tail-compares
/// through the returned MergeResult so the caller can keep its historical
/// meter order: push charges, then on_moves(merged), then
/// on_compares(tail_compares) — identical to the inlined tree it replaces.
/// With `release_behind`, each piece's reader frees the piece behind it
/// (pdm::BlockReader::release_behind), which consumes the pieces.
template <Record T, typename Less = std::less<T>>
MergeResult merge_pieces(pdm::Disk& disk, const std::vector<MergePiece>& pieces,
                         pdm::BlockWriter<T>& out, Meter& meter, Less less = {},
                         bool release_behind = false) {
  MergeResult result;
  if (pieces.empty()) return result;

  std::vector<pdm::BlockFile> files;
  std::vector<pdm::BlockReader<T>> readers;
  std::vector<RunCursor<T>> cursors;
  files.reserve(pieces.size());
  readers.reserve(pieces.size());
  cursors.reserve(pieces.size());
  for (const MergePiece& p : pieces) {
    files.push_back(disk.open(p.file));
    readers.emplace_back(files.back());
    readers.back().seek_record(p.offset);
    if (release_behind) readers.back().release_behind();
    cursors.emplace_back(&readers.back(), p.len);
  }
  std::vector<RunCursor<T>*> sources;
  sources.reserve(cursors.size());
  for (auto& c : cursors) sources.push_back(&c);
  LoserTree<T, RunCursor<T>, Less> tree(std::move(sources), less, &meter);
  result.merged = tree.pop_run_into(out);
  result.tail_compares = tree.take_unreported();
  return result;
}

/// Largest merge fan-in the memory budget allows: one block per input run
/// plus one output block.  At least 2.
template <Record T>
u64 max_fan_in(const pdm::Disk& disk, u64 memory_records) {
  const u64 rpb = disk.params().records_per_block(sizeof(T));
  const u64 blocks_in_memory = memory_records / rpb;
  return std::max<u64>(2, blocks_in_memory == 0 ? 2 : blocks_in_memory - 1);
}

/// Merges `count` runs laid out back-to-back in `runs_file` starting at
/// run index `first` of `layout`, appending one combined run to `out`.
/// Returns the merged length.
template <Record T, typename Less = std::less<T>>
u64 merge_run_group(pdm::Disk& disk, const std::string& runs_file,
                    const RunLayout& layout, u64 first, u64 count,
                    pdm::BlockWriter<T>& out, Meter& meter, Less less = {}) {
  PALADIN_EXPECTS(first + count <= layout.run_count());
  // Each run becomes one merge piece with its own reader (one block buffer
  // each) so the merge streams all group members concurrently.
  u64 offset = 0;
  for (u64 i = 0; i < first; ++i) offset += layout.run_lengths[i];

  std::vector<MergePiece> pieces;
  pieces.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    pieces.push_back({runs_file, offset, layout.run_lengths[first + i]});
    offset += layout.run_lengths[first + i];
  }

  const MergeResult r = merge_pieces<T, Less>(disk, pieces, out, meter, less);
  meter.on_moves(r.merged);
  if (r.tail_compares > 0) meter.on_compares(r.tail_compares);
  return r.merged;
}

/// Repeatedly merges groups of up to `fan_in` runs until a single run
/// remains, then writes it as `output`.  Alternates between two scratch
/// files.  Returns the number of merge passes performed (0 when the input
/// already is a single run).
template <Record T, typename Less = std::less<T>>
u64 merge_runs_balanced(pdm::Disk& disk, const std::string& runs_file,
                        RunLayout layout, const std::string& output,
                        u64 memory_records, Meter& meter, Less less = {}) {
  PALADIN_EXPECTS(runs_file != output);
  const u64 fan_in = max_fan_in<T>(disk, memory_records);

  std::string current = runs_file;
  const std::string scratch_a = output + ".mrg0";
  const std::string scratch_b = output + ".mrg1";
  u64 passes = 0;

  while (layout.run_count() > 1) {
    // The pass producing a single run writes straight to `output`.
    const bool final_pass = ceil_div(layout.run_count(), fan_in) == 1;
    const std::string next =
        final_pass ? output
                   : (current == scratch_a ? scratch_b : scratch_a);
    pdm::BlockFile out_file = disk.create(next);
    pdm::BlockWriter<T> out(out_file);

    RunLayout next_layout;
    for (u64 first = 0; first < layout.run_count(); first += fan_in) {
      const u64 count = std::min(fan_in, layout.run_count() - first);
      const u64 merged = merge_run_group<T, Less>(disk, current, layout, first,
                                                  count, out, meter, less);
      next_layout.run_lengths.push_back(merged);
      next_layout.total_records += merged;
    }
    out.flush();
    if (current != runs_file) disk.remove(current);
    current = next;
    layout = std::move(next_layout);
    ++passes;
  }

  // Only reached without any merge pass (input was 0 or 1 run): copy the
  // runs file to the output name.  The copy is charged — the caller asked
  // for a distinct output file and the bound accounts for it as a pass.
  if (current != output) {
    pdm::BlockFile src = disk.open(current);
    pdm::BlockReader<T> reader(src);
    pdm::BlockFile dst = disk.create(output);
    pdm::BlockWriter<T> writer(dst);
    const u64 copied = pdm::copy_records(reader, writer);
    writer.flush();
    meter.on_moves(copied);  // the copy moves every record once
  }
  return passes;
}

}  // namespace paladin::seq
