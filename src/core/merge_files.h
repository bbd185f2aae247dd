// Step 5, and the spill merge of every backend: merge sorted pieces (file,
// offset, length) into one output file.  Single-pass (loser tree over one
// cursor per piece) when the memory budget admits the fan-in — always true
// for the p ≤ m−1 clusters the paper targets — or the pieces fit in memory
// together; otherwise the pieces are concatenated as runs and merged with
// the balanced multi-pass machinery.  The single pass frees each piece
// behind its reader, so on an in-memory disk a node does not hold its
// received data twice while it merges.
#pragma once

#include <functional>
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

struct MergeOutcome {
  u64 merged = 0;  ///< records written to the output
  /// Passes over the data: 0 for no pieces, 1 for the single loser-tree
  /// pass, and in the fallback the concatenation plus the balanced passes.
  u64 passes = 0;
};

/// The spill merge of every backend: merges the sorted `pieces` into
/// `output`.  One loser-tree pass when the memory budget holds a block
/// buffer per piece (M/B − 1 of them; always true for the p ≤ m−1
/// clusters the paper targets) or holds the pieces outright; otherwise
/// the pieces are concatenated as runs and merged with the balanced
/// multi-pass machinery.
///
/// The one pass consumes its pieces: each reader releases
/// (pdm::BlockFile::release) the whole blocks of its piece it has passed,
/// so an in-memory disk frees every 1 MiB chunk wholly inside them while
/// the output grows.  Pieces that share a file never free a block their
/// neighbour reads, but no piece may be read again; callers remove them.
/// The release is not a transfer, so IoStats, virtual time and fault
/// draws are those of a merge that frees nothing.  The fallback frees
/// nothing.
template <Record T, typename Less = std::less<T>>
MergeOutcome merge_sorted_pieces(pdm::Disk& disk,
                                 const std::vector<seq::MergePiece>& pieces,
                                 const std::string& output,
                                 u64 memory_records, Meter& meter,
                                 Less less = {}) {
  MergeOutcome outcome;
  u64 records = 0;
  for (const seq::MergePiece& piece : pieces) records += piece.len;
  if (pieces.size() <= seq::max_fan_in<T>(disk, memory_records) ||
      records <= memory_records) {
    pdm::BlockFile out_file = disk.create(output);
    pdm::BlockWriter<T> writer(out_file);
    const seq::MergeResult r =
        seq::merge_pieces<T, Less>(disk, pieces, writer, meter, less,
                                   /*release_behind=*/true);
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
