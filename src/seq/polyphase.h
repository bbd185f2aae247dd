// Polyphase merge sort (Knuth TAOCP vol. 3, §5.4.2) — the sequential
// external sort the paper uses for Step 1 and reuses for Step 5.  With F
// files it achieves an (F−1)-way merge without a separate run
// redistribution after each pass: initial runs are distributed according to
// a generalised Fibonacci "perfect distribution" (padded with dummy runs),
// and each phase merges runs until one file empties, which then becomes the
// next phase's output.  The paper runs it with 15 intermediate files.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/types.h"
#include "obs/trace.h"
#include "pdm/typed_io.h"
#include "seq/cursors.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/run_formation.h"

namespace paladin::seq {

struct PolyphaseConfig {
  /// In-core workspace, in records (PDM's M).
  u64 memory_records = u64{1} << 20;
  /// Total number of files, including the output file of each phase
  /// (paper: 15 intermediate files, i.e. a 14-way merge).
  u32 tape_count = 15;
  RunFormation run_formation = RunFormation::kLoadSortStore;
};

struct PolyphaseResult {
  u64 records = 0;
  u64 initial_runs = 0;
  u64 dummy_runs = 0;
  u64 merge_phases = 0;
};

namespace detail {

/// Smallest perfect polyphase distribution over `k` input tapes whose total
/// is >= `runs` (generalised Fibonacci numbers of order k).  Returns the
/// per-tape run targets.
inline std::vector<u64> perfect_distribution(u64 runs, u32 k) {
  PALADIN_EXPECTS(k >= 2);
  PALADIN_EXPECTS(runs >= 1);
  std::vector<u64> a(k, 0);
  a[0] = 1;
  u64 total = 1;
  while (total < runs) {
    const u64 a0 = a[0];
    for (u32 j = 0; j + 1 < k; ++j) a[j] = a[j + 1] + a0;
    a[k - 1] = a0;
    total = 0;
    for (u64 v : a) total += v;
  }
  return a;
}

/// One polyphase tape: a file holding runs back to back, plus the queue of
/// run lengths and a count of leading dummy (empty) runs.
template <Record T>
class Tape {
 public:
  Tape(pdm::Disk& disk, std::string name)
      : disk_(&disk), name_(std::move(name)) {}

  u64 runs_pending() const { return run_lengths_.size() + dummies_; }
  u64 dummies() const { return dummies_; }
  void add_dummies(u64 n) { dummies_ += n; }

  void begin_write() {
    reader_.reset();
    rfile_.reset();
    wfile_.emplace(disk_->create(name_));
    writer_.emplace(*wfile_);
    // Dummies may already be assigned (distribution step); real runs not.
    PALADIN_ASSERT(run_lengths_.empty());
  }

  pdm::BlockWriter<T>& writer() { return *writer_; }

  void append_run_length(u64 len) { run_lengths_.push_back(len); }

  void end_write() {
    if (writer_) writer_->flush();
    writer_.reset();
    wfile_.reset();
  }

  /// Consumes the front run: a dummy yields an empty cursor, a real run a
  /// cursor over its records.
  RunCursor<T> take_front_run() {
    if (dummies_ > 0) {
      --dummies_;
      return RunCursor<T>();
    }
    PALADIN_EXPECTS(!run_lengths_.empty());
    ensure_reader();
    const u64 len = run_lengths_.front();
    run_lengths_.pop_front();
    return RunCursor<T>(&*reader_, len);
  }

 private:
  void ensure_reader() {
    if (!reader_) {
      rfile_.emplace(disk_->open(name_));
      reader_.emplace(*rfile_);
    }
  }

  pdm::Disk* disk_;
  std::string name_;
  std::deque<u64> run_lengths_;
  u64 dummies_ = 0;
  std::optional<pdm::BlockFile> rfile_;
  std::optional<pdm::BlockReader<T>> reader_;
  std::optional<pdm::BlockFile> wfile_;
  std::optional<pdm::BlockWriter<T>> writer_;
};

}  // namespace detail

/// Sorts `input` into `output` (both on `disk`).  All comparisons and
/// record moves are charged to `meter`; all I/O is charged through the
/// disk.  Scratch files are named `output + ".tape<i>"` / `".runs"` and
/// removed on success.
template <Record T, typename Less = std::less<T>>
PolyphaseResult polyphase_sort(pdm::Disk& disk, const std::string& input,
                               const std::string& output,
                               const PolyphaseConfig& config, Meter& meter,
                               Less less = {},
                               obs::Tracer* tracer = nullptr) {
  PALADIN_EXPECTS(input != output);
  PALADIN_EXPECTS(config.tape_count >= 3);
  PALADIN_EXPECTS_MSG(
      config.tape_count <= max_fan_in<T>(disk, config.memory_records) + 1,
      "memory budget too small for the requested tape count");

  PolyphaseResult result;

  // ---- Run formation ------------------------------------------------
  const std::string runs_name = output + ".runs";
  RunLayout layout;
  {
    obs::ScopedSpan span(tracer, "seq.run_formation", "seq");
    pdm::BlockFile in_file = disk.open(input);
    pdm::BlockReader<T> reader(in_file);
    pdm::BlockFile runs_file = disk.create(runs_name);
    pdm::BlockWriter<T> writer(runs_file);
    layout = form_runs<T, Less>(config.run_formation, reader, writer,
                                config.memory_records, meter, less);
    span.end();
    span.arg("runs", layout.run_count());
    span.arg("records", layout.total_records);
  }
  result.records = layout.total_records;
  result.initial_runs = layout.run_count();

  if (layout.run_count() <= 1) {
    // Zero or one run: the runs file already is the sorted output.
    pdm::BlockFile src = disk.open(runs_name);
    pdm::BlockReader<T> reader(src);
    pdm::BlockFile dst = disk.create(output);
    pdm::BlockWriter<T> writer(dst);
    meter.on_moves(pdm::copy_records(reader, writer));
    writer.flush();
    disk.remove(runs_name);
    return result;
  }

  // ---- Distribution -------------------------------------------------
  const u32 k = config.tape_count - 1;  // input tapes per phase
  const std::vector<u64> target =
      detail::perfect_distribution(layout.run_count(), k);

  std::vector<std::unique_ptr<detail::Tape<T>>> tapes;
  tapes.reserve(config.tape_count);
  for (u32 i = 0; i < config.tape_count; ++i) {
    tapes.push_back(std::make_unique<detail::Tape<T>>(
        disk, output + ".tape" + std::to_string(i)));
  }

  // Dummies pad the deficit; they sit at the front of tapes so they are
  // consumed by the earliest (cheapest) phases.  Spread them across tapes,
  // never exceeding a tape's target.
  {
    u64 total_target = 0;
    for (u64 v : target) total_target += v;
    u64 deficit = total_target - layout.run_count();
    result.dummy_runs = deficit;
    for (u32 j = 0; j < k && deficit > 0; ++j) {
      const u64 d = std::min(deficit, target[j]);
      tapes[j]->add_dummies(d);
      deficit -= d;
    }
    PALADIN_ASSERT(deficit == 0);
  }

  // Stream the runs file once, copying real runs onto their tapes.
  {
    obs::ScopedSpan span(tracer, "seq.polyphase.distribute", "seq");
    pdm::BlockFile runs_file = disk.open(runs_name);
    pdm::BlockReader<T> reader(runs_file);
    u64 next_run = 0;
    for (u32 j = 0; j < k; ++j) {
      detail::Tape<T>& tape = *tapes[j];
      const u64 real = target[j] - tape.dummies();
      tape.begin_write();
      for (u64 r = 0; r < real; ++r) {
        PALADIN_ASSERT(next_run < layout.run_count());
        const u64 len = layout.run_lengths[next_run++];
        const u64 copied = pdm::copy_records(reader, tape.writer(), len);
        PALADIN_ASSERT(copied == len);
        tape.append_run_length(len);
      }
      tape.end_write();
    }
    PALADIN_ASSERT(next_run == layout.run_count());
  }
  disk.remove(runs_name);
  tapes[k]->begin_write();  // phase-0 output tape starts empty
  tapes[k]->end_write();

  // ---- Merge phases --------------------------------------------------
  u32 out_index = k;
  for (;;) {
    obs::ScopedSpan phase_span(
        tracer,
        "seq.polyphase.phase" + std::to_string(result.merge_phases), "seq");
    // Input tapes this phase: all but the output tape.
    std::vector<u32> inputs;
    for (u32 j = 0; j < config.tape_count; ++j) {
      if (j != out_index) inputs.push_back(j);
    }

    u64 steps = ~u64{0};
    bool final_phase = true;
    for (u32 j : inputs) {
      steps = std::min(steps, tapes[j]->runs_pending());
      if (tapes[j]->runs_pending() != 1) final_phase = false;
    }
    PALADIN_ASSERT(steps >= 1);

    detail::Tape<T>& out_tape = *tapes[out_index];
    std::optional<pdm::BlockFile> final_file;
    std::optional<pdm::BlockWriter<T>> final_writer;
    if (final_phase) {
      final_file.emplace(disk.create(output));
      final_writer.emplace(*final_file);
    } else {
      out_tape.begin_write();
    }

    for (u64 s = 0; s < steps; ++s) {
      std::vector<RunCursor<T>> cursors;
      cursors.reserve(inputs.size());
      for (u32 j : inputs) cursors.push_back(tapes[j]->take_front_run());

      std::vector<RunCursor<T>*> sources;
      for (auto& c : cursors) {
        if (c.remaining() > 0) sources.push_back(&c);
      }
      if (sources.empty()) {
        // All contributors were dummies: the output gains a dummy run.
        PALADIN_ASSERT(!final_phase);
        out_tape.add_dummies(1);
        continue;
      }
      LoserTree<T, RunCursor<T>, Less> tree(std::move(sources), less, &meter);
      pdm::BlockWriter<T>& sink =
          final_phase ? *final_writer : out_tape.writer();
      const u64 merged = tree.pop_run_into(sink);
      meter.on_moves(merged);
      if (!final_phase) out_tape.append_run_length(merged);
    }
    ++result.merge_phases;
    phase_span.arg("steps", steps);
    phase_span.arg("final", final_phase ? 1 : 0);

    if (final_phase) {
      final_writer->flush();
      break;
    }
    out_tape.end_write();

    // The tape that emptied (the one whose pending count equalled `steps`)
    // becomes the next output.  With a perfect distribution exactly the
    // minimal tape empties; pick the first empty one.
    u32 emptied = config.tape_count;
    for (u32 j : inputs) {
      if (tapes[j]->runs_pending() == 0) {
        emptied = j;
        break;
      }
    }
    PALADIN_ASSERT(emptied < config.tape_count);
    out_index = emptied;
  }

  for (u32 i = 0; i < config.tape_count; ++i) {
    const std::string name = output + ".tape" + std::to_string(i);
    if (disk.exists(name)) disk.remove(name);
  }
  return result;
}

}  // namespace paladin::seq
