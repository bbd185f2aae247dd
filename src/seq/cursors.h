// Cursor types feeding the loser tree.  A cursor meets the tree's source
// contract (seq::MergeSource in loser_tree.h: peek, advance_peek, buffered,
// advance_n) over a sorted sequence: in memory (MemCursor), a whole file
// (pdm::BlockReader already matches), or a length-limited segment of a
// file (RunCursor — one run on a polyphase tape, or one merge piece).
#pragma once

#include <span>

#include "base/contracts.h"
#include "base/types.h"
#include "pdm/typed_io.h"

namespace paladin::seq {

/// Cursor over an in-memory span.
template <Record T>
class MemCursor {
 public:
  MemCursor() = default;
  explicit MemCursor(std::span<const T> data) : data_(data) {}

  const T* peek() const {
    return index_ < data_.size() ? &data_[index_] : nullptr;
  }
  void advance() {
    PALADIN_EXPECTS(index_ < data_.size());
    ++index_;
  }

  /// Fused advance()+peek() (see pdm::BlockReader::advance_peek).
  const T* advance_peek() {
    PALADIN_EXPECTS(index_ < data_.size());
    ++index_;
    return index_ < data_.size() ? &data_[index_] : nullptr;
  }

  /// Records available at the cursor (no I/O involved — the whole tail).
  std::span<const T> buffered() const { return data_.subspan(index_); }
  void advance_n(u64 n) {
    PALADIN_EXPECTS(index_ + n <= data_.size());
    index_ += n;
  }

 private:
  std::span<const T> data_;
  std::size_t index_ = 0;
};

/// Cursor over the next `length` records of a block reader — one run on a
/// tape that holds several runs back to back.  Several RunCursors may share
/// one reader sequentially (never concurrently).
template <Record T>
class RunCursor {
 public:
  RunCursor() = default;
  RunCursor(pdm::BlockReader<T>* reader, u64 length)
      : reader_(reader), remaining_(length) {}

  const T* peek() const {
    return remaining_ > 0 ? reader_->peek() : nullptr;
  }
  void advance() {
    PALADIN_EXPECTS(remaining_ > 0);
    reader_->advance();
    --remaining_;
  }

  /// Fused advance()+peek().  At the run boundary the shared reader still
  /// advances past the run's last record (the next RunCursor picks up
  /// there), exactly as the separate advance-then-peek sequence does.
  const T* advance_peek() {
    PALADIN_EXPECTS(remaining_ > 0);
    --remaining_;
    if (remaining_ == 0) {
      reader_->advance();
      return nullptr;
    }
    return reader_->advance_peek();
  }

  u64 remaining() const { return remaining_; }

  /// The reader's buffered tail, clipped to this run's end.
  std::span<const T> buffered() const {
    if (remaining_ == 0) return {};
    const std::span<const T> chunk = reader_->buffered();
    return chunk.first(std::min<u64>(chunk.size(), remaining_));
  }
  void advance_n(u64 n) {
    PALADIN_EXPECTS(n <= remaining_);
    reader_->advance_n(n);
    remaining_ -= n;
  }

 private:
  pdm::BlockReader<T>* reader_ = nullptr;
  u64 remaining_ = 0;
};

}  // namespace paladin::seq
