// Typed, block-buffered access to BlockFiles.  All sorting code reads and
// writes records through these two classes, so every record that crosses
// the RAM/disk boundary does it in block-sized transfers — the invariant
// behind the PDM I/O accounting.
//
// Records move in bulk: push_span/read_span transfer whole record-blocks
// with memcpy/direct transfers, and buffered()/advance_n expose the block
// buffer so the k-way merge can drain winner runs block-at-a-time.  The
// single-record calls (push, next, peek/advance) go through the same block
// buffer, so mixing them with the span calls never changes what is
// charged: a transfer of k record-blocks is k block transfers, each
// charged separately to the cost sink (DESIGN.md §7).  Every transfer
// runs on the calling thread.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "pdm/disk.h"

namespace paladin::pdm {

/// Largest number of whole record-blocks a single bulk transfer may batch;
/// 64 blocks of the default 32 KiB keeps one transfer at 2 MiB.
inline constexpr u64 kMaxBulkBlocks = 64;

/// Sequential block-buffered writer of records of type T.
///
/// Buffers up to one block of records and issues whole-block write_at calls.
/// Call flush() (or let the destructor do it) to push the final partial
/// block.  The file must not be accessed through other handles while a
/// writer is attached.
template <Record T>
class BlockWriter {
 public:
  /// If `append` is true, starts at the current end of file.
  explicit BlockWriter(BlockFile& file, bool append = false)
      : file_(&file),
        records_per_block_(file.disk().params().records_per_block(sizeof(T))),
        cursor_bytes_(append ? file.size_bytes() : 0) {
    buffer_.reserve(records_per_block_);
  }

  BlockWriter(BlockWriter&&) = default;
  BlockWriter& operator=(BlockWriter&&) = default;

  ~BlockWriter() {
    // Core Guidelines E.16: destructors must not throw.  Flush eagerly in
    // normal operation; the destructor flush is a best-effort backstop —
    // if the device fails here (e.g. mid-unwind after an I/O error) the
    // buffered tail is dropped rather than terminating the program.
    if (file_ != nullptr && !buffer_.empty()) {
      try {
        flush();
      } catch (...) {
        // swallow: an explicit flush() would have reported this
      }
    }
  }

  void push(const T& record) {
    buffer_.push_back(record);
    ++records_written_;
    if (buffer_.size() == records_per_block_) flush();
  }

  void push_span(std::span<const T> records) {
    records_written_ += records.size();
    // Top up a partially filled staging buffer to its block boundary.
    if (!buffer_.empty()) {
      const u64 room = records_per_block_ - buffer_.size();
      const u64 take = std::min<u64>(room, records.size());
      buffer_.insert(buffer_.end(), records.begin(),
                     records.begin() + static_cast<std::ptrdiff_t>(take));
      records = records.subspan(take);
      if (buffer_.size() == records_per_block_) flush();
    }
    // Whole record-blocks bypass the staging buffer entirely.
    while (records.size() >= records_per_block_) {
      const u64 blocks = std::min<u64>(records.size() / records_per_block_,
                                       max_direct_blocks());
      const u64 take = blocks * records_per_block_;
      write_direct(records.first(take));
      records = records.subspan(take);
    }
    // Stage the tail.
    buffer_.insert(buffer_.end(), records.begin(), records.end());
  }

  /// Writes buffered records to the file (a partial block costs one block
  /// transfer, as in PDM); afterwards the file is readable through other
  /// handles.
  void flush() {
    if (buffer_.empty()) return;
    write_direct(buffer_);
    buffer_.clear();
  }

  u64 records_written() const { return records_written_; }

 private:
  ByteCount block_bytes() const { return file_->disk().params().block_bytes; }

  /// Multi-block batching is only exact when records tile the block: then
  /// k record-blocks are k*block_bytes and ceil-division charges exactly k
  /// transfers, as k single-block writes would.  Otherwise one at a time.
  u64 max_direct_blocks() const {
    return records_per_block_ * sizeof(T) == block_bytes() ? kMaxBulkBlocks
                                                           : 1;
  }

  /// Writes `records` at the cursor: the staging buffer, or whole
  /// record-blocks straight from the caller's span.
  void write_direct(std::span<const T> records) {
    const u64 bytes = records.size() * sizeof(T);
    file_->write_at(cursor_bytes_,
                    std::span<const u8>(
                        reinterpret_cast<const u8*>(records.data()), bytes));
    cursor_bytes_ += bytes;
  }

  BlockFile* file_;
  u64 records_per_block_;
  u64 cursor_bytes_ = 0;
  u64 records_written_ = 0;
  std::vector<T> buffer_;
};

/// Sequential block-buffered reader of records of type T, with peek() for
/// k-way merging and record-granular seek for the sampling step of the
/// algorithm (the paper's fseek/fread pivot-selection loop).
template <Record T>
class BlockReader {
 public:
  explicit BlockReader(BlockFile& file)
      : file_(&file),
        records_per_block_(file.disk().params().records_per_block(sizeof(T))) {
    const u64 bytes = file.size_bytes();
    PALADIN_EXPECTS_MSG(bytes % sizeof(T) == 0,
                        "file does not hold whole records");
    size_records_ = bytes / sizeof(T);
  }

  u64 size_records() const { return size_records_; }
  u64 position() const { return next_record_; }
  bool done() const { return next_record_ >= size_records_; }
  u64 remaining() const { return size_records_ - next_record_; }

  /// Returns the next record without consuming it, or nullptr at EOF.
  const T* peek() {
    if (done()) return nullptr;
    ensure_buffered();
    return &buffer_[next_record_ - buffer_first_];
  }

  /// Reads the next record into `out`; returns false at EOF.
  bool next(T& out) {
    const T* p = peek();
    if (p == nullptr) return false;
    out = *p;
    ++next_record_;
    return true;
  }

  /// Consumes the next record (peek() must have returned non-null).
  void advance() {
    PALADIN_EXPECTS(!done());
    ensure_buffered();
    ++next_record_;
  }

  /// Fused advance()+peek() for the merge hot loop: consumes the current
  /// record (a preceding peek() must have returned non-null, so the cursor
  /// is inside the buffer) and returns the next, or nullptr at EOF.  One
  /// bounds check on the buffer-interior path; any refill lands at exactly
  /// the point the separate advance-then-peek sequence would refill.
  const T* advance_peek() {
    PALADIN_EXPECTS(next_record_ >= buffer_first_ &&
                    next_record_ < buffer_first_ + buffer_.size());
    ++next_record_;
    const u64 off = next_record_ - buffer_first_;
    if (off < buffer_.size()) [[likely]] return &buffer_[off];
    if (done()) return nullptr;
    ensure_buffered();
    return &buffer_[next_record_ - buffer_first_];
  }

  /// Contiguous records available at the cursor without further transfers,
  /// fetching the containing block first if the cursor is outside the
  /// buffer.  Empty only at EOF.  The span is invalidated by any other
  /// call on the reader except advance_n.
  std::span<const T> buffered() {
    if (done()) return {};
    ensure_buffered();
    const u64 off = next_record_ - buffer_first_;
    return std::span<const T>(buffer_.data() + off, buffer_.size() - off);
  }

  /// Consumes `n` records previously exposed by buffered().
  void advance_n(u64 n) {
    if (n == 0) return;
    PALADIN_EXPECTS(next_record_ >= buffer_first_ &&
                    next_record_ + n <= buffer_first_ + buffer_.size());
    next_record_ += n;
  }

  /// Frees what the reader leaves behind it: from here on, each block
  /// fetch releases (BlockFile::release) the whole blocks from the current
  /// position up to the fetched block.  For a sequential pass only.  The
  /// release starts at the first block boundary at or after the current
  /// position: the block that holds it may also hold the tail of a
  /// neighbouring piece, whose reader fetches that whole block, so it is
  /// left alone, as are the records before it.
  void release_behind() {
    releasing_ = true;
    release_from_ = round_up(next_record_, records_per_block_);
  }

  /// Repositions to absolute record index `idx` (0-based).  A subsequent
  /// read re-fetches the containing block, modelling a seek.
  void seek_record(u64 idx) {
    PALADIN_EXPECTS(idx <= size_records_);
    next_record_ = idx;
    buffer_.clear();
    buffer_first_ = 0;
  }

  /// Bulk read of up to out.size() records; returns records read.
  u64 read_span(std::span<T> out) {
    const u64 want = std::min<u64>(out.size(), remaining());
    u64 n = 0;
    while (n < want) {
      // Drain whatever the block buffer already covers.
      if (!buffer_.empty() && next_record_ >= buffer_first_ &&
          next_record_ < buffer_first_ + buffer_.size()) {
        const u64 off = next_record_ - buffer_first_;
        const u64 take = std::min<u64>(buffer_.size() - off, want - n);
        std::memcpy(out.data() + n, buffer_.data() + off, take * sizeof(T));
        next_record_ += take;
        n += take;
        continue;
      }
      const u64 left = want - n;
      if (next_record_ % records_per_block_ == 0 &&
          left >= records_per_block_) {
        // Block-aligned tail: read whole record-blocks straight into the
        // caller's buffer, batching where the accounting stays exact.
        const u64 blocks = std::min<u64>(left / records_per_block_,
                                         max_direct_blocks());
        read_direct(std::span<T>(out.data() + n, blocks * records_per_block_));
        n += blocks * records_per_block_;
        continue;
      }
      // Unaligned head or partial tail: go through the block buffer.
      ensure_buffered();
    }
    return n;
  }

 private:
  ByteCount block_bytes() const { return file_->disk().params().block_bytes; }

  u64 max_direct_blocks() const {
    return records_per_block_ * sizeof(T) == block_bytes() ? kMaxBulkBlocks
                                                           : 1;
  }

  void ensure_buffered() {
    if (!buffer_.empty() && next_record_ >= buffer_first_ &&
        next_record_ < buffer_first_ + buffer_.size()) {
      return;
    }
    // Fetch the block containing next_record_.
    const u64 block_first =
        (next_record_ / records_per_block_) * records_per_block_;
    const u64 count =
        std::min(records_per_block_, size_records_ - block_first);
    buffer_.resize(count);
    const u64 got = file_->read_at(
        block_first * sizeof(T),
        std::span<u8>(reinterpret_cast<u8*>(buffer_.data()),
                      count * sizeof(T)));
    PALADIN_ASSERT(got == count * sizeof(T));
    buffer_first_ = block_first;
    if (releasing_ && block_first > release_from_) {
      file_->release(release_from_ * sizeof(T),
                     (block_first - release_from_) * sizeof(T));
    }
  }

  /// Reads whole record-blocks at the (block-aligned) cursor straight into
  /// `out`.
  void read_direct(std::span<T> out) {
    const u64 bytes = out.size() * sizeof(T);
    const u64 got = file_->read_at(
        next_record_ * sizeof(T),
        std::span<u8>(reinterpret_cast<u8*>(out.data()), bytes));
    PALADIN_ASSERT(got == bytes);
    next_record_ += out.size();
  }

  BlockFile* file_;
  u64 records_per_block_;
  u64 size_records_ = 0;
  u64 next_record_ = 0;
  u64 buffer_first_ = 0;
  std::vector<T> buffer_;
  bool releasing_ = false;
  u64 release_from_ = 0;
};

/// Streams up to `limit` records from `in` to `out` in block-granular
/// chunks.  Chunking follows the reader's block buffer, so each block is
/// read once and written once.  Returns the number of records copied; the
/// writer is not flushed.
template <Record T>
u64 copy_records(BlockReader<T>& in, BlockWriter<T>& out,
                 u64 limit = ~u64{0}) {
  u64 copied = 0;
  while (copied < limit) {
    const std::span<const T> chunk = in.buffered();
    if (chunk.empty()) break;
    const u64 take = std::min<u64>(chunk.size(), limit - copied);
    out.push_span(chunk.first(take));
    in.advance_n(take);
    copied += take;
  }
  return copied;
}

/// Convenience: write a whole span as a new file.
template <Record T>
void write_file(Disk& disk, const std::string& name, std::span<const T> data) {
  BlockFile f = disk.create(name);
  BlockWriter<T> w(f);
  w.push_span(data);
  w.flush();
}

/// Convenience: read a whole file into memory (tests / verification only —
/// production paths stream).
template <Record T>
std::vector<T> read_file(Disk& disk, const std::string& name) {
  BlockFile f = disk.open(name);
  BlockReader<T> r(f);
  std::vector<T> out(r.size_records());
  const u64 got = r.read_span(std::span<T>(out));
  PALADIN_ENSURES(got == out.size());
  return out;
}

}  // namespace paladin::pdm
