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
// charged separately to the cost sink (DESIGN.md §7).
//
// Overlapped I/O (DiskParams::io_mode) adds double-buffered read-ahead and
// write-behind through the disk's IoExecutor, so compute overlaps real file
// I/O.  The worker moves bytes only; transfers are charged on this thread
// at the synchronous path's logical points (buffer adoption for reads,
// flush for writes), so IoStats and virtual time do not depend on the mode.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/prefetch.h"
#include "base/types.h"
#include "pdm/disk.h"

namespace paladin::pdm {

/// Largest number of whole record-blocks a single bulk transfer may batch.
/// Bounds the staging copy of overlapped writes; 64 blocks of the default
/// 32 KiB keeps one transfer at 2 MiB.
inline constexpr u64 kMaxBulkBlocks = 64;

/// Sequential block-buffered writer of records of type T.
///
/// Buffers up to one block of records and issues whole-block write_at calls
/// (write-behind through the disk's IoExecutor when overlapped I/O is on).
/// Call flush() (or let the destructor do it) to push the final partial
/// block and wait out any in-flight writes.  The file must not be accessed
/// through other handles while a writer is attached.
template <Record T>
class BlockWriter {
 public:
  /// If `append` is true, starts at the current end of file.
  explicit BlockWriter(BlockFile& file, bool append = false)
      : file_(&file),
        records_per_block_(file.disk().params().records_per_block(sizeof(T))),
        cursor_bytes_(append ? file.size_bytes() : 0),
        exec_(file.disk().executor()) {
    buffer_.reserve(records_per_block_);
  }

  BlockWriter(BlockWriter&&) = default;
  BlockWriter& operator=(BlockWriter&&) = default;

  ~BlockWriter() {
    // Core Guidelines E.16: destructors must not throw.  Flush eagerly in
    // normal operation; the destructor flush is a best-effort backstop —
    // if the device fails here (e.g. mid-unwind after an I/O error) the
    // buffered tail is dropped rather than terminating the program.
    if (file_ != nullptr && (!buffer_.empty() || last_ticket_ != 0)) {
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
    if (buffer_.size() == records_per_block_) spill();
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
      if (buffer_.size() == records_per_block_) spill();
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
  /// transfer, as in PDM) and, under overlapped I/O, waits until every
  /// queued write has reached the file — after flush() returns the file
  /// contents are complete and readable through other handles.
  void flush() {
    spill();
    if (exec_ != nullptr && last_ticket_ != 0) {
      exec_->wait(last_ticket_);
      last_ticket_ = 0;
    }
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

  /// Writes the staging buffer at the cursor (without the completion
  /// barrier flush() adds).
  void spill() {
    if (buffer_.empty()) return;
    const u64 bytes = buffer_.size() * sizeof(T);
    if (exec_ != nullptr) {
      // Charge at the synchronous path's logical point, then hand the
      // bytes to the worker.  The job owns the buffer, so the writer may
      // move or die while the write is in flight.
      file_->disk().account(ceil_div(bytes, block_bytes()), bytes,
                            /*is_write=*/true);
      auto data = std::make_shared<std::vector<T>>(std::move(buffer_));
      buffer_ = {};
      buffer_.reserve(records_per_block_);
      FileHandle* h = file_->raw_handle();
      const u64 off = cursor_bytes_;
      last_ticket_ = exec_->submit([h, off, data] {
        h->write_at(off, std::span<const u8>(
                             reinterpret_cast<const u8*>(data->data()),
                             data->size() * sizeof(T)));
      });
    } else {
      file_->write_at(cursor_bytes_,
                      std::span<const u8>(
                          reinterpret_cast<const u8*>(buffer_.data()),
                          bytes));
      buffer_.clear();
    }
    cursor_bytes_ += bytes;
  }

  /// Writes whole record-blocks straight from the caller's span.
  void write_direct(std::span<const T> records) {
    const u64 bytes = records.size() * sizeof(T);
    if (exec_ != nullptr) {
      file_->disk().account(ceil_div(bytes, block_bytes()), bytes,
                            /*is_write=*/true);
      auto data =
          std::make_shared<std::vector<T>>(records.begin(), records.end());
      FileHandle* h = file_->raw_handle();
      const u64 off = cursor_bytes_;
      last_ticket_ = exec_->submit([h, off, data] {
        h->write_at(off, std::span<const u8>(
                             reinterpret_cast<const u8*>(data->data()),
                             data->size() * sizeof(T)));
      });
    } else {
      file_->write_at(cursor_bytes_,
                      std::span<const u8>(
                          reinterpret_cast<const u8*>(records.data()), bytes));
    }
    cursor_bytes_ += bytes;
  }

  BlockFile* file_;
  u64 records_per_block_;
  u64 cursor_bytes_ = 0;
  u64 records_written_ = 0;
  IoExecutor* exec_ = nullptr;  ///< nullptr => synchronous transfers
  IoExecutor::Ticket last_ticket_ = 0;
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
        records_per_block_(file.disk().params().records_per_block(sizeof(T))),
        exec_(file.disk().executor()) {
    const u64 bytes = file.size_bytes();
    PALADIN_EXPECTS_MSG(bytes % sizeof(T) == 0,
                        "file does not hold whole records");
    size_records_ = bytes / sizeof(T);
  }

  BlockReader(BlockReader&&) = default;
  BlockReader& operator=(BlockReader&&) = default;

  ~BlockReader() {
    // An in-flight prefetch targets our file handle; it must not outlive
    // the reader (the handle may be closed right after we go).
    if (exec_ != nullptr && prefetch_ != nullptr) {
      try {
        discard_prefetch();
      } catch (...) {
      }
    }
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
    hint_next_block();
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
    if (off + kPrefetchTailRecords < buffer_.size()) [[likely]] {
      return &buffer_[off];
    }
    hint_next_block();
    if (off < buffer_.size()) return &buffer_[off];
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
    hint_next_block();
  }

  /// Repositions to absolute record index `idx` (0-based).  A subsequent
  /// read re-fetches the containing block, modelling a seek.
  void seek_record(u64 idx) {
    PALADIN_EXPECTS(idx <= size_records_);
    next_record_ = idx;
    buffer_.clear();
    buffer_first_ = 0;
    expected_next_ = kNoBlock;
    if (exec_ != nullptr) discard_prefetch();
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
      const bool aligned = next_record_ % records_per_block_ == 0;
      const bool prefetched =
          prefetch_ != nullptr && prefetch_first_ == next_record_;
      if (aligned && left >= records_per_block_ && !prefetched) {
        // Block-aligned tail: read whole record-blocks straight into the
        // caller's buffer, batching where the accounting stays exact.
        const u64 blocks = std::min<u64>(left / records_per_block_,
                                         max_direct_blocks());
        read_direct(std::span<T>(out.data() + n, blocks * records_per_block_));
        n += blocks * records_per_block_;
        continue;
      }
      // Unaligned head, partial tail, or an in-flight prefetch covering
      // this block: go through the block buffer (adopting the prefetch).
      ensure_buffered();
    }
    return n;
  }

 private:
  static constexpr u64 kNoBlock = ~u64{0};
  /// advance/advance_n issue a software prefetch of the read-ahead block's
  /// head once the cursor is this close to the buffer end, so the first
  /// touches after adoption don't stall on a cold line.
  static constexpr u64 kPrefetchTailRecords = 8;

  struct Prefetch {
    std::vector<T> data;
    u64 got_bytes = 0;  ///< written by the worker, read after wait()
  };

  /// Warm the head of the in-flight read-ahead block as the cursor nears
  /// the end of the current one.  The worker may still be filling that
  /// buffer — a prefetch is not a language-level access (base/prefetch.h),
  /// so this is safe; the pointer itself is only written on this thread.
  void hint_next_block() {
    if (prefetch_ != nullptr &&
        buffer_first_ + buffer_.size() - next_record_ <= kPrefetchTailRecords) {
      base::prefetch_read(prefetch_->data.data());
    }
  }

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
    const bool sequential = block_first == expected_next_;
    expected_next_ = block_first + records_per_block_;
    bool adopted = false;
    if (exec_ != nullptr && prefetch_ != nullptr) {
      if (prefetch_first_ == block_first) {
        adopt_prefetch(block_first, count);
        adopted = true;
      } else {
        discard_prefetch();
      }
    }
    if (!adopted) fetch_sync(block_first, count);
    // Keep the read-ahead chain going only while the access pattern is
    // sequential; a seeking reader (the sampling loop) would otherwise
    // stall on useless prefetches.
    if (exec_ != nullptr && (sequential || adopted) &&
        expected_next_ < size_records_) {
      start_prefetch(expected_next_);
    }
  }

  void fetch_sync(u64 block_first, u64 count) {
    buffer_.resize(count);
    const u64 got = file_->read_at(
        block_first * sizeof(T),
        std::span<u8>(reinterpret_cast<u8*>(buffer_.data()),
                      count * sizeof(T)));
    PALADIN_ASSERT(got == count * sizeof(T));
    buffer_first_ = block_first;
  }

  /// Takes ownership of the prefetched block and charges its transfer —
  /// the same logical point, count and bytes as the synchronous fetch.
  void adopt_prefetch(u64 block_first, u64 count) {
    exec_->wait(prefetch_ticket_);
    PALADIN_ASSERT(prefetch_->got_bytes == count * sizeof(T));
    buffer_ = std::move(prefetch_->data);
    buffer_.resize(count);
    buffer_first_ = block_first;
    file_->disk().account(ceil_div(count * sizeof(T), block_bytes()),
                          count * sizeof(T), /*is_write=*/false);
    prefetch_.reset();
  }

  /// Abandons an in-flight prefetch (bytes moved but never charged — the
  /// synchronous path would not have read them either).
  void discard_prefetch() {
    if (prefetch_ == nullptr) return;
    exec_->wait(prefetch_ticket_);
    prefetch_.reset();
  }

  void start_prefetch(u64 block_first) {
    const u64 count =
        std::min(records_per_block_, size_records_ - block_first);
    prefetch_ = std::make_shared<Prefetch>();
    prefetch_->data.resize(count);
    FileHandle* h = file_->raw_handle();
    auto pf = prefetch_;
    const u64 off = block_first * sizeof(T);
    prefetch_ticket_ = exec_->submit([h, off, pf] {
      pf->got_bytes = h->read_at(
          off, std::span<u8>(reinterpret_cast<u8*>(pf->data.data()),
                             pf->data.size() * sizeof(T)));
    });
    prefetch_first_ = block_first;
  }

  /// Reads whole record-blocks at the (block-aligned) cursor straight into
  /// `out`.  Only called with no prefetch in flight for these blocks.
  void read_direct(std::span<T> out) {
    if (exec_ != nullptr) discard_prefetch();
    const u64 bytes = out.size() * sizeof(T);
    const u64 got = file_->read_at(
        next_record_ * sizeof(T),
        std::span<u8>(reinterpret_cast<u8*>(out.data()), bytes));
    PALADIN_ASSERT(got == bytes);
    next_record_ += out.size();
    // The stream is still sequential: the block after the batch is the
    // natural prefetch/fetch successor.
    expected_next_ = next_record_;
  }

  BlockFile* file_;
  u64 records_per_block_;
  u64 size_records_ = 0;
  u64 next_record_ = 0;
  u64 buffer_first_ = 0;
  u64 expected_next_ = kNoBlock;  ///< block that continues the stream
  IoExecutor* exec_ = nullptr;  ///< nullptr => synchronous transfers
  IoExecutor::Ticket prefetch_ticket_ = 0;
  u64 prefetch_first_ = kNoBlock;
  std::shared_ptr<Prefetch> prefetch_;
  std::vector<T> buffer_;
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
