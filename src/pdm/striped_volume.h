// D independent disks per node (PDM's D parameter, Figure 1 of the paper).
// A StripedVolume writes a logical record stream across D disks one block
// at a time, round-robin — PDM's "striped writes" — and reads the blocks
// back from the D disks "independently".  With D disks, a stream of n
// blocks costs only ceil(n/D) parallel block transfers; parallel_time_of()
// exposes that cost (the max over per-disk costs).
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "pdm/disk.h"
#include "pdm/typed_io.h"

namespace paladin::pdm {

class StripedVolume {
 public:
  explicit StripedVolume(std::vector<Disk> disks) : disks_(std::move(disks)) {
    PALADIN_EXPECTS(!disks_.empty());
    for (const Disk& d : disks_) {
      PALADIN_EXPECTS_MSG(
          d.params().block_bytes == disks_.front().params().block_bytes,
          "all stripes must share one block size");
    }
  }

  /// Builds a volume of `d` in-memory disks (tests / benches).
  static StripedVolume in_memory(u64 d, DiskParams params) {
    std::vector<Disk> disks;
    disks.reserve(d);
    for (u64 i = 0; i < d; ++i) disks.push_back(Disk::in_memory(params));
    return StripedVolume(std::move(disks));
  }

  u64 disk_count() const { return disks_.size(); }
  Disk& disk(u64 i) { return disks_.at(i); }

  /// Name of the stripe file of logical file `name` on disk `i`.
  static std::string stripe_name(const std::string& name, u64 i) {
    return name + ".stripe" + std::to_string(i);
  }

  void remove(const std::string& name) {
    for (u64 i = 0; i < disks_.size(); ++i) {
      if (disks_[i].exists(stripe_name(name, i))) {
        disks_[i].remove(stripe_name(name, i));
      }
    }
  }

  /// Aggregate I/O over all stripes.
  IoStats total_stats() const {
    IoStats total;
    for (const Disk& d : disks_) total += d.stats();
    return total;
  }

  /// PDM parallel I/O count: with D disks transferring simultaneously, the
  /// cost of the volume's traffic is the *maximum* per-disk block count.
  u64 parallel_block_ios() const {
    u64 mx = 0;
    for (const Disk& d : disks_) mx = std::max(mx, d.stats().total_block_ios());
    return mx;
  }

  void reset_stats() {
    for (Disk& d : disks_) d.reset_stats();
  }

 private:
  std::vector<Disk> disks_;
};

/// Writes a record stream striped across the volume's disks, one block per
/// disk in round-robin order.  push_span moves whole blocks straight from
/// the caller's span.
template <Record T>
class StripedWriter {
 public:
  StripedVolume& volume() { return *volume_; }

  StripedWriter(StripedVolume& volume, const std::string& name)
      : volume_(&volume),
        records_per_block_(
            volume.disk(0).params().records_per_block(sizeof(T))) {
    const u64 d = volume.disk_count();
    files_.reserve(d);
    for (u64 i = 0; i < d; ++i) {
      files_.push_back(
          volume.disk(i).create(StripedVolume::stripe_name(name, i)));
    }
    cursor_bytes_.assign(d, 0);
    buffer_.reserve(records_per_block_);
  }

  void push(const T& record) {
    buffer_.push_back(record);
    ++records_written_;
    if (buffer_.size() == records_per_block_) flush();
  }

  void push_span(std::span<const T> records) {
    records_written_ += records.size();
    if (!buffer_.empty()) {
      const u64 room = records_per_block_ - buffer_.size();
      const u64 take = std::min<u64>(room, records.size());
      buffer_.insert(buffer_.end(), records.begin(),
                     records.begin() + static_cast<std::ptrdiff_t>(take));
      records = records.subspan(take);
      if (buffer_.size() == records_per_block_) flush();
    }
    while (records.size() >= records_per_block_) {
      write_block(records.first(records_per_block_));
      records = records.subspan(records_per_block_);
    }
    buffer_.insert(buffer_.end(), records.begin(), records.end());
  }

  /// Writes the buffered partial block.
  void flush() {
    if (buffer_.empty()) return;
    write_block(buffer_);
    buffer_.clear();
  }

  u64 records_written() const { return records_written_; }

 private:
  /// Appends one (possibly partial) block to the current stripe and
  /// rotates to the next disk.
  void write_block(std::span<const T> records) {
    const u64 bytes = records.size() * sizeof(T);
    files_[next_disk_].write_at(
        cursor_bytes_[next_disk_],
        std::span<const u8>(reinterpret_cast<const u8*>(records.data()),
                            bytes));
    cursor_bytes_[next_disk_] += bytes;
    next_disk_ = (next_disk_ + 1) % files_.size();
  }

  StripedVolume* volume_;
  u64 records_per_block_;
  std::vector<BlockFile> files_;
  std::vector<u64> cursor_bytes_;
  std::vector<T> buffer_;
  u64 next_disk_ = 0;
  u64 records_written_ = 0;
};

/// Reads a striped record stream back in logical order.  Delegates to the
/// current stripe's BlockReader and exposes buffered()/advance_n so merges
/// can drain it block-at-a-time.
template <Record T>
class StripedReader {
 public:
  StripedReader(StripedVolume& volume, const std::string& name)
      : records_per_block_(
            volume.disk(0).params().records_per_block(sizeof(T))) {
    // Readers hold references into files_: reserve up front so growth
    // never relocates the BlockFiles.
    files_.reserve(volume.disk_count());
    readers_.reserve(volume.disk_count());
    for (u64 i = 0; i < volume.disk_count(); ++i) {
      files_.push_back(
          volume.disk(i).open(StripedVolume::stripe_name(name, i)));
      readers_.emplace_back(files_.back());
      size_records_ += readers_.back().size_records();
    }
  }

  u64 size_records() const { return size_records_; }
  bool done() const { return read_ >= size_records_; }

  /// Head of the logical stream, so a StripedReader can feed a LoserTree.
  const T* peek() {
    if (done()) return nullptr;
    return readers_[next_disk_].peek();
  }

  void advance() {
    PALADIN_EXPECTS(!done());
    BlockReader<T>& r = readers_[next_disk_];
    r.advance();
    ++read_;
    if (++in_block_ == records_per_block_ || r.done()) {
      // Move to the next stripe at each block boundary; also when the
      // current stripe ends early (final partial block of the stream).
      in_block_ = 0;
      next_disk_ = (next_disk_ + 1) % readers_.size();
    }
  }

  bool next(T& out) {
    const T* p = peek();
    if (p == nullptr) return false;
    out = *p;
    advance();
    return true;
  }

  /// The current stripe's buffered tail, clipped to the boundary at which
  /// the stream rotates to the next disk.  Empty only at EOF.
  std::span<const T> buffered() {
    if (done()) return {};
    const std::span<const T> chunk = readers_[next_disk_].buffered();
    return chunk.first(
        std::min<u64>(chunk.size(), records_per_block_ - in_block_));
  }

  /// Consumes `n` records previously exposed by buffered().
  void advance_n(u64 n) {
    if (n == 0) return;
    PALADIN_EXPECTS(in_block_ + n <= records_per_block_);
    BlockReader<T>& r = readers_[next_disk_];
    r.advance_n(n);
    read_ += n;
    in_block_ += n;
    if (in_block_ == records_per_block_ || r.done()) {
      in_block_ = 0;
      next_disk_ = (next_disk_ + 1) % readers_.size();
    }
  }

 private:
  u64 records_per_block_;
  std::vector<BlockFile> files_;
  std::vector<BlockReader<T>> readers_;
  u64 size_records_ = 0;
  u64 read_ = 0;
  u64 in_block_ = 0;
  u64 next_disk_ = 0;
};

}  // namespace paladin::pdm
