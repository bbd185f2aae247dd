// A node's disk under the Parallel Disk Model: a named-file store where all
// traffic moves in blocks of `DiskParams::block_bytes`, every block transfer
// is counted in IoStats, and (optionally) charged to a simulated-time sink.
// This is the only path by which the sorting algorithms touch storage, so
// the I/O-bound checks in the test suite are exact.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/checksum.h"
#include "base/contracts.h"
#include "base/types.h"
#include "pdm/disk_params.h"
#include "pdm/file_backend.h"
#include "pdm/io_stats.h"

namespace paladin::fault {
class FaultInjector;
}  // namespace paladin::fault

namespace paladin::pdm {

class Disk;

/// Handle to one file on a Disk.  Raw byte-span interface in whole-block
/// granularity; typed buffered access lives in pdm/typed_io.h.
class BlockFile {
 public:
  BlockFile() = default;
  BlockFile(Disk* disk, std::string name, std::unique_ptr<FileHandle> handle)
      : disk_(disk),
        name_(std::move(name)),
        name_hash_(hash_bytes_fnv1a(
            reinterpret_cast<const u8*>(name_.data()), name_.size())),
        handle_(std::move(handle)) {}

  BlockFile(BlockFile&&) = default;
  BlockFile& operator=(BlockFile&&) = default;

  bool valid() const { return handle_ != nullptr; }
  const std::string& name() const { return name_; }
  u64 size_bytes() const { return handle_->size_bytes(); }

  /// Reads up to out.size() bytes starting at byte `offset`; returns the
  /// number of bytes read.  Counts ceil(read/block) block transfers.
  u64 read_at(u64 offset, std::span<u8> out);

  /// Writes all of `data` at byte `offset`.  Counts ceil(size/block)
  /// block transfers.
  void write_at(u64 offset, std::span<const u8> data);

  /// Appends at the current end of file.
  void append(std::span<const u8> data) { write_at(size_bytes(), data); }

  /// Marks bytes [offset, offset + len) as never read again
  /// (FileHandle::release).  Not a transfer: nothing is counted, charged
  /// or drawn from the fault plan.
  void release(u64 offset, u64 len) { handle_->release(offset, len); }

  Disk& disk() const { return *disk_; }

 private:
  Disk* disk_ = nullptr;
  std::string name_;
  u64 name_hash_ = 0;
  std::unique_ptr<FileHandle> handle_;
};

class Disk {
 public:
  /// Real-file disk rooted at `dir`.
  static Disk posix(const std::filesystem::path& dir,
                    DiskParams params = DiskParams::scsi_2002());

  /// In-memory disk (MemBackend): what benches, perfbench and most tests
  /// sort on.
  static Disk in_memory(DiskParams params = DiskParams::scsi_2002());

  Disk(std::unique_ptr<FileBackend> backend, DiskParams params);
  Disk(Disk&&) = default;
  Disk& operator=(Disk&&) = default;

  BlockFile create(const std::string& name);
  BlockFile open(const std::string& name);
  bool exists(const std::string& name) const { return backend_->exists(name); }
  void remove(const std::string& name);
  u64 file_bytes(const std::string& name) const {
    return backend_->file_size(name);
  }

  /// Records of type T currently stored in `name` (file must hold a whole
  /// number of records).
  template <Record T>
  u64 file_records(const std::string& name) const {
    const u64 bytes = backend_->file_size(name);
    PALADIN_EXPECTS(bytes % sizeof(T) == 0);
    return bytes / sizeof(T);
  }

  /// Live bytes currently stored on this disk (all files).  Sampling this
  /// from a cost sink during a sort verifies the linear-space property.
  u64 live_bytes() const { return backend_->total_bytes(); }

  const DiskParams& params() const { return params_; }
  const IoStats& stats() const { return stats_; }
  void reset_stats() { stats_ = IoStats{}; }

  /// Sink receiving the simulated seconds of each transfer; typically wired
  /// to the owning node's VirtualClock by the cluster runtime.
  void set_cost_sink(std::function<void(double)> sink) {
    cost_sink_ = std::move(sink);
  }

  /// Attach the node's fault injector (nullptr detaches).
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Whether BlockFile transfers must take the fault-checked slow path.
  bool disk_faults_active() const;

 private:
  friend class BlockFile;

  /// Account `bytes` moved as `blocks` block transfers.
  void account(u64 blocks, ByteCount bytes, bool is_write);

  /// Fault-checked transfer paths; only reached when disk_faults_active().
  u64 faulted_read(FileHandle& handle, u64 name_hash, u64 offset,
                   std::span<u8> out);
  void faulted_write(FileHandle& handle, u64 name_hash, u64 offset,
                     std::span<const u8> data);
  /// Record/refresh shadow fingerprints of the whole blocks covered by a
  /// write (partially covered blocks lose theirs — the stored content no
  /// longer matches any hash we could compute without a read-back).
  void note_write_fingerprints(u64 name_hash, u64 offset,
                               std::span<const u8> data);
  void charge_fault(double seconds) {
    if (cost_sink_) cost_sink_(seconds);
  }

  std::unique_ptr<FileBackend> backend_;
  DiskParams params_;
  IoStats stats_;
  std::function<void(double)> cost_sink_;
  fault::FaultInjector* fault_ = nullptr;
  /// Shadow block fingerprints for corruption detection, keyed by file-name
  /// hash then block index.  Maintained only while corrupt_prob > 0.
  std::unordered_map<u64, std::unordered_map<u64, u64>> fingerprints_;
};

}  // namespace paladin::pdm
