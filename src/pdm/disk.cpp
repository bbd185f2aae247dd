#include "pdm/disk.h"

#include "base/math_util.h"
#include "fault/fault.h"

namespace paladin::pdm {

u64 BlockFile::read_at(u64 offset, std::span<u8> out) {
  PALADIN_EXPECTS(valid());
  if (disk_->disk_faults_active()) {
    return disk_->faulted_read(*handle_, name_hash_, offset, out);
  }
  const u64 n = handle_->read_at(offset, out);
  if (n > 0) {
    disk_->account(ceil_div(n, disk_->params().block_bytes), n,
                   /*is_write=*/false);
  }
  return n;
}

void BlockFile::write_at(u64 offset, std::span<const u8> data) {
  PALADIN_EXPECTS(valid());
  if (data.empty()) return;
  if (disk_->disk_faults_active()) {
    disk_->faulted_write(*handle_, name_hash_, offset, data);
    return;
  }
  handle_->write_at(offset, data);
  disk_->account(ceil_div(data.size(), disk_->params().block_bytes),
                 data.size(), /*is_write=*/true);
}

Disk Disk::posix(const std::filesystem::path& dir, DiskParams params) {
  return Disk(std::make_unique<PosixBackend>(dir), params);
}

Disk Disk::in_memory(DiskParams params) {
  return Disk(std::make_unique<MemBackend>(), params);
}

Disk::Disk(std::unique_ptr<FileBackend> backend, DiskParams params)
    : backend_(std::move(backend)), params_(params) {
  PALADIN_EXPECTS(params_.block_bytes > 0);
}

bool Disk::disk_faults_active() const {
  return fault_ != nullptr && fault_->plan().disk_active();
}

u64 Disk::faulted_read(FileHandle& handle, u64 name_hash, u64 offset,
                       std::span<u8> out) {
  fault::FaultCounters& c = fault_->counters();
  // Transient failures first: each failed attempt costs one backoff wait
  // (exponential), then the retry succeeds within the plan's bound.
  const u32 fails = fault_->read_faults(name_hash, offset);
  for (u32 k = 0; k < fails; ++k) {
    ++c.disk_read_faults;
    ++c.disk_read_retries;
    charge_fault(fault_->backoff_seconds(k));
  }
  const u64 n = handle.read_at(offset, out);
  // Read-path corruption, detectable only on blocks with a shadow
  // fingerprint (a silent bit-flip on an unfingerprinted block would
  // corrupt the sort itself, which is not the failure mode under test).
  // The first whole block of the transfer stands in for "a" block.
  const u64 block_bytes = params_.block_bytes;
  if (fault_->plan().disk.corrupt_prob > 0.0 && n >= block_bytes &&
      offset % block_bytes == 0) {
    const u64 block = offset / block_bytes;
    auto file_it = fingerprints_.find(name_hash);
    if (file_it != fingerprints_.end()) {
      auto fp_it = file_it->second.find(block);
      if (fp_it != file_it->second.end()) {
        u32 attempt = 0;
        // corrupts() is false once attempt reaches the plan bound, so the
        // inject → detect → re-read loop terminates by construction.
        while (fault_->corrupts(name_hash, block, attempt)) {
          out[0] ^= 0xA5;
          ++c.disk_corruptions;
          if (hash_bytes_fnv1a(out.data(), block_bytes) != fp_it->second) {
            handle.read_at(offset, out.subspan(0, block_bytes));
            ++c.disk_rereads;
            charge_fault(params_.block_cost_seconds());
          }
          ++attempt;
        }
      }
    }
  }
  // Logical accounting is identical to the fault-free path: retries and
  // re-reads cost virtual time, never IoStats blocks, so the paper's I/O
  // bounds stay assertable under any plan.
  if (n > 0) account(ceil_div(n, block_bytes), n, /*is_write=*/false);
  return n;
}

void Disk::faulted_write(FileHandle& handle, u64 name_hash, u64 offset,
                         std::span<const u8> data) {
  fault::FaultCounters& c = fault_->counters();
  const u32 fails = fault_->write_faults(name_hash, offset);
  for (u32 k = 0; k < fails; ++k) {
    ++c.disk_write_faults;
    ++c.disk_write_retries;
    charge_fault(fault_->backoff_seconds(k));
  }
  handle.write_at(offset, data);
  note_write_fingerprints(name_hash, offset, data);
  account(ceil_div(data.size(), params_.block_bytes), data.size(),
          /*is_write=*/true);
}

void Disk::note_write_fingerprints(u64 name_hash, u64 offset,
                                   std::span<const u8> data) {
  if (fault_->plan().disk.corrupt_prob <= 0.0) return;
  const u64 block_bytes = params_.block_bytes;
  auto& file_map = fingerprints_[name_hash];
  const u64 end = offset + data.size();
  const u64 first = offset / block_bytes;
  const u64 last = (end - 1) / block_bytes;
  for (u64 b = first; b <= last; ++b) {
    const u64 block_start = b * block_bytes;
    if (block_start >= offset && block_start + block_bytes <= end) {
      file_map[b] = hash_bytes_fnv1a(data.data() + (block_start - offset),
                                     block_bytes);
    } else {
      file_map.erase(b);
    }
  }
}

BlockFile Disk::create(const std::string& name) {
  auto handle = backend_->create(name);
  ++stats_.files_created;
  // create() truncates: any fingerprints of the old content are stale.
  if (!fingerprints_.empty()) {
    fingerprints_.erase(hash_bytes_fnv1a(
        reinterpret_cast<const u8*>(name.data()), name.size()));
  }
  return BlockFile(this, name, std::move(handle));
}

BlockFile Disk::open(const std::string& name) {
  return BlockFile(this, name, backend_->open(name));
}

void Disk::remove(const std::string& name) {
  backend_->remove(name);
  ++stats_.files_removed;
  if (!fingerprints_.empty()) {
    fingerprints_.erase(hash_bytes_fnv1a(
        reinterpret_cast<const u8*>(name.data()), name.size()));
  }
}

void Disk::account(u64 blocks, ByteCount bytes, bool is_write) {
  if (is_write) {
    stats_.blocks_written += blocks;
    stats_.bytes_written += bytes;
  } else {
    stats_.blocks_read += blocks;
    stats_.bytes_read += bytes;
  }
  if (cost_sink_) {
    // Charge per block: a k-block transfer must accumulate simulated time
    // exactly like k single-block transfers, so batching whole-block runs
    // into one write_at/read_at (typed_io.h) leaves the virtual clock
    // bit-identical under floating-point addition.
    const double per_block = params_.block_cost_seconds();
    for (u64 i = 0; i < blocks; ++i) cost_sink_(per_block);
  }
}

}  // namespace paladin::pdm
