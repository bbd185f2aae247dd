// Storage backends.  A backend knows how to persist named byte sequences;
// the Disk layer above it adds PDM block accounting and cost charging.  Two
// implementations: PosixBackend (real files, so out-of-core runs genuinely
// round-trip data through the filesystem) and MemBackend (files in process
// memory).  MemBackend is not only the unit tests' disk: every node of a
// cluster without a workdir sorts on it, so every whole-sort benchmark run
// and every bench run without --workdir does.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "base/types.h"

namespace paladin::pdm {

/// Random-access handle to one stored file.  Offsets/lengths are in bytes;
/// implementations must support sparse-free sequential growth via
/// write_at(end).  Handles are not thread-safe; one node owns its files.
class FileHandle {
 public:
  virtual ~FileHandle() = default;

  /// Reads exactly min(len, size-offset) bytes; returns bytes read.
  virtual u64 read_at(u64 offset, std::span<u8> out) = 0;

  /// Writes all bytes at `offset`, growing the file if needed.
  virtual void write_at(u64 offset, std::span<const u8> data) = 0;

  virtual u64 size_bytes() const = 0;
};

class FileBackend {
 public:
  virtual ~FileBackend() = default;

  /// Creates (truncating if present) a file and returns a handle to it.
  virtual std::unique_ptr<FileHandle> create(const std::string& name) = 0;

  /// Opens an existing file.  Precondition: exists(name).
  virtual std::unique_ptr<FileHandle> open(const std::string& name) = 0;

  virtual bool exists(const std::string& name) const = 0;
  virtual void remove(const std::string& name) = 0;
  virtual u64 file_size(const std::string& name) const = 0;

  /// Total bytes currently stored across all files — the live footprint,
  /// used to verify the linear-space property of the sorting algorithms.
  virtual u64 total_bytes() const = 0;
};

/// Real files in a directory.
class PosixBackend final : public FileBackend {
 public:
  explicit PosixBackend(std::filesystem::path dir);

  std::unique_ptr<FileHandle> create(const std::string& name) override;
  std::unique_ptr<FileHandle> open(const std::string& name) override;
  bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  u64 file_size(const std::string& name) const override;
  u64 total_bytes() const override;

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path resolve(const std::string& name) const;
  std::filesystem::path dir_;
};

/// One in-memory file (defined in file_backend.cpp).
struct MemFile;

/// In-memory files.  A file is a list of fixed 1 MiB chunks plus a logical
/// size: chunks are allocated uninitialised and never reallocated, so a
/// growing file costs one allocation per MiB and no copy, and only the gap
/// a write past EOF leaves is zeroed.  Sizes are logical, never the
/// allocated capacity.
class MemBackend final : public FileBackend {
 public:
  std::unique_ptr<FileHandle> create(const std::string& name) override;
  std::unique_ptr<FileHandle> open(const std::string& name) override;
  bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  u64 file_size(const std::string& name) const override;
  u64 total_bytes() const override;

 private:
  // shared_ptr so a handle pins its own file: it stays valid after
  // remove() or a re-create() of its name.
  std::map<std::string, std::shared_ptr<MemFile>> files_;
};

}  // namespace paladin::pdm
