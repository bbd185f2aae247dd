#include "pdm/file_backend.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "base/contracts.h"

namespace paladin::pdm {

/// A MemBackend file; see the class comment in file_backend.h.
struct MemFile {
  static constexpr u64 kChunkBytes = u64{1} << 20;

  std::vector<std::unique_ptr<u8[]>> chunks;
  u64 size = 0;  ///< logical size; bytes past it are uninitialised

  /// Allocates chunks until the first `bytes` bytes are backed.
  void reserve(u64 bytes) {
    while (chunks.size() * kChunkBytes < bytes) {
      chunks.push_back(std::make_unique_for_overwrite<u8[]>(kChunkBytes));
    }
  }

  /// Calls f(chunk bytes, bytes done so far, length) once per chunk that
  /// [offset, offset + len) touches, in order.  The range must be backed.
  template <typename F>
  void for_each_segment(u64 offset, u64 len, F&& f) {
    for (u64 done = 0; done < len;) {
      const u64 pos = offset + done;
      const u64 in_chunk = pos % kChunkBytes;
      const u64 take = std::min(len - done, kChunkBytes - in_chunk);
      f(chunks[pos / kChunkBytes].get() + in_chunk, done, take);
      done += take;
    }
  }
};

namespace {

/// FileHandle over a stdio FILE*.  stdio keeps the implementation portable
/// and is plenty fast with the block-sized transfers the Disk layer issues.
class PosixFileHandle final : public FileHandle {
 public:
  explicit PosixFileHandle(std::FILE* f) : f_(f) { PALADIN_EXPECTS(f_); }
  ~PosixFileHandle() override {
    if (f_) std::fclose(f_);
  }
  PosixFileHandle(const PosixFileHandle&) = delete;
  PosixFileHandle& operator=(const PosixFileHandle&) = delete;

  u64 read_at(u64 offset, std::span<u8> out) override {
    if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0) return 0;
    return std::fread(out.data(), 1, out.size(), f_);
  }

  void write_at(u64 offset, std::span<const u8> data) override {
    PALADIN_EXPECTS(std::fseek(f_, static_cast<long>(offset), SEEK_SET) == 0);
    const u64 n = std::fwrite(data.data(), 1, data.size(), f_);
    PALADIN_ENSURES(n == data.size());
  }

  u64 size_bytes() const override {
    PALADIN_EXPECTS(std::fseek(f_, 0, SEEK_END) == 0);
    const long s = std::ftell(f_);
    PALADIN_ENSURES(s >= 0);
    return static_cast<u64>(s);
  }

 private:
  mutable std::FILE* f_;
};

class MemFileHandle final : public FileHandle {
 public:
  explicit MemFileHandle(std::shared_ptr<MemFile> file)
      : file_(std::move(file)) {}

  u64 read_at(u64 offset, std::span<u8> out) override {
    if (offset >= file_->size) return 0;
    const u64 n = std::min<u64>(out.size(), file_->size - offset);
    file_->for_each_segment(offset, n, [&](u8* bytes, u64 done, u64 len) {
      std::memcpy(out.data() + done, bytes, len);
    });
    return n;
  }

  void write_at(u64 offset, std::span<const u8> data) override {
    const u64 end = offset + data.size();
    file_->reserve(end);
    if (offset > file_->size) {
      file_->for_each_segment(file_->size, offset - file_->size,
                              [](u8* bytes, u64, u64 len) {
                                std::memset(bytes, 0, len);
                              });
    }
    file_->for_each_segment(offset, data.size(),
                            [&](u8* bytes, u64 done, u64 len) {
                              std::memcpy(bytes, data.data() + done, len);
                            });
    file_->size = std::max(file_->size, end);
  }

  u64 size_bytes() const override { return file_->size; }

 private:
  std::shared_ptr<MemFile> file_;
};

}  // namespace

PosixBackend::PosixBackend(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::filesystem::path PosixBackend::resolve(const std::string& name) const {
  PALADIN_EXPECTS_MSG(name.find('/') == std::string::npos,
                      "file names are flat within a disk");
  return dir_ / name;
}

std::unique_ptr<FileHandle> PosixBackend::create(const std::string& name) {
  std::FILE* f = std::fopen(resolve(name).c_str(), "w+b");
  PALADIN_EXPECTS_MSG(f != nullptr, "cannot create " + name);
  return std::make_unique<PosixFileHandle>(f);
}

std::unique_ptr<FileHandle> PosixBackend::open(const std::string& name) {
  std::FILE* f = std::fopen(resolve(name).c_str(), "r+b");
  PALADIN_EXPECTS_MSG(f != nullptr, "cannot open " + name);
  return std::make_unique<PosixFileHandle>(f);
}

bool PosixBackend::exists(const std::string& name) const {
  return std::filesystem::exists(resolve(name));
}

void PosixBackend::remove(const std::string& name) {
  std::filesystem::remove(resolve(name));
}

u64 PosixBackend::file_size(const std::string& name) const {
  return std::filesystem::file_size(resolve(name));
}

u64 PosixBackend::total_bytes() const {
  u64 total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::unique_ptr<FileHandle> MemBackend::create(const std::string& name) {
  auto file = std::make_shared<MemFile>();
  files_[name] = file;
  return std::make_unique<MemFileHandle>(std::move(file));
}

std::unique_ptr<FileHandle> MemBackend::open(const std::string& name) {
  auto it = files_.find(name);
  PALADIN_EXPECTS_MSG(it != files_.end(), "cannot open " + name);
  return std::make_unique<MemFileHandle>(it->second);
}

bool MemBackend::exists(const std::string& name) const {
  return files_.contains(name);
}

void MemBackend::remove(const std::string& name) { files_.erase(name); }

u64 MemBackend::file_size(const std::string& name) const {
  auto it = files_.find(name);
  PALADIN_EXPECTS(it != files_.end());
  return it->second->size;
}

u64 MemBackend::total_bytes() const {
  u64 total = 0;
  for (const auto& [name, file] : files_) total += file->size;
  return total;
}

}  // namespace paladin::pdm
