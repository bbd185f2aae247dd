// Per-disk I/O accounting.  PDM complexity counts block transfers; every
// bound check in the test suite (DESIGN.md §6) and the I/O columns of the
// benches read these counters.
#pragma once

#include "base/types.h"

namespace paladin::pdm {

struct IoStats {
  u64 blocks_read = 0;
  u64 blocks_written = 0;
  ByteCount bytes_read = 0;
  ByteCount bytes_written = 0;
  u64 files_created = 0;
  u64 files_removed = 0;

  u64 total_block_ios() const { return blocks_read + blocks_written; }
  ByteCount total_bytes() const { return bytes_read + bytes_written; }

  bool operator==(const IoStats&) const = default;

  IoStats& operator+=(const IoStats& o) {
    blocks_read += o.blocks_read;
    blocks_written += o.blocks_written;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    files_created += o.files_created;
    files_removed += o.files_removed;
    return *this;
  }

  friend IoStats operator-(IoStats a, const IoStats& b) {
    a.blocks_read -= b.blocks_read;
    a.blocks_written -= b.blocks_written;
    a.bytes_read -= b.bytes_read;
    a.bytes_written -= b.bytes_written;
    a.files_created -= b.files_created;
    a.files_removed -= b.files_removed;
    return a;
  }
};

}  // namespace paladin::pdm
