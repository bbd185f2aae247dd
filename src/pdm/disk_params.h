// Parameters of one disk drive under the Parallel Disk Model (Vitter &
// Shriver).  PDM measures algorithms in block transfers of B items; these
// parameters additionally give each block transfer a simulated-time price so
// experiments can report "execution seconds" on a modelled 2002-era disk.
#pragma once

#include "base/contracts.h"
#include "base/types.h"

namespace paladin::pdm {

struct DiskParams {
  /// Block transfer size in bytes (PDM's B, here in bytes; typed readers
  /// derive records-per-block).  The paper's experiments use 32 KiB
  /// messages and comparable block sizes.
  ByteCount block_bytes = 32 * kKiB;

  /// Fixed overhead charged per block transfer (average positioning time).
  /// The streams in this library are mostly sequential, so this models the
  /// per-request overhead of a 2002 SCSI drive doing mixed access.  Every
  /// transfer pays it, sequential or not, so of two ways to read the same
  /// records the one with fewer transfers is always the cheaper.
  double access_seconds = 2.0e-3;

  /// Sustained transfer rate.  ~20 MB/s matches the paper's SCSI drives.
  double transfer_bytes_per_second = 20.0e6;

  /// Simulated cost of transferring one block.
  double block_cost_seconds() const {
    PALADIN_EXPECTS(transfer_bytes_per_second > 0);
    return access_seconds +
           static_cast<double>(block_bytes) / transfer_bytes_per_second;
  }

  /// Records of type size `record_bytes` per block (at least 1).
  u64 records_per_block(u64 record_bytes) const {
    PALADIN_EXPECTS(record_bytes != 0);
    const u64 r = block_bytes / record_bytes;
    return r == 0 ? 1 : r;
  }

  /// A disk resembling the paper's testbed (8 GB SCSI, Linux 2.2).
  static DiskParams scsi_2002() { return DiskParams{}; }

  /// A fast disk for "what if I/O were nearly free" ablations.
  static DiskParams fast() {
    return DiskParams{.block_bytes = 32 * kKiB,
                      .access_seconds = 50e-6,
                      .transfer_bytes_per_second = 500.0e6};
  }
};

}  // namespace paladin::pdm
