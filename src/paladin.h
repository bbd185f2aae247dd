// Umbrella header: the whole public API in one include.
//
//   #include "paladin.h"
//
// For finer-grained builds include the module headers directly; the layers
// from bottom to top are base → pdm → net → seq → hetero → core, with
// workload and metrics on the side (see DESIGN.md).
#pragma once

// base — contracts, types, math, RNG, stats, checksums, metering
#include "base/checksum.h"
#include "base/contracts.h"
#include "base/math_util.h"
#include "base/meter.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/temp_dir.h"
#include "base/types.h"

// pdm — the Parallel Disk Model storage substrate
#include "pdm/disk.h"
#include "pdm/disk_params.h"
#include "pdm/file_backend.h"
#include "pdm/io_stats.h"
#include "pdm/pdm_math.h"
#include "pdm/typed_io.h"

// net — the simulated cluster runtime
#include "net/cluster.h"
#include "net/communicator.h"
#include "net/cost_model.h"
#include "net/mailbox.h"
#include "net/network_model.h"
#include "net/virtual_clock.h"

// seq — sequential (per-node) sorting machinery
#include "seq/counting.h"
#include "seq/cursors.h"
#include "seq/external_sort.h"
#include "seq/kway_merge.h"
#include "seq/loser_tree.h"
#include "seq/polyphase.h"
#include "seq/run_formation.h"

// hetero — perf vectors and calibration
#include "hetero/calibration.h"
#include "hetero/perf_vector.h"

// core — the paper's algorithm and its relatives
#include "core/exact_splitters.h"
#include "core/ext_distribution.h"
#include "core/ext_overpartition.h"
#include "core/ext_psrs.h"
#include "core/merge_files.h"
#include "core/partition_file.h"
#include "core/psrs_incore.h"
#include "core/redistribute.h"
#include "core/sampling.h"
#include "core/scatter_gather.h"
#include "core/sort_driver.h"
#include "core/verify.h"

// workload + metrics
#include "metrics/expansion.h"
#include "metrics/table.h"
#include "workload/datamation.h"
#include "workload/generators.h"
