// One source of truth for the knobs the cluster/exchange/fault tests keep
// in common, so a change to the exercised geometry (block size, credit
// window, mailbox tags) lands everywhere at once instead of drifting
// between files.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "base/types.h"
#include "pdm/disk_params.h"
#include "workload/generators.h"

namespace paladin::test_params {

/// 64-byte blocks make block boundaries (and the paper's per-block I/O
/// bounds) bite at test-sized inputs: 16 DefaultKey records per block.
inline constexpr u64 kTinyBlockBytes = 64;

inline pdm::DiskParams tiny_blocks() {
  pdm::DiskParams p;
  p.block_bytes = kTinyBlockBytes;
  return p;
}

// External-sort shaping for small hermetic runs: a memory budget and tape
// count small enough that multi-pass merging actually happens.
inline constexpr u64 kMemoryRecords = 512;
inline constexpr u32 kTapeCount = 5;
/// Default exchange chunk size (records per message).
inline constexpr u64 kMessageRecords = 64;

// Manual credit-window exchange used by the flow-control stress test and
// the fault tests: W un-acked chunks of kFlowChunkBytes on kFlowDataTag,
// 1-byte acks back on kFlowAckTag.
inline constexpr u64 kFlowChunks = 64;
inline constexpr u64 kFlowChunkBytes = 4096;
inline constexpr u64 kFlowWindow = 3;
inline constexpr int kFlowDataTag = 11;
inline constexpr int kFlowAckTag = 12;

/// Test-name generator for suites instantiated over workload::kAllDists:
/// names each case after its distribution ("zipf", "bucket_sorted")
/// instead of its index.  gtest allows only alphanumerics and '_' in a
/// name.
inline std::string dist_name(
    const ::testing::TestParamInfo<workload::Dist>& info) {
  std::string name = workload::to_string(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

/// Test-name generator for the other parameterized suites: the parameter as
/// gtest prints it (its PrintTo), each run of characters outside
/// [A-Za-z0-9] folded to one '_', then the case index — two cases that
/// print alike still get distinct names.
inline constexpr auto printed_name = [](const auto& info) {
  std::string name;
  for (const char c : ::testing::PrintToString(info.param)) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      name += c;
    } else if (!name.empty() && name.back() != '_') {
      name += '_';
    }
  }
  if (!name.empty() && name.back() != '_') name += '_';
  return name + std::to_string(info.index);
};

}  // namespace paladin::test_params

namespace paladin::workload {

/// gtest prints a Dist parameter by name rather than as raw bytes; ctest
/// names carry that printed value, so they read the same in every build.
inline void PrintTo(Dist dist, std::ostream* os) { *os << to_string(dist); }

}  // namespace paladin::workload
