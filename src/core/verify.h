// Verification utilities the tests and benches run *inside* a cluster node
// body: local/global sortedness and multiset preservation.  They stream, so
// they are usable at out-of-core sizes.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"

namespace paladin::core {

/// Streaming sortedness check of one file.
template <Record T, typename Less = std::less<T>>
bool is_sorted_file(pdm::Disk& disk, const std::string& name, Less less = {}) {
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  T prev;
  if (!reader.next(prev)) return true;
  T cur;
  while (reader.next(cur)) {
    if (less(cur, prev)) return false;
    prev = cur;
  }
  return true;
}

/// Streaming multiset fingerprint of one file.
template <Record T>
MultisetChecksum file_checksum(pdm::Disk& disk, const std::string& name) {
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  MultisetChecksum sum;
  T v;
  while (reader.next(v)) sum.add(v);
  return sum;
}

/// Global order summary of one node's output file.
template <Record T>
struct FileBoundary {
  T first{};
  T last{};
  u64 count = 0;
};

/// First and last record and record count of the file `name`.
template <Record T>
FileBoundary<T> file_boundary(pdm::Disk& disk, const std::string& name) {
  pdm::BlockFile f = disk.open(name);
  pdm::BlockReader<T> reader(f);
  FileBoundary<T> boundary;
  boundary.count = reader.size_records();
  if (boundary.count > 0) {
    const bool a = reader.next(boundary.first);
    PALADIN_ASSERT(a);
    reader.seek_record(boundary.count - 1);
    const bool b = reader.next(boundary.last);
    PALADIN_ASSERT(b);
  }
  return boundary;
}

namespace detail {

/// Rank 0's half of a global order check, over one summary per file (its
/// `boundary`, and `ok` when the file is sorted) in global order: every
/// file sorted, and each non-empty file's first key at or above the last
/// key of the non-empty file before it.
template <typename Summary, typename Less>
u8 chain_verdict(const std::vector<Summary>& files, Less less) {
  u8 verdict = 1;
  const Summary* prev = nullptr;
  for (const Summary& s : files) {
    if (s.ok == 0) verdict = 0;
    if (s.boundary.count == 0) continue;
    if (prev != nullptr && less(s.boundary.first, prev->boundary.last)) {
      verdict = 0;
    }
    prev = &s;
  }
  return verdict;
}

}  // namespace detail

/// Collective: checks that the per-node output files form one globally
/// sorted sequence in rank order (each file locally sorted, and node i's
/// last key <= node i+1's first key, skipping empty files).  Returns the
/// same verdict on every node.
template <Record T, typename Less = std::less<T>>
bool verify_global_order(net::NodeContext& ctx, const std::string& output,
                         Less less = {}) {
  const bool local_ok = is_sorted_file<T, Less>(ctx.disk(), output, less);
  // Encode local_ok in count's unused top bit? No — ship a tiny struct.
  struct Summary {
    FileBoundary<T> boundary;
    u8 ok;
  };
  Summary summary{file_boundary<T>(ctx.disk(), output),
                  static_cast<u8>(local_ok ? 1 : 0)};
  std::vector<Summary> all = ctx.comm().template gather_records<Summary>(
      std::span<const Summary>(&summary, 1), 0);
  u8 verdict = 1;
  if (ctx.comm().rank() == 0) verdict = detail::chain_verdict(all, less);
  verdict = ctx.comm().template bcast_value<u8>(verdict, 0);
  return verdict != 0;
}

/// Collective: the order check of a backend's output, whatever its layout.
/// Contiguous slices go to verify_global_order.  Bucket files must each be
/// sorted and chain in global bucket order, whichever nodes own them: rank
/// 0 gathers one summary per bucket and checks the chain.  Returns the
/// same verdict on every node.
template <Record T, typename Less = std::less<T>>
bool verify_output_order(net::NodeContext& ctx, const std::string& output,
                         const BackendReport& report, Less less = {}) {
  if (report.layout == OutputLayout::kContiguousSlice) {
    return verify_global_order<T, Less>(ctx, output, less);
  }
  struct BucketSummary {
    u64 bucket;
    FileBoundary<T> boundary;
    u8 ok;
  };
  std::vector<u64> owned = report.owned_buckets;
  std::sort(owned.begin(), owned.end());
  std::vector<BucketSummary> mine;
  mine.reserve(owned.size());
  for (const u64 b : owned) {
    const std::string name = bucket_file_name(output, b);
    const bool sorted = is_sorted_file<T, Less>(ctx.disk(), name, less);
    mine.push_back({b, file_boundary<T>(ctx.disk(), name),
                    static_cast<u8>(sorted ? 1 : 0)});
  }
  std::vector<BucketSummary> all =
      ctx.comm().template gather_records<BucketSummary>(
          std::span<const BucketSummary>(mine), 0);
  u8 verdict = 1;
  if (ctx.comm().rank() == 0) {
    std::sort(all.begin(), all.end(),
              [](const BucketSummary& a, const BucketSummary& b) {
                return a.bucket < b.bucket;
              });
    verdict = detail::chain_verdict(all, less);
  }
  verdict = ctx.comm().template bcast_value<u8>(verdict, 0);
  return verdict != 0;
}

/// Multiset fingerprint of this node's share of a backend's output,
/// whatever its layout.
template <Record T>
MultisetChecksum output_checksum(pdm::Disk& disk, const std::string& output,
                                 const BackendReport& report) {
  if (report.layout == OutputLayout::kContiguousSlice) {
    return file_checksum<T>(disk, output);
  }
  MultisetChecksum sum;
  for (const u64 b : report.owned_buckets) {
    sum.merge(file_checksum<T>(disk, bucket_file_name(output, b)));
  }
  return sum;
}

/// Collective: true iff the multiset of all nodes' `after` files equals the
/// multiset of all nodes' `before` checksums (pass each node's input
/// checksum, captured before sorting).
template <Record T>
bool verify_global_permutation(net::NodeContext& ctx,
                               const MultisetChecksum& before_local,
                               const std::string& after) {
  MultisetChecksum after_local = file_checksum<T>(ctx.disk(), after);

  struct Pair {
    MultisetChecksum before, after;
  };
  Pair mine{before_local, after_local};
  std::vector<Pair> all = ctx.comm().template gather_records<Pair>(
      std::span<const Pair>(&mine, 1), 0);
  u8 verdict = 1;
  if (ctx.comm().rank() == 0) {
    MultisetChecksum b, a;
    for (const Pair& pr : all) {
      b.merge(pr.before);
      a.merge(pr.after);
    }
    verdict = (b == a) ? 1 : 0;
  }
  verdict = ctx.comm().template bcast_value<u8>(verdict, 0);
  return verdict != 0;
}

}  // namespace paladin::core
