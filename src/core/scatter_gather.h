// Input staging and output collection.  The paper's timings deliberately
// exclude both ("the execution time does not comprise neither the initial
// distribution of data (since they are generated on a sole node) nor the
// gather time").  These collectives implement that excluded machinery so
// the full cost can be measured: scatter a file living on one node into
// perf-proportional shares, and gather the per-node sorted slices back
// into one file in rank order.
#pragma once

#include <string>

#include "base/contracts.h"
#include "base/types.h"
#include "core/wire_tags.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"

namespace paladin::core {

/// Collective: node `root` holds `source` with an admissible number of
/// records; afterwards every node's `dest` holds its perf-proportional
/// contiguous share.  Data moves in messages of `message_records`.
/// Returns the local share size.
template <Record T>
u64 scatter_shares(net::NodeContext& ctx, const hetero::PerfVector& perf,
                   const std::string& source, const std::string& dest,
                   u32 root = 0, u64 message_records = 8192) {
  PALADIN_EXPECTS(message_records >= 1);
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();

  if (rank == root) {
    const u64 n = ctx.disk().file_records<T>(source);
    PALADIN_EXPECTS_MSG(perf.is_admissible(n),
                        "scatter source size must have integral shares");
    const u64 total = comm.allreduce_sum(n);  // announce n to everyone
    PALADIN_ASSERT(total == n);

    pdm::BlockFile f = ctx.disk().open(source);
    pdm::BlockReader<T> reader(f);
    std::vector<T> chunk;
    chunk.reserve(message_records);
    u64 my_share = 0;
    for (u32 i = 0; i < p; ++i) {
      const u64 share = perf.share(i, n);
      if (i == root) {
        // Root's own slice is copied to its dest file directly.
        pdm::BlockFile out = ctx.disk().create(dest);
        pdm::BlockWriter<T> writer(out);
        T v;
        for (u64 k = 0; k < share; ++k) {
          const bool ok = reader.next(v);
          PALADIN_ASSERT(ok);
          writer.push(v);
        }
        writer.flush();
        my_share = share;
        continue;
      }
      comm.send_value<u64>(i, kTagScatterHeader, share);
      u64 sent = 0;
      while (sent < share) {
        chunk.clear();
        T v;
        while (chunk.size() < message_records && sent + chunk.size() < share &&
               reader.next(v)) {
          chunk.push_back(v);
        }
        comm.send_records<T>(i, kTagScatterData, chunk);
        sent += chunk.size();
      }
    }
    return my_share;
  }

  comm.allreduce_sum(u64{0});
  const u64 share = comm.recv_value<u64>(root, kTagScatterHeader);
  pdm::BlockFile out = ctx.disk().create(dest);
  pdm::BlockWriter<T> writer(out);
  u64 got = 0;
  while (got < share) {
    std::vector<T> data = comm.recv_records<T>(root, kTagScatterData);
    PALADIN_ASSERT(!data.empty());
    writer.push_span(std::span<const T>(data));
    got += data.size();
  }
  writer.flush();
  PALADIN_ENSURES(got == share);
  return share;
}

/// Collective: concatenates every node's `source` at node `root` into
/// `dest`, in rank order (node 0's slice first).  Returns the total record
/// count (on every node).
template <Record T>
u64 gather_shares(net::NodeContext& ctx, const std::string& source,
                  const std::string& dest, u32 root = 0,
                  u64 message_records = 8192) {
  PALADIN_EXPECTS(message_records >= 1);
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();

  const u64 mine = ctx.disk().file_records<T>(source);
  const u64 total = comm.allreduce_sum(mine);

  if (rank != root) {
    comm.send_value<u64>(root, kTagGatherHeader, mine);
    pdm::BlockFile f = ctx.disk().open(source);
    pdm::BlockReader<T> reader(f);
    std::vector<T> chunk;
    chunk.reserve(message_records);
    T v;
    while (reader.next(v)) {
      chunk.push_back(v);
      if (chunk.size() == message_records) {
        comm.send_records<T>(root, kTagGatherData, chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) comm.send_records<T>(root, kTagGatherData, chunk);
    return total;
  }

  pdm::BlockFile out = ctx.disk().create(dest);
  pdm::BlockWriter<T> writer(out);
  for (u32 i = 0; i < p; ++i) {
    if (i == root) {
      pdm::BlockFile f = ctx.disk().open(source);
      pdm::BlockReader<T> reader(f);
      T v;
      while (reader.next(v)) writer.push(v);
      continue;
    }
    const u64 expected = comm.recv_value<u64>(i, kTagGatherHeader);
    u64 got = 0;
    while (got < expected) {
      std::vector<T> data = comm.recv_records<T>(i, kTagGatherData);
      PALADIN_ASSERT(!data.empty());
      writer.push_span(std::span<const T>(data));
      got += data.size();
    }
  }
  writer.flush();
  PALADIN_ENSURES(writer.records_written() == total);
  return total;
}

}  // namespace paladin::core
