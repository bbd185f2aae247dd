// Step 4 of Algorithm 1, and the one spill exchange of every backend:
// ordered lists of record pieces travel to their owners and land on the
// owners' disks.  Data moves in messages of `message_records` records (the
// paper's packet-size knob: 8-integer packets were disastrous, 8K-integer
// packets optimal; Table 3 uses 32 KB), clamped up to a whole multiple of
// the disk block per the paper's block-multiple message requirement.  A
// message never spans two pieces.  Each transfer is a read on the sender
// side and a write on the receiver side: no more than 2·l_i/B I/Os total,
// as the paper counts.
//
// A piece is a seq::MergePiece (file, record offset, length), so a backend
// ships whatever its layout holds without copying it first: phased PSRS and
// the distribution sort send one whole partition file per peer, the
// multiway sort the R cuts of its runs file, overpartitioning every bucket
// the peer owns.  The receiver appends piece k from `src` to the file
// `land(src, k)`, creating it when it does not exist, so pieces land back
// to back in one file per source or straight into a file the caller
// prepared.
//
// Flow control: the exchange runs in p−1 lockstep offset phases (phase o
// pairs rank with dst=(rank+o)%p and src=(rank+p−o)%p).  Each phase opens
// with the pair header — the list of piece lengths — and inside it the
// pieces move in rounds: before sending chunk k ≥ W the sender first
// receives the ack for chunk k−W, and each received chunk is acked as soon
// as it is spilled.  At most W chunks per pair are ever un-acknowledged, so
// mailbox occupancy is O(W·message_bytes) per peer plus its header.
//
// Deadlock-freedom: order phases, then rounds, then (send-part, recv-part)
// lexicographically.  Within a phase both partners run the same round
// sequence; the send part of round k blocks only on an ack its partner's
// recv part of round k−W already emitted, and the recv part blocks only on
// the partner's round-k send.  Every wait is thus on a strictly smaller
// lexicographic position of the partner, which the partner has already
// passed or is currently executing, so some node can always progress.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/math_util.h"
#include "base/types.h"
#include "core/wire_tags.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/kway_merge.h"

namespace paladin::core {

/// Default per-pair credit window (un-acknowledged chunks in flight), used
/// by the spill exchange and the fused pipeline.
inline constexpr u64 kDefaultFlowWindow = 4;

/// The paper requires messages to be whole multiples of the disk block.
/// Rounds `requested` up to the smallest positive multiple of T-records
/// per block on `disk` (any sub-block request becomes one full block).
template <Record T>
u64 clamped_message_records(const pdm::Disk& disk, u64 requested) {
  PALADIN_EXPECTS(requested >= 1);
  const u64 rpb = disk.params().records_per_block(sizeof(T));
  return ceil_div(requested, rpb) * rpb;
}

struct RedistributeResult {
  std::vector<u64> sent_records;  ///< records shipped to each peer
  /// received[src][k]: where src's piece k landed (file, offset, length).
  std::vector<std::vector<seq::MergePiece>> received;
  u64 messages = 0;                   ///< data messages (headers/acks excl.)
  u64 effective_message_records = 0;  ///< message_records after clamping
};

/// Name of the file holding what `src` sent us.
inline std::string received_name(const std::string& prefix, u32 src) {
  return prefix + ".from" + std::to_string(src);
}

/// Ships `outgoing[j]`, the ordered pieces for node j, to every peer j and
/// appends piece k received from `src` to `land(src, k)`.  A node's own
/// data never travels: `outgoing[rank]` must be empty.
template <Record T, typename LandFn>
RedistributeResult redistribute_pieces(
    net::NodeContext& ctx,
    const std::vector<std::vector<seq::MergePiece>>& outgoing, LandFn&& land,
    u64 message_records, u64 window_chunks = kDefaultFlowWindow) {
  PALADIN_EXPECTS(message_records >= 1);
  PALADIN_EXPECTS(window_chunks >= 1);

  net::Communicator& comm = ctx.comm();
  pdm::Disk& disk = ctx.disk();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  PALADIN_EXPECTS(outgoing.size() == p && outgoing[rank].empty());
  message_records = clamped_message_records<T>(disk, message_records);
  RedistributeResult result;
  result.sent_records.assign(p, 0);
  result.received.resize(p);
  result.effective_message_records = message_records;

  obs::Tracer* const tr = ctx.obs();
  std::vector<T> chunk;
  chunk.reserve(message_records);
  for (u32 offset = 1; offset < p; ++offset) {
    const u32 dst = (rank + offset) % p;
    const u32 src = (rank + p - offset) % p;

    const std::vector<seq::MergePiece>& send = outgoing[dst];
    std::vector<u64> send_lengths;
    u64 send_chunks = 0;
    for (const seq::MergePiece& piece : send) {
      send_lengths.push_back(piece.len);
      result.sent_records[dst] += piece.len;
      send_chunks += ceil_div(piece.len, message_records);
    }
    comm.send_records<u64>(dst, kTagRedistributeHeader, send_lengths);
    const std::vector<u64> recv_lengths =
        comm.recv_records<u64>(src, kTagRedistributeHeader);
    u64 recv_chunks = 0;
    for (const u64 len : recv_lengths) {
      recv_chunks += ceil_div(len, message_records);
    }

    // Sender cursor: a reader over the current piece's file, reused while
    // consecutive pieces share it.
    std::optional<pdm::BlockFile> in_file;
    std::optional<pdm::BlockReader<T>> reader;
    std::size_t next_send = 0;
    u64 send_left = 0;
    // Receiver cursor: a writer appending to the current piece's landing
    // file, reused while consecutive pieces land in the same file.
    std::optional<pdm::BlockFile> out_file;
    std::optional<pdm::BlockWriter<T>> writer;
    u64 writer_base = 0;  // records the landing file held when opened
    std::vector<seq::MergePiece>& landed = result.received[src];
    u64 recv_left = 0;
    const auto land_next = [&] {
      PALADIN_ASSERT(landed.size() < recv_lengths.size());
      const std::string name = land(src, static_cast<u64>(landed.size()));
      if (!out_file || out_file->name() != name) {
        if (writer) writer->flush();
        writer.reset();
        out_file.reset();
        const bool append = disk.exists(name);
        out_file.emplace(append ? disk.open(name) : disk.create(name));
        writer.emplace(*out_file, append);
        writer_base = append ? out_file->size_bytes() / sizeof(T) : 0;
      }
      recv_left = recv_lengths[landed.size()];
      landed.push_back({name, writer_base + writer->records_written(),
                        recv_left});
    };

    const u64 rounds = std::max(send_chunks, recv_chunks);
    for (u64 k = 0; k < rounds; ++k) {
      if (k < send_chunks) {
        if (k >= window_chunks) {
          // Credit: dst has consumed chunk k−W.
          comm.recv_packet(dst, kTagRedistributeAck);
          if (tr) tr->counters().add("redistribute.acks_consumed", 1);
        }
        while (send_left == 0) {
          PALADIN_ASSERT(next_send < send.size());
          const seq::MergePiece& piece = send[next_send++];
          send_left = piece.len;
          if (send_left == 0) continue;
          if (!in_file || in_file->name() != piece.file) {
            reader.reset();
            in_file.emplace(disk.open(piece.file));
            reader.emplace(*in_file);
          }
          reader->seek_record(piece.offset);
        }
        const u64 take = std::min(message_records, send_left);
        chunk.resize(take);
        const u64 read = reader->read_span(std::span<T>(chunk));
        PALADIN_ASSERT(read == take);
        comm.send_records<T>(dst, kTagRedistributeData, chunk);
        ++result.messages;
        send_left -= take;
        if (tr) tr->counters().add("redistribute.chunks_sent", 1);
      }
      if (k < recv_chunks) {
        while (recv_left == 0) land_next();
        std::vector<T> data = comm.recv_records<T>(src, kTagRedistributeData);
        PALADIN_ASSERT(!data.empty() && data.size() <= recv_left);
        writer->push_span(std::span<const T>(data));
        recv_left -= data.size();
        comm.send_value<u8>(src, kTagRedistributeAck, 0);
        if (tr) tr->counters().add("redistribute.acks_sent", 1);
      }
    }
    // Trailing empty pieces still land (their files must exist).
    while (landed.size() < recv_lengths.size()) land_next();
    if (writer) writer->flush();
    PALADIN_ASSERT(send_left == 0 && recv_left == 0);
  }
  return result;
}

}  // namespace paladin::core
