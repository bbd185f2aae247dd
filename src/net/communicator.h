// MPI-flavoured message passing between the node threads of a simulated
// cluster.  Point-to-point sends are eager (payload copied into the
// receiver's mailbox), collectives are built on point-to-point with
// explicit sources so the virtual-time propagation stays deterministic.
//
// Simulated-time semantics: a send of b bytes keeps the sender busy for
// b/bandwidth seconds and arrives at sender_time + latency + b/bandwidth;
// the receiver's clock merges the arrival time.  Self-sends are free (the
// algorithms keep node-local data on local disk anyway).
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "net/mailbox.h"
#include "net/network_model.h"
#include "net/virtual_clock.h"

namespace paladin::fault {
class FaultInjector;
}  // namespace paladin::fault

namespace paladin::net {

/// Shared transport state: one mailbox per node plus the link model.
class Fabric {
 public:
  Fabric(u32 node_count, NetworkModel model) : model_(model) {
    PALADIN_EXPECTS(node_count > 0);
    boxes_.reserve(node_count);
    for (u32 i = 0; i < node_count; ++i) {
      boxes_.push_back(std::make_unique<Mailbox>());
    }
  }

  u32 size() const { return static_cast<u32>(boxes_.size()); }
  const NetworkModel& model() const { return model_; }
  Mailbox& mailbox(u32 rank) { return *boxes_.at(rank); }

  /// Poisons every mailbox; called when any node throws so that peers
  /// blocked in receive() fail with MailboxPoisoned instead of hanging.
  void abort_all() {
    for (auto& b : boxes_) b->poison();
  }

 private:
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  NetworkModel model_;
};

/// A rank/tag namespace over a subset of a Fabric's mailboxes — the unit
/// of multi-job multiplexing (src/service).  A Communicator constructed
/// with a group sees a `ranks.size()`-node cluster: its local rank r maps
/// to physical mailbox `ranks[r]`, and every tag is shifted by `tag_base`
/// on the wire (non-negative user tags up, reserved negative collective
/// tags down), so two groups with distinct tag bases can never consume
/// each other's packets even when they time-share the same mailboxes.
/// An absent group (the default) is the identity mapping with tag_base 0 —
/// the original single-job behaviour, bit for bit.
struct CommGroup {
  /// Physical fabric ranks, indexed by group-local rank.  Must be distinct
  /// and within the fabric; need not be sorted or contiguous.
  std::vector<u32> ranks;
  /// Wire-tag offset; choose a distinct multiple of a stride wider than
  /// any tag an algorithm uses (service uses 1024) per concurrent group.
  /// Shifted tags stay clear of the mailbox wildcard kAnyTag == -1 for
  /// any non-negative base.
  int tag_base = 0;
};

/// Per-rank traffic totals, maintained on the two funnels every send and
/// receive already pass through (deliver_payload / charge_receive), so the
/// counts cannot diverge from the cost arithmetic.  Self-deliveries are
/// included in message/byte totals and broken out separately because they
/// are free in simulated time.
struct CommStats {
  u64 messages_sent = 0;
  u64 bytes_sent = 0;
  u64 messages_received = 0;
  u64 bytes_received = 0;
  u64 self_deliveries = 0;
};

class Communicator {
 public:
  Communicator(Fabric& fabric, u32 rank, VirtualClock& clock)
      : fabric_(&fabric), rank_(rank), clock_(&clock) {
    PALADIN_EXPECTS(rank < fabric.size());
  }

  /// Group-scoped communicator: `rank` is group-local, all mailbox and tag
  /// traffic is translated through `group` (see CommGroup).
  Communicator(Fabric& fabric, u32 rank, VirtualClock& clock, CommGroup group)
      : fabric_(&fabric), rank_(rank), clock_(&clock),
        group_(std::move(group)) {
    PALADIN_EXPECTS(!group_->ranks.empty());
    PALADIN_EXPECTS(rank < group_->ranks.size());
    for (u32 g : group_->ranks) PALADIN_EXPECTS(g < fabric.size());
    PALADIN_EXPECTS(group_->tag_base >= 0);
  }

  u32 rank() const { return rank_; }
  u32 size() const {
    return group_ ? static_cast<u32>(group_->ranks.size()) : fabric_->size();
  }
  VirtualClock& clock() { return *clock_; }

  /// Point-to-point send.  Advances the sender's clock by the wire
  /// occupancy and stamps the packet with its simulated arrival time.
  void send_bytes(u32 dst, int tag, std::span<const u8> bytes);

  /// Blocking receive from a specific source: merges the arrival
  /// timestamp into the node clock and adds the per-message receive
  /// overhead (skipped for self-delivery).
  Packet recv_packet(u32 src, int tag);

  /// High-water mark of payload bytes queued in this rank's inbox — the
  /// observable the flow-control stress test pins.
  u64 inbox_peak_bytes() const {
    return fabric_->mailbox(to_global(rank_)).max_pending_bytes();
  }

  /// Cumulative traffic totals for this rank (sends + receives).  Always
  /// counts *logical* messages and payload bytes: fault-injected
  /// retransmissions, duplicate frames and sequencing headers are costed
  /// and tallied by the fault layer, never here.
  const CommStats& stats() const { return stats_; }

  /// Attach the node's fault injector (nullptr detaches).  With an active
  /// net plan every non-self send is wrapped in a sequence-numbered frame;
  /// dropped frames are retransmitted (charged a timeout + resend to the
  /// sending clock), duplicates are discarded by the receiver's sequence
  /// check, delays push the arrival timestamp.  The plan is cluster-wide,
  /// so sender and receiver always agree on whether a stream is framed.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Harvest-time sweep of this rank's inbox: discards (and counts) any
  /// duplicate frames still queued behind the last message the algorithm
  /// consumed on their stream.  Leftover non-duplicates are dropped
  /// uncounted.  Returns the number of duplicates discarded.  Call only
  /// after the run completed (all sends done, no poison).
  u64 drain_discard_dups();

  template <Record T>
  void send_value(u32 dst, int tag, const T& value) {
    send_bytes(dst, tag, bytes_of<T>({&value, 1}));
  }

  template <Record T>
  T recv_value(u32 src, int tag) {
    return value_of<T>(recv_packet(src, tag));
  }

  template <Record T>
  void send_records(u32 dst, int tag, std::span<const T> records) {
    send_bytes(dst, tag, bytes_of(records));
  }

  template <Record T>
  std::vector<T> recv_records(u32 src, int tag) {
    return records_of<T>(recv_packet(src, tag));
  }

  // -- Collectives (linear algorithms rooted at one node). ---------------

  /// All nodes wait; on return every clock equals the max participant
  /// clock plus the synchronisation cost.
  void barrier();

  /// Root's value is returned on every node.
  template <Record T>
  T bcast_value(T value, u32 root) {
    return bcast_records<T>({value}, root).at(0);
  }

  /// Root's records are returned on every node.
  template <Record T>
  std::vector<T> bcast_records(std::vector<T> records, u32 root) {
    if (rank_ == root) {
      for (u32 i = 0; i < size(); ++i) {
        if (i != root) {
          send_internal(i, kTagBcast, bytes_of(std::span<const T>(records)));
        }
      }
      return records;
    }
    return records_of<T>(recv_packet(root, kTagBcast));
  }

  /// Concatenates every node's records at the root, in rank order.  Returns
  /// the concatenation at root, an empty vector elsewhere.
  template <Record T>
  std::vector<T> gather_records(std::span<const T> mine, u32 root) {
    if (rank_ != root) {
      send_internal(root, kTagGather, bytes_of(mine));
      return {};
    }
    std::vector<T> all;
    for (u32 i = 0; i < size(); ++i) {
      if (i == root) {
        all.insert(all.end(), mine.begin(), mine.end());
      } else {
        std::vector<T> part = records_of<T>(recv_packet(i, kTagGather));
        all.insert(all.end(), part.begin(), part.end());
      }
    }
    return all;
  }

  /// Personalised all-to-all: outgoing[i] goes to rank i; returns
  /// incoming[i] received from rank i (incoming[rank] = outgoing[rank]).
  template <Record T>
  std::vector<std::vector<T>> alltoall_records(
      std::vector<std::vector<T>> outgoing) {
    PALADIN_EXPECTS(outgoing.size() == size());
    for (u32 i = 0; i < size(); ++i) {
      if (i != rank_) {
        send_internal(i, kTagAllToAll,
                      bytes_of(std::span<const T>(outgoing[i])));
      }
    }
    std::vector<std::vector<T>> incoming(size());
    incoming[rank_] = std::move(outgoing[rank_]);
    for (u32 i = 0; i < size(); ++i) {
      if (i != rank_) {
        incoming[i] = records_of<T>(recv_packet(i, kTagAllToAll));
      }
    }
    return incoming;
  }

  double allreduce_max(double value);
  u64 allreduce_sum(u64 value);

  /// Reserved tags for collectives; user tags must be non-negative.
  static constexpr int kTagBarrier = -2;
  static constexpr int kTagBcast = -3;
  static constexpr int kTagGather = -4;
  static constexpr int kTagAllToAll = -5;
  static constexpr int kTagReduce = -6;

 private:
  // -- Group translation (identity when no group is attached). -----------
  //
  // All ranks an algorithm sees are group-local; the mailbox array, the
  // Packet::source field inside mailboxes, and the fault layer's stream
  // keys are physical/wire space.  Translation happens exactly at the two
  // funnels (deliver_payload / the receive loops), so the algorithms and
  // the collectives above stay group-oblivious.

  /// Group-local rank → physical fabric rank.
  u32 to_global(u32 local) const {
    return group_ ? group_->ranks[local] : local;
  }
  /// Physical fabric rank → group-local rank.  The peer must be a member
  /// (tag namespacing guarantees only group traffic is ever matched).
  u32 to_local(u32 global) const {
    if (!group_) return global;
    for (u32 i = 0; i < group_->ranks.size(); ++i) {
      if (group_->ranks[i] == global) return i;
    }
    PALADIN_ASSERT(false);
    return global;
  }
  /// Logical tag → wire tag: user tags shift up by tag_base, reserved
  /// negative collective tags shift down (both injective, and a wire tag
  /// never equals the kAnyTag wildcard for a non-negative base).
  int to_wire_tag(int tag) const {
    if (!group_) return tag;
    return tag >= 0 ? tag + group_->tag_base : tag - group_->tag_base;
  }
  /// Wire tag → logical tag (inverse of to_wire_tag).
  int to_logical_tag(int tag) const {
    if (!group_) return tag;
    return tag >= group_->tag_base ? tag - group_->tag_base
                                   : tag + group_->tag_base;
  }
  /// Wire space → group space, applied to every packet handed back to the
  /// algorithm (after the wire-space accounting in charge_receive).
  void localize_packet(Packet& p) const {
    if (!group_) return;
    p.source = static_cast<int>(to_local(static_cast<u32>(p.source)));
    p.tag = to_logical_tag(p.tag);
  }

  /// send_bytes without the user-tag check: the collectives send on the
  /// reserved negative tags.  (Receives need no twin: recv_packet accepts
  /// any tag.)
  void send_internal(u32 dst, int tag, std::span<const u8> bytes);

  /// Linear allreduce through rank 0: everyone reports, rank 0 folds in
  /// rank order with `op`, then sends the result back to everyone.
  template <Record V, typename Op>
  V allreduce(V value, Op op);

  template <Record T>
  static std::span<const u8> bytes_of(std::span<const T> records) {
    return {reinterpret_cast<const u8*>(records.data()),
            records.size_bytes()};
  }

  template <Record T>
  static T value_of(const Packet& p) {
    PALADIN_ASSERT(p.payload.size() == sizeof(T));
    T out;
    std::memcpy(&out, p.payload.data(), sizeof(T));
    return out;
  }

  template <Record T>
  static std::vector<T> records_of(const Packet& p) {
    PALADIN_ASSERT(p.payload.size() % sizeof(T) == 0);
    std::vector<T> out(p.payload.size() / sizeof(T));
    // An empty payload's data() may be null, and memcpy from null is UB.
    if (!out.empty()) {
      std::memcpy(out.data(), p.payload.data(), p.payload.size());
    }
    return out;
  }

  /// Core send: stamps and delivers an already-materialised payload,
  /// charging the node clock.  All send paths funnel through here so the
  /// cost arithmetic cannot diverge between them.
  void deliver_payload(u32 dst, int tag, std::vector<u8>&& payload);
  /// Core receive-side accounting: merges the arrival into the node clock.
  void charge_receive(const Packet& p);

  /// Stable key for one directed (peer, tag) message stream.
  static u64 stream_key(u32 peer, int tag) {
    return (u64{peer} << 32) ^ static_cast<u64>(static_cast<i64>(tag));
  }
  /// Receiver-side frame check: strips the sequence header and returns
  /// true for a logical message, or counts-and-returns false for a
  /// duplicate frame (payload left as-is, caller discards the packet).
  bool unframe_accept(Packet& p);

  Fabric* fabric_;
  u32 rank_;
  VirtualClock* clock_;
  /// Rank/tag namespace; absent = identity over the whole fabric.
  std::optional<CommGroup> group_;
  CommStats stats_;
  fault::FaultInjector* fault_ = nullptr;
  bool net_faults_ = false;  ///< cached fault_->plan().net_active()
  /// Next sequence number per outgoing (dst, tag) stream / next expected
  /// per incoming (src, tag) stream.  Single-threaded per rank by design
  /// (each Communicator is owned by one node thread).
  std::unordered_map<u64, u64> send_seq_;
  std::unordered_map<u64, u64> recv_seq_;
};

}  // namespace paladin::net
