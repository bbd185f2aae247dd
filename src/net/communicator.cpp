#include "net/communicator.h"

#include <algorithm>

#include "fault/fault.h"

namespace paladin::net {

namespace {

/// 8-byte little-endian sequence header prepended to every framed payload.
constexpr std::size_t kFrameHeaderBytes = sizeof(u64);

void frame_payload(std::vector<u8>& payload, u64 seq) {
  u8 header[kFrameHeaderBytes];
  std::memcpy(header, &seq, kFrameHeaderBytes);
  payload.insert(payload.begin(), header, header + kFrameHeaderBytes);
}

u64 frame_seq(const Packet& p) {
  PALADIN_ASSERT(p.payload.size() >= kFrameHeaderBytes);
  u64 seq;
  std::memcpy(&seq, p.payload.data(), kFrameHeaderBytes);
  return seq;
}

}  // namespace

void Communicator::set_fault_injector(fault::FaultInjector* injector) {
  fault_ = injector;
  net_faults_ = fault_ != nullptr && fault_->plan().net_active();
}

void Communicator::send_bytes(u32 dst, int tag, std::span<const u8> bytes) {
  PALADIN_EXPECTS(dst < size());
  PALADIN_EXPECTS_MSG(tag >= 0, "negative tags are reserved for collectives");
  send_internal(dst, tag, bytes);
}

void Communicator::send_internal(u32 dst, int tag,
                                 std::span<const u8> bytes) {
  deliver_payload(*clock_, dst, tag, std::vector<u8>(bytes.begin(),
                                                     bytes.end()));
}

void Communicator::deliver_payload(VirtualClock& clk, u32 dst, int tag,
                                   std::vector<u8>&& payload) {
  // Mailbox contents live in physical/wire space: source is the sender's
  // fabric rank and the tag carries the group's tag_base shift, so two
  // groups sharing a mailbox can never match each other's packets.  Both
  // translations are the identity without a group.
  const u32 dst_g = to_global(dst);
  const int wire_tag = to_wire_tag(tag);
  Packet p;
  p.source = static_cast<int>(to_global(rank_));
  p.tag = wire_tag;
  p.payload = std::move(payload);
  ++stats_.messages_sent;
  stats_.bytes_sent += p.payload.size();
  if (dst == rank_) {
    // Self-delivery: no wire, no cost — and no framing; the fault layer
    // exempts self-sends (a thread cannot lose a message to itself).
    ++stats_.self_deliveries;
    p.arrival_time = clk.now();
    fabric_->mailbox(dst_g).deliver(std::move(p));
    return;
  }
  const NetworkModel& net = fabric_->model();
  const double wire =
      static_cast<double>(p.payload.size()) / net.bandwidth_bytes_per_second;
  if (net_faults_) {
    const auto& spec = fault_->plan().net;
    fault::FaultCounters& c = fault_->counters();
    const u64 seq = send_seq_[stream_key(dst_g, wire_tag)]++;
    // Drops are sensed at the sender (the simulation stands in for the
    // ack timeout): each lost copy costs the timeout wait plus a full
    // retransmission before the surviving copy goes out below.
    const u32 drops = fault_->frame_drops(dst_g, wire_tag, seq);
    for (u32 k = 0; k < drops; ++k) {
      ++c.net_frames_dropped;
      ++c.net_retransmits;
      clk.advance(spec.retransmit_timeout_seconds +
                  net.per_message_overhead_seconds + wire);
    }
    double delay = 0.0;
    if (fault_->frame_delayed(dst_g, wire_tag, seq)) {
      ++c.net_frames_delayed;
      delay = spec.delay_seconds;
    }
    // Duplicates model a spurious retransmission: only on non-empty
    // logical payloads, because empty frames (pipelined EOS markers and
    // tail acks) may legitimately never be consumed, and an unconsumed
    // duplicate would never meet its discarding receiver.
    const bool dup = !p.payload.empty() &&
                     fault_->frame_duplicated(dst_g, wire_tag, seq);
    frame_payload(p.payload, seq);
    clk.advance(net.per_message_overhead_seconds + wire);
    p.arrival_time = clk.now() + net.latency_seconds + delay;
    if (dup) {
      ++c.net_frames_duplicated;
      Packet copy;
      copy.source = p.source;
      copy.tag = p.tag;
      copy.payload = p.payload;
      // The spurious resend occupies the wire like the original and
      // lands right behind it (same stream, FIFO mailbox).  Both copies
      // are enqueued in one critical section so the receiver cannot
      // consume the original and finish before the duplicate exists.
      clk.advance(net.per_message_overhead_seconds + wire);
      copy.arrival_time = clk.now() + net.latency_seconds + delay;
      fabric_->mailbox(dst_g).deliver_with_duplicate(std::move(p),
                                                     std::move(copy));
      return;
    }
    fabric_->mailbox(dst_g).deliver(std::move(p));
    return;
  }
  // Sender pays the per-message software overhead plus the wire
  // occupancy; the packet lands one latency after it left.
  clk.advance(net.per_message_overhead_seconds + wire);
  p.arrival_time = clk.now() + net.latency_seconds;
  fabric_->mailbox(dst_g).deliver(std::move(p));
}

void Communicator::isend_payload(VirtualClock& clk, u32 dst, int tag,
                                 std::vector<u8>&& payload) {
  PALADIN_EXPECTS(dst < size());
  PALADIN_EXPECTS_MSG(tag >= 0, "negative tags are reserved for collectives");
  deliver_payload(clk, dst, tag, std::move(payload));
}

void Communicator::host_send(u32 dst, int tag, std::vector<u8>&& payload) {
  PALADIN_EXPECTS(dst < size());
  PALADIN_EXPECTS_MSG(tag >= 0, "negative tags are reserved for collectives");
  Packet p;
  p.source = static_cast<int>(to_global(rank_));
  p.tag = to_wire_tag(tag);
  p.payload = std::move(payload);
  fabric_->mailbox(to_global(dst)).deliver(std::move(p));
}

std::optional<std::vector<u8>> Communicator::host_try_recv(u32 src, int tag) {
  PALADIN_EXPECTS(src < size());
  std::optional<Packet> p =
      fabric_->mailbox(to_global(rank_))
          .try_receive(static_cast<int>(to_global(src)), to_wire_tag(tag));
  if (!p.has_value()) return std::nullopt;
  return std::move(p->payload);
}

void Communicator::charge_receive(VirtualClock& clk, const Packet& p) {
  // Runs on packets still in wire space: p.source is a fabric rank.
  ++stats_.messages_received;
  stats_.bytes_received += p.payload.size();
  clk.merge(p.arrival_time);
  if (p.source != static_cast<int>(to_global(rank_))) {
    clk.advance(fabric_->model().per_message_overhead_seconds);
  }
}

bool Communicator::unframe_accept(Packet& p) {
  // Wire space: never framed when the sender is this node itself.
  if (p.source == static_cast<int>(to_global(rank_))) return true;
  const u64 seq = frame_seq(p);
  u64& expected = recv_seq_[stream_key(static_cast<u32>(p.source), p.tag)];
  if (seq < expected) {
    // A duplicate of an already-delivered frame: discard.  This is the
    // receiver half of the retransmission protocol and the recovery
    // action the soak tier matches against net_frames_duplicated.
    ++fault_->counters().net_dups_discarded;
    return false;
  }
  // Per-(src, tag) FIFO delivery plus in-order sender sequencing make a
  // gap impossible; anything else is a transport bug.
  PALADIN_ASSERT(seq == expected);
  ++expected;
  p.payload.erase(p.payload.begin(),
                  p.payload.begin() +
                      static_cast<std::ptrdiff_t>(sizeof(u64)));
  return true;
}

u64 Communicator::drain_discard_dups() {
  if (!net_faults_) return 0;
  u64 discarded = 0;
  // Anything still queued is either an unconsumed original (a tail ack or
  // a trailing message the algorithm deliberately never received) or a
  // duplicate queued behind its original.  Both copies of a duplicated
  // frame are delivered back-to-back in deliver_payload and the mailbox
  // pops in delivery order, so an original always drains before its dup;
  // treating the drain of an original as its consumption (advancing the
  // stream's expected seq) therefore exposes every trailing duplicate as
  // seq < expected, exactly like the in-band discard.
  while (std::optional<Packet> p =
             fabric_->mailbox(to_global(rank_))
                 .try_receive(kAnySource, kAnyTag)) {
    if (p->source == static_cast<int>(to_global(rank_))) continue;
    const u64 seq = frame_seq(*p);
    u64& expected = recv_seq_[stream_key(static_cast<u32>(p->source), p->tag)];
    if (seq < expected) {
      ++fault_->counters().net_dups_discarded;
      ++discarded;
    } else {
      expected = seq + 1;
    }
  }
  return discarded;
}

Packet Communicator::recv_packet(u32 src, int tag) {
  PALADIN_EXPECTS(src < size());
  for (;;) {
    Packet p = fabric_->mailbox(to_global(rank_))
                   .receive(static_cast<int>(to_global(src)),
                            to_wire_tag(tag));
    if (net_faults_ && !unframe_accept(p)) continue;
    charge_receive(*clock_, p);
    localize_packet(p);
    return p;
  }
}

std::optional<Packet> Communicator::try_recv_packet_on(VirtualClock& clk,
                                                       u32 src, int tag) {
  PALADIN_EXPECTS(src < size());
  for (;;) {
    std::optional<Packet> p =
        fabric_->mailbox(to_global(rank_))
            .try_receive(static_cast<int>(to_global(src)), to_wire_tag(tag));
    if (!p.has_value()) return std::nullopt;
    if (net_faults_ && !unframe_accept(*p)) continue;
    charge_receive(clk, *p);
    localize_packet(*p);
    return p;
  }
}

void Communicator::barrier() {
  // Everyone reports to rank 0 (rank 0's clock becomes the max), then
  // rank 0 releases everyone; the release carries the max time.
  constexpr u32 root = 0;
  const u8 token = 0;
  if (rank_ == root) {
    for (u32 i = 1; i < size(); ++i) {
      recv_packet(i, kTagBarrier);
    }
    for (u32 i = 1; i < size(); ++i) {
      send_internal(i, kTagBarrier, std::span<const u8>(&token, 1));
    }
  } else {
    send_internal(root, kTagBarrier, std::span<const u8>(&token, 1));
    recv_packet(root, kTagBarrier);
  }
}

template <Record V, typename Op>
V Communicator::allreduce(V value, Op op) {
  constexpr u32 root = 0;
  if (rank_ == root) {
    for (u32 i = 1; i < size(); ++i) {
      value = op(value, value_of<V>(recv_packet(i, kTagReduce)));
    }
    for (u32 i = 1; i < size(); ++i) {
      send_internal(i, kTagReduce, bytes_of<V>({&value, 1}));
    }
    return value;
  }
  send_internal(root, kTagReduce, bytes_of<V>({&value, 1}));
  return value_of<V>(recv_packet(root, kTagReduce));
}

double Communicator::allreduce_max(double value) {
  return allreduce(value, [](double a, double b) { return std::max(a, b); });
}

u64 Communicator::allreduce_sum(u64 value) {
  return allreduce(value, [](u64 a, u64 b) { return a + b; });
}

}  // namespace paladin::net
