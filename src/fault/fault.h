// Deterministic fault injection and the bookkeeping of its recovery.
//
// The paper's cost bounds (the Eq. 2 distribution and the per-step I/O
// budgets) assume disks and links that never fail; this module is the
// robustness axis: a seeded FaultPlan describes transient disk failures,
// block corruption on the read path, and lossy/duplicating/delaying links,
// and a per-node FaultInjector turns the plan into *reproducible* fault
// decisions.  The recovery layers that mask the faults live at the two
// funnels every byte already passes through — pdm::Disk (bounded
// retry-with-backoff, fingerprint-verified re-reads) and net::Communicator
// (sequence-numbered frames, timeout-charged retransmission, duplicate
// suppression) — and count their work here, so the test tier can assert
// that every injected fault was matched by a recovery action.
//
// Determinism contract (docs/ROBUSTNESS.md): every decision is a pure hash
// of (plan seed, node rank, operation identity, attempt index) — never of
// wall-clock time, thread scheduling, or a shared stateful RNG.  Operation
// identities (a disk block of a named file; the k-th message on a
// (destination, tag) stream) are themselves deterministic per
// (seed, plan, config), so a faulted run's makespan, digests and IoStats
// are bitwise-reproducible.  An empty plan never reaches a decision
// function: the hooks test FaultPlan::*_active() first, so the empty-plan
// code path is byte-for-byte the pre-fault code path.
#pragma once

#include <string_view>

#include "base/checksum.h"
#include "base/contracts.h"
#include "base/rng.h"
#include "base/types.h"

namespace paladin::fault {

/// Disk-side fault rates.  Probabilities are per *operation attempt*; a
/// faulty attempt is retried, and max_consecutive_faults caps how many
/// attempts in a row the injector may fail, so recovery is bounded by
/// construction (at most max_consecutive_faults retries per operation).
struct DiskFaultSpec {
  double read_fail_prob = 0.0;    ///< transient read error per attempt
  double write_fail_prob = 0.0;   ///< transient write error per attempt
  double corrupt_prob = 0.0;      ///< read-path block corruption per attempt
  u32 max_consecutive_faults = 3;
  /// Virtual seconds charged for the first retry of an operation; doubles
  /// per further consecutive retry (exponential backoff).
  double retry_backoff_seconds = 0.002;

  bool active() const {
    return read_fail_prob > 0.0 || write_fail_prob > 0.0 ||
           corrupt_prob > 0.0;
  }
};

/// Link-side fault rates.  Probabilities are per data frame; a dropped
/// frame is retransmitted by the sender after a (virtual) ack timeout, a
/// duplicated frame is suppressed by the receiver's sequence check, a
/// delayed frame arrives delay_seconds late.  max_consecutive_drops caps
/// the retransmissions of one frame, mirroring the disk bound.
struct NetFaultSpec {
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  double delay_seconds = 0.001;
  u32 max_consecutive_drops = 3;
  /// Virtual seconds the sender waits before concluding a frame was lost.
  double retransmit_timeout_seconds = 0.005;

  bool active() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || delay_prob > 0.0;
  }
};

/// A complete, seeded description of the adversary.  Default-constructed
/// (all rates zero) means "no faults": the hooks never consult the
/// injector and behaviour is bitwise-identical to a build without one.
struct FaultPlan {
  u64 seed = 0;
  DiskFaultSpec disk;
  NetFaultSpec net;

  bool disk_active() const { return disk.active(); }
  bool net_active() const { return net.active(); }
  bool active() const { return disk_active() || net_active(); }
};

/// Injection and recovery tallies, one struct per node.  The soak tier's
/// core invariant: cluster-wide, every injected fault has a matching
/// recovery action (reads retried, corruptions re-read, drops
/// retransmitted, duplicates discarded).
struct FaultCounters {
  // Injected.
  u64 disk_read_faults = 0;
  u64 disk_write_faults = 0;
  u64 disk_corruptions = 0;
  u64 net_frames_dropped = 0;
  u64 net_frames_duplicated = 0;
  u64 net_frames_delayed = 0;
  // Recovered.
  u64 disk_read_retries = 0;
  u64 disk_write_retries = 0;
  u64 disk_rereads = 0;
  u64 net_retransmits = 0;
  u64 net_dups_discarded = 0;

  u64 total_injected() const {
    return disk_read_faults + disk_write_faults + disk_corruptions +
           net_frames_dropped + net_frames_duplicated + net_frames_delayed;
  }

  bool operator==(const FaultCounters&) const = default;

  FaultCounters& operator+=(const FaultCounters& o) {
    disk_read_faults += o.disk_read_faults;
    disk_write_faults += o.disk_write_faults;
    disk_corruptions += o.disk_corruptions;
    net_frames_dropped += o.net_frames_dropped;
    net_frames_duplicated += o.net_frames_duplicated;
    net_frames_delayed += o.net_frames_delayed;
    disk_read_retries += o.disk_read_retries;
    disk_write_retries += o.disk_write_retries;
    disk_rereads += o.disk_rereads;
    net_retransmits += o.net_retransmits;
    net_dups_discarded += o.net_dups_discarded;
    return *this;
  }
};

/// Stable 64-bit name hash for disk operation identities (the same FNV-1a
/// construction MultisetChecksum uses for record bytes).
inline u64 name_hash(std::string_view name) {
  return hash_bytes_fnv1a(reinterpret_cast<const u8*>(name.data()),
                          name.size());
}

/// One node's deterministic fault oracle plus its fault/recovery tallies.
/// Owned by the node context; pdm::Disk and net::Communicator hold
/// non-owning pointers (null when no plan is active).
class FaultInjector {
 public:
  /// Operation kinds, mixed into every decision so the same identity
  /// numbers on different paths draw independent streams.
  enum class Op : u64 {
    kDiskRead = 1,
    kDiskWrite = 2,
    kDiskCorrupt = 3,
    kNetDrop = 4,
    kNetDup = 5,
    kNetDelay = 6,
  };

  FaultInjector(const FaultPlan& plan, u32 rank)
      : plan_(plan), rank_(rank) {}

  const FaultPlan& plan() const { return plan_; }
  u32 rank() const { return rank_; }
  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

  /// Consecutive transient read failures before the read of (file, offset)
  /// succeeds; in [0, max_consecutive_faults].  Stateless: every read of
  /// the same location replays the same fault pattern.
  u32 read_faults(u64 file_hash, u64 offset) const {
    return faults_before_success(Op::kDiskRead, file_hash, offset,
                                 plan_.disk.read_fail_prob,
                                 plan_.disk.max_consecutive_faults);
  }

  u32 write_faults(u64 file_hash, u64 offset) const {
    return faults_before_success(Op::kDiskWrite, file_hash, offset,
                                 plan_.disk.write_fail_prob,
                                 plan_.disk.max_consecutive_faults);
  }

  /// Whether attempt `attempt` of reading block `block` of `file` comes
  /// back corrupted.  Guaranteed false once attempt reaches
  /// max_consecutive_faults, so fingerprint-verified re-reads terminate.
  bool corrupts(u64 file_hash, u64 block, u32 attempt) const {
    if (attempt >= plan_.disk.max_consecutive_faults) return false;
    return decide(Op::kDiskCorrupt, file_hash, block, attempt,
                  plan_.disk.corrupt_prob);
  }

  /// Consecutive losses of frame `seq` on the (dst, tag) stream before a
  /// transmission gets through; in [0, max_consecutive_drops].
  u32 frame_drops(u32 dst, int tag, u64 seq) const {
    return faults_before_success(Op::kNetDrop, stream_id(dst, tag), seq,
                                 plan_.net.drop_prob,
                                 plan_.net.max_consecutive_drops);
  }

  bool frame_duplicated(u32 dst, int tag, u64 seq) const {
    return decide(Op::kNetDup, stream_id(dst, tag), seq, 0,
                  plan_.net.duplicate_prob);
  }

  bool frame_delayed(u32 dst, int tag, u64 seq) const {
    return decide(Op::kNetDelay, stream_id(dst, tag), seq, 0,
                  plan_.net.delay_prob);
  }

  /// Exponential backoff charged for the k-th consecutive retry (k from 0).
  double backoff_seconds(u32 k) const {
    return plan_.disk.retry_backoff_seconds *
           static_cast<double>(u64{1} << (k < 16 ? k : 16));
  }

 private:
  /// Uniform fraction in [0, 1) from a decision-point identity.
  double fraction(Op op, u64 a, u64 b, u64 attempt) const {
    u64 h = mix64(plan_.seed + 0x9e3779b97f4a7c15ULL *
                                   static_cast<u64>(op));
    h = mix64(h ^ (u64{rank_} + 0x517cc1b727220a95ULL));
    h = mix64(h ^ a);
    h = mix64(h ^ (b + 0x2545f4914f6cdd1dULL));
    h = mix64(h ^ attempt);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  bool decide(Op op, u64 a, u64 b, u64 attempt, double prob) const {
    return prob > 0.0 && fraction(op, a, b, attempt) < prob;
  }

  u32 faults_before_success(Op op, u64 a, u64 b, double prob,
                            u32 cap) const {
    if (prob <= 0.0) return 0;
    u32 k = 0;
    while (k < cap && decide(op, a, b, k, prob)) ++k;
    return k;
  }

  static u64 stream_id(u32 dst, int tag) {
    return (u64{dst} << 32) ^ static_cast<u64>(static_cast<i64>(tag));
  }

  FaultPlan plan_;
  u32 rank_;
  FaultCounters counters_;
};

}  // namespace paladin::fault
