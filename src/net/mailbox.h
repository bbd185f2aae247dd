// Point-to-point message transport between node threads.  A Packet carries
// real payload bytes plus the simulated arrival time computed at send; the
// receiver merges that timestamp into its virtual clock.  Matching is by
// (source, tag) with wildcards, like MPI_Recv.  A mailbox can be poisoned
// when a peer node dies, so blocked receivers wake with MailboxPoisoned
// instead of deadlocking the whole cluster run.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "base/types.h"

namespace paladin::net {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Packet {
  int source = 0;
  int tag = 0;
  double arrival_time = 0.0;  ///< simulated absolute arrival time
  std::vector<u8> payload;
};

/// Thrown out of receive() after poison(); the cluster runtime translates
/// it into an aborted run.
class MailboxPoisoned : public std::runtime_error {
 public:
  MailboxPoisoned() : std::runtime_error("mailbox poisoned: a peer aborted") {}
};

/// One node's inbox.  Senders push from their own threads; the owning node
/// blocks in receive() until a matching packet exists.  FIFO per
/// (source, tag) pair, like MPI's non-overtaking rule.
class Mailbox {
 public:
  void deliver(Packet packet) {
    {
      std::lock_guard lock(mutex_);
      pending_bytes_ += packet.payload.size();
      max_pending_bytes_ = std::max(max_pending_bytes_, pending_bytes_);
      queue_.push_back(std::move(packet));
    }
    cv_.notify_all();
  }

  /// Delivers a packet and its duplicate in one critical section, so no
  /// receiver can ever observe (and consume) the original without its
  /// duplicate already being queued behind it.  The fault layer needs this
  /// atomicity for the frames_duplicated == dups_discarded invariant: with
  /// two separate deliver() calls the receiver could consume the original,
  /// finish its run and sweep its mailbox before the duplicate lands.
  void deliver_with_duplicate(Packet packet, Packet duplicate) {
    {
      std::lock_guard lock(mutex_);
      pending_bytes_ += packet.payload.size() + duplicate.payload.size();
      max_pending_bytes_ = std::max(max_pending_bytes_, pending_bytes_);
      queue_.push_back(std::move(packet));
      queue_.push_back(std::move(duplicate));
    }
    cv_.notify_all();
  }

  /// Blocks until a packet matching (source, tag) arrives and removes it.
  /// Throws MailboxPoisoned if poison() was called (before or during the
  /// wait).
  Packet receive(int source, int tag) {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (std::optional<Packet> p = take_matching(source, tag)) {
        return std::move(*p);
      }
      if (poisoned_) throw MailboxPoisoned();
      cv_.wait(lock);
    }
  }

  /// Non-blocking receive: removes and returns a matching packet if one is
  /// queued, std::nullopt otherwise.  Throws MailboxPoisoned once the box
  /// is poisoned and no matching packet remains.
  std::optional<Packet> try_receive(int source, int tag) {
    std::lock_guard lock(mutex_);
    if (std::optional<Packet> p = take_matching(source, tag)) return p;
    if (poisoned_) throw MailboxPoisoned();
    return std::nullopt;
  }

  /// Wakes every blocked receiver with MailboxPoisoned and makes all
  /// future receives of unmatched packets fail fast.
  void poison() {
    {
      std::lock_guard lock(mutex_);
      poisoned_ = true;
    }
    cv_.notify_all();
  }

  /// Number of queued packets (diagnostics; racy by nature).
  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

  /// Payload bytes currently queued (delivered but not yet received).
  u64 pending_bytes() const {
    std::lock_guard lock(mutex_);
    return pending_bytes_;
  }

  /// High-water mark of pending_bytes() over the box's lifetime.  The flow
  /// control stress test pins this against the credit window's byte cap.
  u64 max_pending_bytes() const {
    std::lock_guard lock(mutex_);
    return max_pending_bytes_;
  }

 private:
  /// Removes and returns the first packet matching (source, tag); caller
  /// holds mutex_.
  std::optional<Packet> take_matching(int source, int tag) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const bool src_ok = source == kAnySource || it->source == source;
      const bool tag_ok = tag == kAnyTag || it->tag == tag;
      if (src_ok && tag_ok) {
        Packet p = std::move(*it);
        queue_.erase(it);
        pending_bytes_ -= p.payload.size();
        return p;
      }
    }
    return std::nullopt;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Packet> queue_;
  u64 pending_bytes_ = 0;
  u64 max_pending_bytes_ = 0;
  bool poisoned_ = false;
};

}  // namespace paladin::net
