// Every user message tag the sort algorithms send on, in one table.
//
// A tag names one message stream between two nodes.  Streams that can
// meet within one Cluster::run must not share a number: a protocol may
// finish with packets still queued (the fused pipeline leaves up to a
// window of acks unconsumed by design), and a later protocol on the same
// tag would receive them as its own.  The Communicator reserves the
// negative tags for its collectives, so user tags are non-negative.
//
// The numbers are part of a faulted run's result: the fault injector
// hashes the wire tag into every frame decision, so renumbering a stream
// that a faulted run sends on changes that run (and the
// tests/golden/obs_faults.* fixtures).
#pragma once

#include <algorithm>
#include <array>

namespace paladin::core {

// Step 4 spill exchange (core/redistribute.h).
inline constexpr int kTagRedistributeHeader = 40;
inline constexpr int kTagRedistributeData = 41;
inline constexpr int kTagRedistributeAck = 42;
// Fused steps 3–5 (core/pipeline.h): the charged protocol, then the data
// pass's uncharged traffic.  A peer's pricing pass may start while this
// node's data pass still runs, so the passes share no tag.
inline constexpr int kTagPipelineData = 50;
inline constexpr int kTagPipelineAck = 51;
inline constexpr int kTagPipelineHostData = 52;
inline constexpr int kTagPipelineHostAck = 53;
// Bucket-layout output collection (core/backend.h).
inline constexpr int kTagCollectHeader = 54;
inline constexpr int kTagCollectData = 55;
// Input staging and slice gathering (core/scatter_gather.h).
inline constexpr int kTagScatterHeader = 56;
inline constexpr int kTagScatterData = 57;
inline constexpr int kTagGatherHeader = 58;
inline constexpr int kTagGatherData = 59;
// Multi-level splitter digests (core/splitter_tree.h).
inline constexpr int kTagSplitterDigest = 80;

/// Every tag above; a new tag joins this list so the check below sees it.
inline constexpr int kWireTags[] = {
    kTagRedistributeHeader, kTagRedistributeData, kTagRedistributeAck,
    kTagPipelineData,       kTagPipelineAck,      kTagPipelineHostData,
    kTagPipelineHostAck,    kTagCollectHeader,    kTagCollectData,
    kTagScatterHeader,      kTagScatterData,      kTagGatherHeader,
    kTagGatherData,         kTagSplitterDigest,
};

static_assert(
    [] {
      auto tags = std::to_array(kWireTags);
      std::ranges::sort(tags);
      return tags.front() >= 0 &&
             std::ranges::adjacent_find(tags) == tags.end();
    }(),
    "user wire tags must be distinct and non-negative");

}  // namespace paladin::core
