// Phase-span tracing over virtual time.  A Tracer lives on one node (one
// thread); spans are stamped with the node's VirtualClock — or, inside the
// fused steps 3–5 pipeline, with the send/merge stream clocks — so a trace
// is a pure function of (seed, config): bitwise-identical across runs, like
// the makespans themselves (DESIGN.md §8).  Spans never charge time; they
// only read clocks, so enabling observability cannot perturb a simulated
// measurement.
//
// Tracks: virtual time on one node is not one line once the pipeline forks
// its dual stream clocks, so every span/instant carries a track id.  Track
// kMain follows the node clock; kSend/kMerge follow the pipeline's stream
// clocks.  Span nesting is stack-disciplined *per track* (enforced in
// test_obs.cpp), which is also what lets the Chrome-trace exporter lay each
// track out as its own thread lane.
//
// Disabling: all call sites hold a `Tracer*` that is null unless
// ClusterConfig::observe is set, and every helper here is a no-op on null.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "obs/counter_registry.h"

namespace paladin::obs {

/// Reads "now" in virtual seconds; NodeContext adapts its VirtualClock.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  virtual double now() const = 0;
};

/// Which logical clock a span's timestamps came from.
enum class Track : u8 {
  kMain = 0,   ///< the node clock
  kSend = 1,   ///< pipeline send-stream clock
  kMerge = 2,  ///< pipeline merge-stream clock
};

inline const char* to_string(Track t) {
  switch (t) {
    case Track::kMain: return "main";
    case Track::kSend: return "send";
    case Track::kMerge: return "merge";
  }
  PALADIN_UNREACHABLE();
}

struct SpanRecord {
  std::string name;
  std::string category;
  Track track = Track::kMain;
  u32 depth = 0;  ///< nesting depth within the track at open
  double begin = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, u64>> args;
};

struct InstantRecord {
  std::string name;
  std::string category;
  Track track = Track::kMain;
  double at = 0.0;
};

/// Everything one node recorded, harvested after its SPMD body returns.
struct NodeTrace {
  u32 rank = 0;
  std::vector<SpanRecord> spans;  ///< in open order
  std::vector<InstantRecord> instants;
  std::vector<std::pair<std::string, u64>> counters;
  std::vector<CounterSnapshot> snapshots;
};

class Tracer {
 public:
  using SpanId = u32;

  /// `time` provides default timestamps (the node clock); spans on the
  /// pipeline's stream clocks use the explicit *_at overloads instead.
  explicit Tracer(const TimeSource* time = nullptr) : time_(time) {}

  SpanId open_at(std::string name, std::string category, double t,
                 Track track = Track::kMain) {
    SpanRecord s;
    s.name = std::move(name);
    s.category = std::move(category);
    s.track = track;
    s.depth = static_cast<u32>(stack_[static_cast<int>(track)].size());
    s.begin = t;
    s.end = t;  // patched at close; an unclosed span reads as zero-length
    const SpanId id = static_cast<SpanId>(spans_.size());
    spans_.push_back(std::move(s));
    stack_[static_cast<int>(track)].push_back(id);
    return id;
  }

  SpanId open(std::string name, std::string category) {
    PALADIN_EXPECTS(time_ != nullptr);
    return open_at(std::move(name), std::move(category), time_->now());
  }

  void close_at(SpanId id, double t) {
    PALADIN_EXPECTS(id < spans_.size());
    SpanRecord& s = spans_[id];
    auto& stack = stack_[static_cast<int>(s.track)];
    PALADIN_EXPECTS_MSG(!stack.empty() && stack.back() == id,
                        "span close out of stack order on its track");
    stack.pop_back();
    PALADIN_EXPECTS(t >= s.begin);
    s.end = t;
  }

  void close(SpanId id) {
    PALADIN_EXPECTS(time_ != nullptr);
    close_at(id, time_->now());
  }

  /// Attaches a named value to a span (exported into the trace args).
  void arg(SpanId id, std::string key, u64 value) {
    PALADIN_EXPECTS(id < spans_.size());
    spans_[id].args.emplace_back(std::move(key), value);
  }

  void instant_at(std::string name, std::string category, double t,
                  Track track = Track::kMain) {
    instants_.push_back(
        {std::move(name), std::move(category), track, t});
  }

  CounterRegistry& counters() { return counters_; }
  const CounterRegistry& counters() const { return counters_; }

  /// Labels the current counter state (per-phase snapshot).
  void snapshot(std::string label) {
    PALADIN_EXPECTS(time_ != nullptr);
    snapshot_at(std::move(label), time_->now());
  }
  void snapshot_at(std::string label, double t) {
    snapshots_.push_back(counters_.snapshot(std::move(label), t));
  }

  /// Harvests the recorded trace (tracer is spent afterwards).
  NodeTrace take(u32 rank) {
    NodeTrace t;
    t.rank = rank;
    t.spans = std::move(spans_);
    t.instants = std::move(instants_);
    t.counters = counters_.entries();
    t.snapshots = std::move(snapshots_);
    return t;
  }

 private:
  const TimeSource* time_;
  std::vector<SpanRecord> spans_;
  std::vector<InstantRecord> instants_;
  std::vector<SpanId> stack_[3];  ///< open-span stack per track
  CounterRegistry counters_;
  std::vector<CounterSnapshot> snapshots_;
};

/// RAII span over the tracer's default time source.  Null tracer = no-op,
/// which is the disabled path everywhere.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, std::string name, std::string category)
      : tracer_(tracer), open_(tracer != nullptr) {
    if (tracer_) id_ = tracer_->open(std::move(name), std::move(category));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { end(); }

  /// Closes the span now (idempotent; the destructor calls it too).
  void end() {
    if (open_) {
      tracer_->close(id_);
      open_ = false;
    }
  }

  /// Attaches an arg; valid before or after end().
  void arg(std::string key, u64 value) {
    if (tracer_) tracer_->arg(id_, std::move(key), value);
  }

 private:
  Tracer* tracer_ = nullptr;
  bool open_ = false;
  Tracer::SpanId id_ = 0;
};

}  // namespace paladin::obs
