// The simulated heterogeneous cluster: one OS thread per node, each with
// its own disk, virtual clock, RNG stream and communicator.  This is the
// substitute for the paper's 4-Alpha MPI testbed (see DESIGN.md §2): real
// data moves through real queues and real files, while per-node speed
// factors and the link/disk cost models produce deterministic simulated
// execution times.
#pragma once

#include <exception>
#include <filesystem>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/contracts.h"
#include "base/meter.h"
#include "base/rng.h"
#include "base/types.h"
#include "fault/fault.h"
#include "hetero/drift.h"
#include "net/communicator.h"
#include "net/cost_model.h"
#include "net/mailbox.h"
#include "net/network_model.h"
#include "net/virtual_clock.h"
#include "obs/trace.h"
#include "pdm/disk.h"

namespace paladin::net {

struct ClusterConfig {
  /// Relative speed factors, one per node; perf[i] = 4 means node i runs
  /// 4x faster than a speed-1 node.  This is the paper's `perf` array.
  std::vector<u32> perf;

  NetworkModel network = NetworkModel::fast_ethernet();
  pdm::DiskParams disk = pdm::DiskParams::scsi_2002();
  CostModel cost = CostModel::alpha_2002();

  /// When empty (every bench's default), nodes get in-memory disks.  When
  /// set, node i's disk lives in workdir/"node<i>" as real files.
  std::filesystem::path workdir;

  /// Master seed; node i draws from an independent stream derived from it.
  u64 seed = 42;

  /// When set, each node carries an obs::Tracer: algorithms record
  /// phase spans and counters, and Cluster::run harvests a NodeTrace per
  /// node into its NodeReport.  Spans only read the virtual clocks, so
  /// turning this on cannot change any simulated time or I/O count.
  bool observe = false;

  /// Deterministic adversary (docs/ROBUSTNESS.md).  The default
  /// (all-zero-rate) plan is provably a no-op: no hook ever consults the
  /// injector, so digests, IoStats and traces are bit-identical to a build
  /// without the fault layer.  The plan is cluster-wide so every sender
  /// and receiver agree on whether message streams carry frame headers.
  fault::FaultPlan fault_plan;

  /// Seeded speed-drift adversary (docs/ROBUSTNESS.md §Speed drift): the
  /// node's effective speed is divided by a per-epoch factor that is a
  /// pure hash of (seed, rank, epoch).  The default (inactive) plan is
  /// provably a no-op: NodeContext::drift() stays nullptr, so every cost
  /// funnel's divisor speed_at(t) is the static speed(), and makespans,
  /// digests, IoStats and traces are bit-identical to a pre-drift build.
  hetero::DriftPlan drift_plan;

  u32 node_count() const { return static_cast<u32>(perf.size()); }

  /// Homogeneous cluster of `p` speed-1 nodes.
  static ClusterConfig homogeneous(u32 p) {
    ClusterConfig c;
    c.perf.assign(p, 1);
    return c;
  }

  /// The paper's testbed: two fast nodes (perf 4: helmvige, grimgerde) and
  /// two loaded nodes (perf 1: siegrune, rossweisse).
  static ClusterConfig paper_testbed() {
    ClusterConfig c;
    c.perf = {4, 4, 1, 1};
    return c;
  }
};

/// Everything one node's code can touch.  Implements Meter so algorithms
/// charge their counted work here; charges are priced by the cost model and
/// divided by the node's speed factor.  Also implements obs::TimeSource so
/// a tracer's default timestamps read this node's clock.
class NodeContext final : public Meter, public obs::TimeSource {
 public:
  NodeContext(const ClusterConfig& config, Fabric& fabric, u32 rank);

  /// Group-scoped node of a multi-job run (src/service): `rank` is local
  /// to the group, the fabric is the shared physical transport, and
  /// `config` describes the job's virtual cluster (perf sliced to the
  /// group's nodes, per-job seed/workdir).  With the identity group and
  /// tag_base 0 this is byte-for-byte the plain constructor.
  NodeContext(const ClusterConfig& config, Fabric& fabric, u32 rank,
              CommGroup group);

  u32 rank() const { return rank_; }
  u32 node_count() const { return comm_.size(); }
  u32 perf() const { return config_->perf[rank_]; }
  double speed() const { return static_cast<double>(perf()); }
  const ClusterConfig& config() const { return *config_; }

  Communicator& comm() { return comm_; }
  pdm::Disk& disk() { return disk_; }
  VirtualClock& clock() { return clock_; }
  Xoshiro256& rng() { return rng_; }

  /// obs::TimeSource: the node clock, in virtual seconds.
  double now() const override { return clock_.now(); }

  /// The node's tracer, or nullptr when ClusterConfig::observe is off —
  /// all obs helpers no-op on nullptr.
  obs::Tracer* obs() { return tracer_.get(); }

  /// The node's fault injector, or nullptr when the plan is empty.
  fault::FaultInjector* fault() { return fault_.get(); }

  /// The node's drift oracle, or nullptr when the drift plan is empty.
  const hetero::DriftOracle* drift() const { return drift_.get(); }

  /// Effective speed at virtual time `t`: the static perf factor divided
  /// by the drift slowdown in force at `t`.  Both cost funnels (the meter
  /// below and the disk cost sink) divide by it.  Without an active drift
  /// plan it returns speed() itself, so the no-drift cost arithmetic is
  /// bit-for-bit the pre-drift arithmetic.
  double speed_at(double t) const {
    if (const hetero::DriftOracle* d = drift()) {
      return speed() / d->factor_at(t);
    }
    return speed();
  }

  /// Folds the node's scattered accounting (IoStats, CommStats, block
  /// geometry, fault and drift tallies) into the tracer's counter registry
  /// under the names listed in docs/OBSERVABILITY.md.  Called by
  /// Cluster::run after the node body returns; safe to call earlier for a
  /// mid-run snapshot (set semantics).
  void fold_counters_into_tracer();

  // Meter: priced, speed-scaled charges.  The divisor is the *effective*
  // speed at the moment the work happens; without drift, speed_at(t) is
  // exactly speed() and this is the pre-drift arithmetic.
  void on_compares(u64 n) override {
    clock_.advance(static_cast<double>(n) * config_->cost.per_compare_seconds /
                   speed_at(clock_.now()));
  }
  void on_moves(u64 n) override {
    clock_.advance(static_cast<double>(n) * config_->cost.per_move_seconds /
                   speed_at(clock_.now()));
  }
  void on_seconds(double s) override {
    clock_.advance(s / speed_at(clock_.now()));
  }

 private:
  /// Shared tail of both constructors: disk cost sink, tracer and fault
  /// wiring (everything after the member init list).
  void init_node(const ClusterConfig& config, u32 rank);

  const ClusterConfig* config_;
  u32 rank_;
  VirtualClock clock_;
  Communicator comm_;
  pdm::Disk disk_;
  Xoshiro256 rng_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<hetero::DriftOracle> drift_;
};

/// Per-run outcome of one node.
struct NodeReport {
  double finish_time = 0.0;  ///< node's virtual clock at the end of its work
  pdm::IoStats io;
  /// Injection/recovery tallies; all-zero unless a fault plan was active.
  fault::FaultCounters faults;
  /// Harvested trace; non-null only when ClusterConfig::observe was set.
  /// shared_ptr because NodeReport must stay cheaply copyable.
  std::shared_ptr<const obs::NodeTrace> trace;
};

template <typename R>
struct RunOutcome {
  std::vector<R> results;       ///< one per node, in rank order
  std::vector<NodeReport> nodes;
  double makespan = 0.0;        ///< max finish_time — the "execution time"
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config) : config_(std::move(config)) {
    PALADIN_EXPECTS(config_.node_count() > 0);
    for (u32 s : config_.perf) PALADIN_EXPECTS(s > 0);
  }

  const ClusterConfig& config() const { return config_; }

  /// Runs `body(NodeContext&)` on every node concurrently and returns all
  /// results plus the simulated makespan.  If any node throws, all peers
  /// are woken (poisoned mailboxes) and the lowest rank's exception is
  /// rethrown, passing over MailboxPoisoned while any other type is there.
  template <typename F>
  auto run(F&& body) {
    using R = std::invoke_result_t<F&, NodeContext&>;
    static_assert(!std::is_void_v<R>,
                  "node body must return a value; return a placeholder int "
                  "if there is nothing to report");
    const u32 p = config_.node_count();
    Fabric fabric(p, config_.network);

    // A raw array, not std::vector<R>: node threads write their own slot
    // concurrently, and vector<bool> packs elements into shared words —
    // an actual data race ThreadSanitizer flagged.
    std::unique_ptr<R[]> results(new R[p]());
    std::vector<NodeReport> reports(p);
    std::vector<std::exception_ptr> errors(p);
    std::vector<std::thread> threads;
    threads.reserve(p);
    // A node's body may return while a peer still sends to it (the last
    // acks of an exchange, which no one receives), so no node sweeps its
    // inbox before every body has returned.
    std::latch bodies_done(p);

    for (u32 i = 0; i < p; ++i) {
      threads.emplace_back([&, i] {
        bool arrived = false;
        try {
          NodeContext ctx(config_, fabric, i);
          results[i] = body(ctx);
          arrived = true;
          bodies_done.arrive_and_wait();
          if (fault::FaultInjector* fi = ctx.fault()) {
            // Duplicate frames trailing the last consumed message on their
            // stream are still queued (both copies of a dup are delivered
            // back-to-back, before the original could be consumed); sweep
            // them so dups_discarded matches frames_duplicated cluster-wide.
            ctx.comm().drain_discard_dups();
            reports[i].faults = fi->counters();
          }
          reports[i].finish_time = ctx.clock().now();
          reports[i].io = ctx.disk().stats();
          if (obs::Tracer* tr = ctx.obs()) {
            ctx.fold_counters_into_tracer();
            reports[i].trace =
                std::make_shared<const obs::NodeTrace>(tr->take(i));
          }
        } catch (...) {
          errors[i] = std::current_exception();
          fabric.abort_all();
          if (!arrived) bodies_done.count_down();
        }
      });
    }
    for (auto& t : threads) t.join();

    // Rethrows the first error that is not MailboxPoisoned: the try block
    // lets any other type escape.  A poisoned mailbox only echoes a peer's
    // failure (a blocked receive, or the harvest sweep after the latch),
    // so it surfaces only when every error is one.
    std::exception_ptr first;
    for (const std::exception_ptr& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const MailboxPoisoned&) {
        if (!first) first = e;
      }
    }
    if (first) std::rethrow_exception(first);

    RunOutcome<R> out;
    out.results.reserve(p);
    for (u32 i = 0; i < p; ++i) out.results.push_back(std::move(results[i]));
    out.nodes = std::move(reports);
    for (const NodeReport& r : out.nodes) {
      out.makespan = std::max(out.makespan, r.finish_time);
    }
    return out;
  }

 private:
  ClusterConfig config_;
};

}  // namespace paladin::net
