#include "net/cluster.h"

namespace paladin::net {

namespace {

pdm::Disk make_node_disk(const ClusterConfig& config, u32 rank) {
  if (config.workdir.empty()) {
    return pdm::Disk::in_memory(config.disk);
  }
  return pdm::Disk::posix(config.workdir / ("node" + std::to_string(rank)),
                          config.disk);
}

}  // namespace

NodeContext::NodeContext(const ClusterConfig& config, Fabric& fabric, u32 rank)
    : config_(&config),
      rank_(rank),
      comm_(fabric, rank, clock_),
      disk_(make_node_disk(config, rank)),
      rng_(mix64(config.seed) ^ mix64(0x9e37'79b9'7f4a'7c15ULL + rank)) {
  init_node(config, rank);
}

NodeContext::NodeContext(const ClusterConfig& config, Fabric& fabric, u32 rank,
                         CommGroup group)
    : config_(&config),
      rank_(rank),
      comm_(fabric, rank, clock_, std::move(group)),
      disk_(make_node_disk(config, rank)),
      rng_(mix64(config.seed) ^ mix64(0x9e37'79b9'7f4a'7c15ULL + rank)) {
  // The job's virtual cluster and its node slice must agree: perf[] is
  // indexed by group-local rank.
  PALADIN_EXPECTS(config.node_count() == comm_.size());
  init_node(config, rank);
}

void NodeContext::init_node(const ClusterConfig& config, u32 rank) {
  if (config.drift_plan.active()) {
    drift_ = std::make_unique<hetero::DriftOracle>(config.drift_plan, rank);
  }
  install_disk_cost_sink();
  if (config.observe) {
    tracer_ = std::make_unique<obs::Tracer>(this);
  }
  if (config.fault_plan.active()) {
    fault_ = std::make_unique<fault::FaultInjector>(config.fault_plan, rank);
    disk_.set_fault_injector(fault_.get());
    comm_.set_fault_injector(fault_.get());
  }
}

void NodeContext::install_disk_cost_sink() {
  // Disk transfer time is charged to this node's clock, optionally scaled
  // by the node's effective speed when the transfer happens (see
  // CostModel::scale_disk_with_speed), so under drift disk time inflates
  // inside degraded epochs.  With no drift plan speed_at() is speed().
  const bool scale = config_->cost.scale_disk_with_speed;
  disk_.set_cost_sink([this, scale](double seconds) {
    clock_.advance(seconds / (scale ? speed_at(clock_.now()) : 1.0));
  });
}

void NodeContext::fold_counters_into_tracer() {
  obs::Tracer* tr = obs();
  if (tr == nullptr) return;
  obs::CounterRegistry& c = tr->counters();
  const pdm::IoStats& io = disk_.stats();
  c.set("io.blocks_read", io.blocks_read);
  c.set("io.blocks_written", io.blocks_written);
  c.set("io.bytes_read", io.bytes_read);
  c.set("io.bytes_written", io.bytes_written);
  c.set("io.files_created", io.files_created);
  c.set("io.files_removed", io.files_removed);
  const CommStats& net = comm_.stats();
  c.set("net.messages_sent", net.messages_sent);
  c.set("net.bytes_sent", net.bytes_sent);
  c.set("net.messages_received", net.messages_received);
  c.set("net.bytes_received", net.bytes_received);
  c.set("net.self_deliveries", net.self_deliveries);
  // Inbox occupancy (Mailbox::deliveries / max_pending_bytes) is deliberately
  // NOT folded in: how many packets sit queued at once depends on physical
  // thread scheduling, and traces must stay bitwise-identical per
  // (seed, config).  Those remain reachable via Communicator for diagnostics.
  c.set("pdm.block_bytes", disk_.params().block_bytes);
  if (fault::FaultInjector* fi = fault()) {
    // Fault/recovery tallies (docs/ROBUSTNESS.md).  Registered only when a
    // plan is active so empty-plan traces stay bit-identical to pre-fault
    // builds (the registry export is insertion-ordered and name-complete).
    const fault::FaultCounters& f = fi->counters();
    c.set("fault.disk.read_faults", f.disk_read_faults);
    c.set("fault.disk.write_faults", f.disk_write_faults);
    c.set("fault.disk.corruptions", f.disk_corruptions);
    c.set("fault.disk.read_retries", f.disk_read_retries);
    c.set("fault.disk.write_retries", f.disk_write_retries);
    c.set("fault.disk.rereads", f.disk_rereads);
    c.set("fault.net.frames_dropped", f.net_frames_dropped);
    c.set("fault.net.frames_duplicated", f.net_frames_duplicated);
    c.set("fault.net.frames_delayed", f.net_frames_delayed);
    c.set("fault.net.retransmits", f.net_retransmits);
    c.set("fault.net.dups_discarded", f.net_dups_discarded);
  }
  if (const hetero::DriftOracle* d = drift()) {
    // Drift tallies (docs/ROBUSTNESS.md §Speed drift).  Registered only
    // when a plan is active so empty-plan traces stay bit-identical to
    // pre-drift builds.  All values are pure functions of
    // (plan, rank, finish time), so they fold deterministically.
    const u64 epochs = d->epoch_of(clock_.now()) + 1;
    // Degraded-epoch scan capped so a pathological epoch_seconds cannot
    // make the fold itself slow; the cap is far above any test/bench plan.
    const u64 scanned = std::min<u64>(epochs, u64{1} << 16);
    u64 degraded = 0;
    double max_factor = 1.0;
    for (u64 e = 0; e < scanned; ++e) {
      const double f = d->factor_at_epoch(e);
      if (f > 1.0) ++degraded;
      max_factor = std::max(max_factor, f);
    }
    c.set("drift.epochs", epochs);
    c.set("drift.epochs_degraded", degraded);
    c.set("drift.max_factor_x1000",
          static_cast<u64>(max_factor * 1000.0));
    c.set("drift.final_factor_x1000",
          static_cast<u64>(d->factor_at(clock_.now()) * 1000.0));
  }
}

}  // namespace paladin::net
