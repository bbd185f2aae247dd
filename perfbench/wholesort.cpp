// wholesort — whole sorts (generate → sort → verify) on the paper's
// simulated testbed, reporting both clocks: host time, which is what the
// simulator costs to run, and virtual time, the paper's deterministic
// makespan.  perfbench/run.py builds and runs it; README.md explains the
// workloads and the metric → layer → end-to-end map.
//
//   wholesort --workload NAME --seed N --seconds S --trace 0|1
//             [--records N] [--jobs N]
//
// --trace 0 prints the end-to-end metrics, all from untraced runs.
// --trace 1 adds a separate ClusterConfig::observe run and prints the
// per-layer metrics.  The last stdout line is one JSON object; the exit
// code is 0 only when every sort verified.  --records and --jobs shrink
// the inputs for the self-test.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/checksum.h"
#include "bench/bench_common.h"
#include "core/ext_multiway.h"
#include "core/ext_psrs.h"
#include "core/sort_driver.h"
#include "core/verify.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"
#include "seq/parallel_merge.h"
#include "seq/run_formation.h"
#include "service/service.h"
#include "service/workload.h"
#include "workload/generators.h"

namespace paladin::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Key = DefaultKey;

// The settings of examples/paladin_sort.cpp, which produced the ROADMAP's
// numbers: M = 2^20 records, 8192-record (32 KB) messages, external path
// forced.  Everything else is the library default.
constexpr u64 kMemoryRecords = u64{1} << 20;
constexpr u64 kMessageRecords = 8192;
constexpr u64 kSortRecords = u64{1} << 24;
constexpr u64 kServiceJobs = 200;
// Each sort-workload run sorts this many inputs drawn from its seed and
// reports their mean, which keeps seed-to-seed spread of the virtual
// metrics small.
constexpr u32 kInputs = 4;
// The service's job mix (arrivals, sizes, backends, widths) is fixed, as in
// bench_service; the run's seed draws the jobs' data.
constexpr u64 kServiceMixSeed = 2026;
// bench_service's per-job memory budget.  At 2^20 records a Datamation
// job would zero a 100 MB run buffer per node, and page-fault noise would
// swamp the service's host time.
constexpr u64 kServiceMemoryRecords = u64{1} << 17;
// Mean virtual inter-arrival of the service workload: tight enough that
// jobs queue behind the monsters, loose enough that the backlog drains.
constexpr double kServiceInterarrival = 0.6;
constexpr u32 kMinTimedReps = 3;
constexpr u32 kPlacementReps = 3;
// Service set-up batches: kServiceSetupBatches of kServiceSetupBatch each,
// before the warm-up and after every timed run.
constexpr u32 kServiceSetupBatches = 3;
constexpr u32 kServiceSetupBatch = 40;
// Stop measuring after this long whatever --seconds says, so that a slow
// host still finishes inside the 180 s a run may take.
constexpr double kHardStopSeconds = 120.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, as service::latency_percentile computes it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The fastest of a set of host times: the slow tail is interference from
/// other work on the host, and it moves the median between runs.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// The lower quartile of a run's timed samples, interpolated as
/// numpy.percentile does.  Steadier from run to run than the fastest sample,
/// which hangs on one lucky moment of the host, and than the median, which
/// takes in the slow tail that other work on the host adds.
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Metrics.  Every metric has one unit, and the per-layer ones name the
// end-to-end metric they should move and the workloads they move on.

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* moves;  ///< end-to-end metric a change in this layer moves
  const char* on;     ///< workloads where it moves
};

constexpr MetricInfo kEndToEnd[] = {
    {"setup_s", "s", "", "all"},
    {"records_per_s", "records/s", "", "all"},
    {"vmakespan_s", "virtual_s", "", "all"},
    {"expansion", "ratio", "", "all"},
    {"vjob_p50_s", "virtual_s", "", "all"},
    {"vjob_p95_s", "virtual_s", "", "all"},
    {"vjobs_per_s", "jobs/virtual_s", "", "all"},
    {"peak_rss_mb", "MB", "", "all"},
};

constexpr MetricInfo kPerLayer[] = {
    {"workload.generate_s", "s", "setup_s", "all"},
    {"seq.step1_s", "s", "records_per_s", "psrs-uniform"},
    {"seq.runform_ns_per_rec", "ns/rec", "records_per_s",
     "psrs-uniform,multiway-zipf"},
    {"seq.initial_runs", "count", "vmakespan_s", "psrs-uniform"},
    {"seq.merge_passes", "count", "vmakespan_s", "psrs-uniform"},
    {"core.step2_s", "s", "records_per_s,expansion", "psrs-uniform"},
    {"core.exchange_merge_s", "s", "records_per_s", "psrs-uniform"},
    {"core.verify_s", "s", "none", "all"},
    {"core.other_s", "s", "records_per_s", "psrs-uniform"},
    {"core.v.step1_s", "virtual_s", "vmakespan_s",
     "psrs-uniform,drift-adaptive"},
    {"core.v.step2_s", "virtual_s", "vmakespan_s",
     "psrs-uniform,drift-adaptive"},
    {"core.v.steps3_5_s", "virtual_s", "vmakespan_s",
     "psrs-uniform,drift-adaptive"},
    {"core.v.run_formation_s", "virtual_s", "vmakespan_s", "multiway-zipf"},
    {"core.v.splitters_s", "virtual_s", "vmakespan_s", "multiway-zipf"},
    {"core.v.exchange_s", "virtual_s", "vmakespan_s", "multiway-zipf"},
    {"core.v.merge_s", "virtual_s", "vmakespan_s", "multiway-zipf"},
    {"pdm.blocks_per_rec", "blocks/rec", "vmakespan_s",
     "multiway-zipf,psrs-uniform"},
    {"pdm.files_created", "count", "vmakespan_s", "multiway-zipf"},
    {"net.bytes_per_rec", "bytes/rec", "vmakespan_s",
     "multiway-zipf,psrs-uniform"},
    {"net.messages", "count", "vmakespan_s", "multiway-zipf,psrs-uniform"},
    {"net.acks_consumed", "count", "vmakespan_s",
     "multiway-zipf,psrs-uniform"},
    {"hetero.vidle_frac", "ratio", "vmakespan_s,expansion", "all"},
    {"hetero.drift_recovery_x", "ratio", "vmakespan_s", "drift-adaptive"},
    {"service.vqueue_p50_s", "virtual_s", "vjob_p95_s", "service-mixed"},
    {"service.vqueue_p95_s", "virtual_s", "vjob_p95_s", "service-mixed"},
    {"service.vrun_p50_s", "virtual_s", "vjob_p95_s", "service-mixed"},
    {"service.host_ms_per_job", "ms/job", "records_per_s", "service-mixed"},
    {"service.rejected", "count", "failed", "service-mixed"},
    {"obs.overhead_frac", "ratio", "none", "psrs-uniform"},
    {"failed_frac", "ratio", "failed", "all"},
};

const MetricInfo* find_metric(std::string_view name) {
  for (const MetricInfo& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricInfo& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::pair<const MetricInfo*, double>> metrics;

  void add(std::string_view name, double value) {
    const MetricInfo* m = find_metric(name);
    if (m == nullptr) {
      throw std::logic_error("unknown metric " + std::string(name));
    }
    metrics.emplace_back(m, value);
  }

  /// Records one verification outcome.
  void count(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "wholesort: %s failed verification\n", what);
    }
  }
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kSort, kService };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<u32> perf;
  workload::Dist dist;
  core::ParallelSortAlgorithm algorithm;
  bool drift;  ///< forced slowdown of rank 0 + adaptive re-split
};

std::optional<Workload> find_workload(std::string_view name) {
  using core::ParallelSortAlgorithm;
  const Workload all[] = {
      {"psrs-uniform", Kind::kSort, {4, 4, 1, 1}, workload::Dist::kUniform,
       ParallelSortAlgorithm::kExtPsrs, false},
      {"multiway-zipf", Kind::kSort, {4, 4, 1, 1}, workload::Dist::kZipf,
       ParallelSortAlgorithm::kExtMultiway, false},
      {"service-mixed", Kind::kService, {4, 4, 1, 1}, workload::Dist::kUniform,
       ParallelSortAlgorithm::kExtPsrs, false},
      {"drift-adaptive", Kind::kSort, {1, 1, 1, 1}, workload::Dist::kUniform,
       ParallelSortAlgorithm::kExtPsrs, true},
  };
  for (const Workload& w : all) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

net::ClusterConfig testbed(const std::vector<u32>& perf) {
  net::ClusterConfig config = bench::paper_cluster(bench::BenchOptions{});
  config.perf = perf;
  return config;
}

core::ParallelSortConfig sort_config(core::ParallelSortAlgorithm algorithm) {
  core::ParallelSortConfig config;
  config.algorithm = algorithm;
  config.sequential.memory_records = kMemoryRecords;
  config.sequential.allow_in_memory = false;
  config.message_records = kMessageRecords;
  return config;
}

/// bench_drift's placement: rank 0 turns 4× slower at ≈0.97 of its
/// undrifted Step 1, so the damage lands in steps 2–5, the region the
/// adaptive re-split can rebalance.
hetero::DriftPlan forced_slowdown(double rank0_step1_s) {
  hetero::DriftPlan plan;
  plan.spec.epoch_seconds = rank0_step1_s / 256.0;
  hetero::ForcedSlowdown forced;
  forced.rank = 0;
  forced.from_epoch = 248;
  forced.factor = 4.0;
  plan.forced.push_back(forced);
  return plan;
}

constexpr const char* kAckCounters[] = {
    "pipeline.acks_consumed",
    "redistribute.acks_consumed",
    "multiway.acks_consumed",
};

// ---------------------------------------------------------------------------
// One whole sort on a fresh cluster.

/// Host timestamps shared by the node threads: each sync() is a barrier
/// whose completion stamps the time, so the sort is timed from the moment
/// the last node is ready to the moment the last node is done.
class PhaseClock {
 public:
  explicit PhaseClock(std::ptrdiff_t nodes) : barrier_(nodes, Stamp{this}) {}

  void sync() { barrier_.arrive_and_wait(); }
  /// Leaves the barrier on a failure path, so the other nodes do not wait
  /// for this one forever.
  void drop() { barrier_.arrive_and_drop(); }
  double seconds() const {
    return std::chrono::duration<double>(stamps_[1] - stamps_[0]).count();
  }

 private:
  struct Stamp {
    PhaseClock* self;
    void operator()() noexcept {
      if (self->count_ < self->stamps_.size()) {
        self->stamps_[self->count_++] = Clock::now();
      }
    }
  };

  std::array<Clock::time_point, 2> stamps_{};
  std::size_t count_ = 0;
  std::barrier<Stamp> barrier_;
};

/// Per-layer numbers of one traced node, from the node clock or the
/// backend report.
struct Layers {
  double v_step1 = 0.0;
  double v_step2 = 0.0;
  double v_steps3_5 = 0.0;
  double v_run_formation = 0.0;
  double v_splitters = 0.0;
  double v_exchange = 0.0;
  double v_merge = 0.0;
  u64 initial_runs = 0;
  u64 merge_passes = 0;
};

/// Host start and end of one named span on one node.
struct Span {
  Clock::time_point begin;
  Clock::time_point end;
};

struct NodeOut {
  core::BackendReport report;
  Layers layers;
  /// The traced run's named host spans on this node: the composed steps
  /// (1, 2, 3–5), or the one backend call of the other workloads.
  std::vector<Span> spans;
  double vfinish = 0.0;  ///< node clock when the sort returned
  pdm::IoStats io;       ///< the sort's block I/O only
  net::CommStats comm;   ///< the sort's traffic only
  u64 acks = 0;          ///< flow-control credits consumed (traced runs)
  MultisetChecksum before;
  MultisetChecksum after;
  bool order_ok = false;
  double generate_s = 0.0;
  double verify_s = 0.0;
};

using SortFn = std::function<void(net::NodeContext&, const hetero::PerfVector&,
                                  const core::ParallelSortConfig&, NodeOut&)>;

/// The measured program: core::parallel_external_sort, the public entry
/// point.
void sort_untraced(net::NodeContext& ctx, const hetero::PerfVector& perf,
                   const core::ParallelSortConfig& psc, NodeOut& out) {
  out.report = core::parallel_external_sort<Key>(ctx, perf, psc);
}

/// A backend's full config, sliced together as parallel_external_sort does.
template <typename Config, typename Options>
Config backend_config(const core::ParallelSortConfig& psc,
                      const Options& options) {
  Config config;
  static_cast<core::BackendConfig&>(config) = psc;
  static_cast<Options&>(config) = options;
  return config;
}

/// Drift placement and the traced drift-adaptive run: the backend itself,
/// for its per-step virtual split.
void sort_psrs_direct(net::NodeContext& ctx, const hetero::PerfVector& perf,
                      const core::ParallelSortConfig& psc, NodeOut& out) {
  const Clock::time_point h = Clock::now();
  const core::ExtPsrsReport r = core::ext_psrs_sort<Key>(
      ctx, perf, backend_config<core::ExtPsrsConfig>(psc, psc.psrs));
  out.spans.push_back({h, Clock::now()});
  out.report = r;
  out.layers.v_step1 = r.t_seq_sort;
  out.layers.v_step2 = r.t_sampling;
  out.layers.v_steps3_5 =
      r.t_pipeline + r.t_partition + r.t_redistribute + r.t_final_merge;
}

/// Traced multiway-zipf run: the backend itself, for its per-phase split.
void sort_multiway_direct(net::NodeContext& ctx,
                          const hetero::PerfVector& perf,
                          const core::ParallelSortConfig& psc, NodeOut& out) {
  const Clock::time_point h = Clock::now();
  const core::ExtMultiwayReport r = core::ext_multiway_sort<Key>(
      ctx, perf, backend_config<core::ExtMultiwayConfig>(psc, psc.multiway));
  out.spans.push_back({h, Clock::now()});
  out.report = r;
  out.layers.v_run_formation = r.t_run_formation;
  out.layers.v_splitters = r.t_splitters;
  out.layers.v_exchange = r.t_exchange;
  out.layers.v_merge = r.t_merge;
  out.layers.initial_runs = r.initial_runs;
  out.layers.merge_passes = r.merge_passes;
}

/// Traced psrs-uniform run: ext_psrs_sort's default path (pipelined, flat
/// splitters, no adaptation) rebuilt from its steps' public functions, with
/// each step's host start and end stamped.  The size allreduce before
/// Step 1 and the removal of the Step 1 file after Steps 3–5 lie outside
/// the spans, so their time shows as core.other_s.  run_sort_workload
/// checks that the run reproduces the untraced run's digests, makespan and
/// IoStats bit for bit.
void sort_psrs_composed(net::NodeContext& ctx, const hetero::PerfVector& perf,
                        const core::ParallelSortConfig& psc, NodeOut& out) {
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  if (psc.algorithm != core::ParallelSortAlgorithm::kExtPsrs ||
      !psc.psrs.pipelined || psc.adaptive.enabled || p < 2 ||
      core::splitter_uses_tree(psc.splitter, p)) {
    throw std::logic_error(
        "the composed run covers only the default pipelined flat-splitter "
        "PSRS path");
  }
  const u32 root = psc.psrs.designated_node;
  const u64 oversample = psc.psrs.sampling_oversample;
  out.report.local_records = ctx.disk().file_records<Key>(psc.input);
  const u64 n = comm.allreduce_sum(out.report.local_records);
  const double t0 = ctx.clock().now();
  const std::string sorted_local = psc.output + ".step1";

  // Step 1: sequential external sort of the local share.
  Clock::time_point h = Clock::now();
  const seq::ExternalSortResult step1 = seq::external_sort<Key>(
      ctx.disk(), psc.input, sorted_local, psc.sequential, ctx,
      std::less<Key>{}, ctx.obs());
  out.spans.push_back({h, Clock::now()});
  const double t1 = ctx.clock().now();

  // Step 2: regular sample, gather, pivot selection, broadcast.
  h = Clock::now();
  std::vector<Key> samples;
  {
    pdm::BlockFile f = ctx.disk().open(sorted_local);
    pdm::BlockReader<Key> reader(f);
    samples = core::draw_regular_sample<Key>(
        reader, perf.sample_stride(n, oversample));
  }
  std::vector<Key> gathered =
      comm.gather_records<Key>(std::span<const Key>(samples), root);
  std::vector<Key> pivots;
  if (comm.rank() == root) {
    pivots = core::select_pivots<Key>(gathered, perf, ctx, std::less<Key>{},
                                      oversample);
  }
  pivots = comm.bcast_records<Key>(std::move(pivots), root);
  out.spans.push_back({h, Clock::now()});
  const double t2 = ctx.clock().now();

  // Steps 3–5: the fused partition → send → merge pipeline.
  h = Clock::now();
  const u64 msg =
      core::clamped_message_records<Key>(ctx.disk(), psc.message_records);
  const core::PipelineOutcome piped = core::pipelined_exchange_merge<Key>(
      ctx, sorted_local, psc.output, std::span<const Key>(pivots), msg,
      psc.psrs.flow_window_chunks);
  out.spans.push_back({h, Clock::now()});
  const double t3 = ctx.clock().now();
  ctx.disk().remove(sorted_local);

  out.report.final_records = piped.merged;
  out.report.t_total = ctx.clock().now() - t0;
  out.layers.v_step1 = t1 - t0;
  out.layers.v_step2 = t2 - t1;
  out.layers.v_steps3_5 = t3 - t2;
  out.layers.initial_runs = step1.initial_runs;
  out.layers.merge_passes = step1.merge_passes;
}

struct SortRun {
  std::vector<NodeOut> nodes;
  double setup_s = 0.0;     ///< cluster construction + generation
  double generate_s = 0.0;  ///< host, max over nodes
  double sort_s = 0.0;      ///< host, last node ready → last node done
  /// Host seconds of each named span on the critical path: from the moment
  /// the last node enters it to the moment the last node leaves it.  Each
  /// node enters a span only after leaving the previous one, so the spans
  /// never overlap, and sort_s minus their sum is the untraced remainder.
  std::vector<double> span_s;
  double verify_s = 0.0;  ///< host, max over nodes
  double vmakespan = 0.0;
  bool ok = false;

  std::vector<u64> finals() const {
    std::vector<u64> f;
    for (const NodeOut& o : nodes) f.push_back(o.report.final_records);
    return f;
  }
};

/// Generates every node's share, sorts it with `sort`, and verifies the
/// output: global order with core::verify_global_order, and the multiset
/// checksum of the output against the input's.
SortRun run_sort(const net::ClusterConfig& config,
                 const hetero::PerfVector& perf,
                 const workload::WorkloadSpec& spec,
                 const core::ParallelSortConfig& psc, const SortFn& sort) {
  const Clock::time_point h0 = Clock::now();
  net::Cluster cluster(config);
  const double construct_s = since(h0);
  PhaseClock phases(perf.node_count());
  const u64 n = spec.total_records;
  auto outcome = cluster.run([&](net::NodeContext& ctx) {
    NodeOut out;
    try {
      const u32 rank = ctx.rank();
      Clock::time_point h = Clock::now();
      workload::write_share(spec, rank, perf.share_offset(rank, n),
                            perf.share(rank, n), ctx.disk(), psc.input);
      out.generate_s = since(h);
      h = Clock::now();
      out.before = core::file_checksum<Key>(ctx.disk(), psc.input);
      out.verify_s = since(h);

      ctx.clock().reset();  // the makespan is the sort's alone
      const pdm::IoStats io0 = ctx.disk().stats();
      const net::CommStats comm0 = ctx.comm().stats();
      phases.sync();
      sort(ctx, perf, psc, out);
      out.vfinish = ctx.clock().now();
      out.io = ctx.disk().stats() - io0;
      const net::CommStats& comm1 = ctx.comm().stats();
      out.comm.messages_sent = comm1.messages_sent - comm0.messages_sent;
      out.comm.bytes_sent = comm1.bytes_sent - comm0.bytes_sent;
      if (const obs::Tracer* tr = ctx.obs()) {
        for (const char* name : kAckCounters) {
          out.acks += tr->counters().value(name);
        }
      }
      phases.sync();

      h = Clock::now();
      out.order_ok =
          out.report.layout == core::OutputLayout::kContiguousSlice &&
          core::verify_global_order<Key>(ctx, psc.output);
      out.after = core::file_checksum<Key>(ctx.disk(), psc.output);
      out.verify_s += since(h);
    } catch (...) {
      phases.drop();
      throw;
    }
    return out;
  });

  SortRun run;
  run.nodes = std::move(outcome.results);
  run.sort_s = phases.seconds();
  MultisetChecksum before;
  MultisetChecksum after;
  u64 finals = 0;
  bool order_ok = true;
  for (const NodeOut& o : run.nodes) {
    before.merge(o.before);
    after.merge(o.after);
    finals += o.report.final_records;
    order_ok = order_ok && o.order_ok;
    run.generate_s = std::max(run.generate_s, o.generate_s);
    run.verify_s = std::max(run.verify_s, o.verify_s);
    run.vmakespan = std::max(run.vmakespan, o.vfinish);
  }
  run.setup_s = construct_s + run.generate_s;
  for (std::size_t k = 0; k < run.nodes[0].spans.size(); ++k) {
    Span last = run.nodes[0].spans[k];
    for (const NodeOut& o : run.nodes) {
      last.begin = std::max(last.begin, o.spans.at(k).begin);
      last.end = std::max(last.end, o.spans.at(k).end);
    }
    run.span_s.push_back(
        std::chrono::duration<double>(last.end - last.begin).count());
  }
  run.ok = order_ok && before == after && after.count() == n && finals == n;
  return run;
}

bool same_io(const pdm::IoStats& a, const pdm::IoStats& b) {
  return a.blocks_read == b.blocks_read &&
         a.blocks_written == b.blocks_written &&
         a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.files_created == b.files_created &&
         a.files_removed == b.files_removed;
}

/// Same output, same virtual times, same block I/O on every node: the
/// determinism contract, which also proves that a traced run measured the
/// same program as the untraced one.
bool same_program(const SortRun& a, const SortRun& b) {
  if (a.nodes.size() != b.nodes.size() || a.vmakespan != b.vmakespan) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const NodeOut& x = a.nodes[i];
    const NodeOut& y = b.nodes[i];
    if (!(x.after == y.after) || x.vfinish != y.vfinish ||
        x.report.final_records != y.report.final_records ||
        !same_io(x.io, y.io)) {
      return false;
    }
  }
  return true;
}

/// Host ns per record of a standalone seq::form_runs_load_sort over node
/// 0's share at the workload's memory budget (median of three).
double runform_ns_per_rec(const workload::WorkloadSpec& spec,
                          const hetero::PerfVector& perf,
                          const pdm::DiskParams& disk_params,
                          u64 memory_records) {
  pdm::Disk disk = pdm::Disk::in_memory(disk_params);
  const u64 share = perf.share(0, spec.total_records);
  workload::write_share(spec, 0, 0, share, disk, "input");
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    {
      pdm::BlockFile in = disk.open("input");
      pdm::BlockReader<Key> reader(in);
      pdm::BlockFile runs = disk.create("runs");
      pdm::BlockWriter<Key> writer(runs);
      const Clock::time_point h = Clock::now();
      seq::form_runs_load_sort<Key>(reader, writer, memory_records,
                                    NullMeter::instance());
      times.push_back(since(h));
    }
    disk.remove("runs");
  }
  return median(times) * 1e9 / static_cast<double>(std::max<u64>(share, 1));
}

template <typename F>
double max_over_nodes(const SortRun& run, F&& field) {
  double m = 0.0;
  for (const NodeOut& o : run.nodes) {
    m = std::max(m, static_cast<double>(field(o)));
  }
  return m;
}

template <typename F>
double sum_over_nodes(const SortRun& run, F&& field) {
  double s = 0.0;
  for (const NodeOut& o : run.nodes) s += static_cast<double>(field(o));
  return s;
}

/// Peak resident memory since the last reset_peak_rss(), from the kernel's
/// VmHWM; the process-lifetime peak where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// Asks the kernel to lower the peak-RSS mark to the current RSS.
bool clear_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// Whether the kernel accepts resets, probed once; the env line says which
/// peak peak_rss_mb measures.
bool peak_rss_resettable() {
  static const bool ok = clear_peak_rss();
  return ok;
}

/// Lowers the peak-RSS mark, so the next peak_rss_mb() is the peak of what
/// runs in between (one sort) rather than of the whole process.
void reset_peak_rss() {
  if (peak_rss_resettable() && !clear_peak_rss()) {
    throw std::runtime_error("the peak-RSS mark could not be reset");
  }
}

// ---------------------------------------------------------------------------
// Sort workloads: psrs-uniform, multiway-zipf, drift-adaptive.

/// Input k of a run.  Input 0 uses the seed itself, so that seed 2026
/// sorts the keys of `paladin_sort --demo`.
workload::WorkloadSpec input_spec(const Workload& w, u64 n, u32 p, u64 seed,
                                  u32 k) {
  workload::WorkloadSpec spec;
  spec.dist = w.dist;
  spec.total_records = n;
  spec.node_count = p;
  spec.seed = seed + k * 0x9e37'79b9'7f4a'7c15ULL;
  return spec;
}

Result run_sort_workload(const Workload& w, u64 seed, u64 records,
                         double seconds, bool trace) {
  Result res;
  const hetero::PerfVector perf(w.perf);
  const u64 n = perf.round_up_admissible(records);
  std::vector<workload::WorkloadSpec> specs;
  for (u32 k = 0; k < kInputs; ++k) {
    specs.push_back(input_spec(w, n, perf.node_count(), seed, k));
  }
  core::ParallelSortConfig psc = sort_config(w.algorithm);
  net::ClusterConfig config = testbed(w.perf);
  std::printf("workload %s: %u inputs of %llu records, perf %s, %s\n", w.name,
              kInputs, static_cast<unsigned long long>(n),
              perf.to_string().c_str(), core::to_string(w.algorithm));

  // Drift placement is the one set-up step that is not per sort: an
  // undrifted sort of input 0, also the baseline of the recovery factor.
  // Its host time is the fastest of a few identical sorts.
  double placement_s = 0.0;
  double undrifted_makespan = 0.0;
  if (w.drift) {
    std::vector<SortRun> bases;
    std::vector<double> times;
    for (u32 i = 0; i < kPlacementReps; ++i) {
      const Clock::time_point h = Clock::now();
      SortRun base = run_sort(config, perf, specs[0], psc, sort_psrs_direct);
      times.push_back(since(h));
      res.count(base.ok && (i == 0 || same_program(bases[0], base)),
                "undrifted placement sort");
      bases.push_back(std::move(base));
    }
    placement_s = fastest(times);
    undrifted_makespan = bases[0].vmakespan;
    config.drift_plan = forced_slowdown(bases[0].nodes[0].layers.v_step1);
    psc.adaptive.enabled = true;
  }

  // Untraced sorts, cycling over the inputs.  The first pass gives each
  // input's reference result (input 0 doubles as the warm-up), and every
  // later sort of an input must reproduce its reference bit for bit.
  std::vector<SortRun> refs;
  std::vector<double> sort_times;
  std::vector<double> setups;
  std::vector<double> generates;
  std::vector<double> verifies;
  std::vector<double> peaks;
  const double untraced_budget = trace ? seconds / 2.0 : seconds;
  const Clock::time_point loop0 = Clock::now();
  for (u32 rep = 0;; ++rep) {
    const double elapsed = since(loop0);
    const bool enough = rep >= kInputs && sort_times.size() >= kMinTimedReps;
    if ((enough && elapsed >= untraced_budget) || elapsed >= kHardStopSeconds) {
      break;
    }
    const u32 k = rep % kInputs;
    reset_peak_rss();
    SortRun r = run_sort(config, perf, specs[k], psc, sort_untraced);
    if (rep > 0) peaks.push_back(peak_rss_mb());  // timed sorts only
    res.count(r.ok && (rep < kInputs || same_program(refs[k], r)),
              "untraced sort");
    setups.push_back(r.setup_s);
    generates.push_back(r.generate_s);
    verifies.push_back(r.verify_s);
    if (rep > 0) sort_times.push_back(r.sort_s);
    if (rep < kInputs) refs.push_back(std::move(r));
  }
  if (refs.size() < kInputs) {
    throw std::runtime_error("out of time before every input was sorted");
  }
  const double untraced_s = lower_quartile(sort_times);
  std::vector<double> makespans;
  std::vector<double> expansions;
  for (const SortRun& r : refs) {
    const std::vector<u64> finals = r.finals();
    makespans.push_back(r.vmakespan);
    expansions.push_back(
        metrics::sublist_expansion(std::span<const u64>(finals), perf));
  }
  if (res.failed == 0) {
    for (u32 k = 0; k < kInputs; ++k) {
      std::printf("input %u: vmakespan %.17g s, expansion %.6g\n", k,
                  makespans[k], expansions[k]);
    }
    std::printf("untraced: %zu timed sorts, lower quartile %.4f s, median %.4f s\n",
                sort_times.size(), untraced_s, median(sort_times));
  }

  if (!trace) {
    res.add("setup_s", placement_s + median(setups));
    res.add("records_per_s", static_cast<double>(n) / untraced_s);
    res.add("vmakespan_s", sum(makespans) / kInputs);
    res.add("expansion", sum(expansions) / kInputs);
    // Each sort is one job arriving at virtual time 0 on an idle cluster:
    // its latency is its makespan, and the inputs run back to back.
    res.add("vjob_p50_s", percentile(makespans, 0.50));
    res.add("vjob_p95_s", percentile(makespans, 0.95));
    res.add("vjobs_per_s", kInputs / sum(makespans));
    res.add("peak_rss_mb", median(peaks));
    return res;
  }

  // Traced sorts: psrs-uniform composes its steps; the other workloads call
  // the backend itself for its per-phase virtual split.
  const bool composed =
      !w.drift && w.algorithm == core::ParallelSortAlgorithm::kExtPsrs;
  const SortFn traced_sort = composed  ? SortFn(sort_psrs_composed)
                             : w.drift ? SortFn(sort_psrs_direct)
                                       : SortFn(sort_multiway_direct);
  // Each traced sort is paired with an untraced sort of the same input, so
  // that obs.overhead_frac compares sorts run under the same process state
  // and host load.
  net::ClusterConfig traced_config = config;
  traced_config.observe = true;
  std::vector<SortRun> traced;
  std::vector<double> paired_untraced;
  do {
    SortRun r = run_sort(traced_config, perf, specs[0], psc, traced_sort);
    const bool same = same_program(refs[0], r);
    if (!same) {
      std::fprintf(stderr,
                   "wholesort: the traced run does not reproduce the "
                   "untraced run's digests, makespan and IoStats\n");
    }
    res.count(r.ok && same, "traced sort");
    verifies.push_back(r.verify_s);
    traced.push_back(std::move(r));
    const SortRun u = run_sort(config, perf, specs[0], psc, sort_untraced);
    res.count(u.ok && same_program(refs[0], u), "untraced sort");
    paired_untraced.push_back(u.sort_s);
  } while (since(loop0) < seconds && since(loop0) < kHardStopSeconds);

  double recovery = 0.0;
  if (w.drift) {
    // The same drift with adaptation off: the damage the static split
    // takes.  Recovery = static damage / adaptive damage.
    core::ParallelSortConfig static_psc = psc;
    static_psc.adaptive.enabled = false;
    const SortRun st =
        run_sort(config, perf, specs[0], static_psc, sort_untraced);
    res.count(st.ok, "static drifted sort");
    recovery = (st.vmakespan - undrifted_makespan) /
               std::max(refs[0].vmakespan - undrifted_makespan, 1e-9);
  }

  // The fastest traced sort, as for the untraced host time.
  const SortRun& t = *std::min_element(
      traced.begin(), traced.end(),
      [](const SortRun& a, const SortRun& b) { return a.sort_s < b.sort_s; });
  // Host spans: the three composed steps, else the one backend call,
  // which no metric names.
  const auto host = [&](std::size_t step) {
    return composed ? t.span_s.at(step) : 0.0;
  };
  const auto virt = [&](double Layers::*field) {
    return max_over_nodes(t, [&](const NodeOut& o) { return o.layers.*field; });
  };
  const double traced_s = t.sort_s;
  const double mean_finish =
      sum_over_nodes(t, [](const NodeOut& o) { return o.vfinish; }) /
      static_cast<double>(t.nodes.size());
  const double dn = static_cast<double>(n);

  res.add("workload.generate_s", median(generates));
  res.add("seq.step1_s", host(0));
  res.add("seq.runform_ns_per_rec",
          runform_ns_per_rec(specs[0], perf, config.disk,
                             psc.sequential.memory_records));
  res.add("seq.initial_runs", max_over_nodes(t, [](const NodeOut& o) {
            return o.layers.initial_runs;
          }));
  res.add("seq.merge_passes", max_over_nodes(t, [](const NodeOut& o) {
            return o.layers.merge_passes;
          }));
  res.add("core.step2_s", host(1));
  res.add("core.exchange_merge_s", host(2));
  res.add("core.verify_s", median(verifies));
  res.add("core.other_s", traced_s - sum(t.span_s));
  res.add("core.v.step1_s", virt(&Layers::v_step1));
  res.add("core.v.step2_s", virt(&Layers::v_step2));
  res.add("core.v.steps3_5_s", virt(&Layers::v_steps3_5));
  res.add("core.v.run_formation_s", virt(&Layers::v_run_formation));
  res.add("core.v.splitters_s", virt(&Layers::v_splitters));
  res.add("core.v.exchange_s", virt(&Layers::v_exchange));
  res.add("core.v.merge_s", virt(&Layers::v_merge));
  res.add("pdm.blocks_per_rec", sum_over_nodes(t, [](const NodeOut& o) {
            return o.io.total_block_ios();
          }) / dn);
  res.add("pdm.files_created", sum_over_nodes(t, [](const NodeOut& o) {
            return o.io.files_created;
          }));
  res.add("net.bytes_per_rec", sum_over_nodes(t, [](const NodeOut& o) {
            return o.comm.bytes_sent;
          }) / dn);
  res.add("net.messages", sum_over_nodes(t, [](const NodeOut& o) {
            return o.comm.messages_sent;
          }));
  res.add("net.acks_consumed",
          sum_over_nodes(t, [](const NodeOut& o) { return o.acks; }));
  res.add("hetero.vidle_frac", 1.0 - mean_finish / t.vmakespan);
  res.add("hetero.drift_recovery_x", recovery);
  res.add("service.vqueue_p50_s", 0.0);
  res.add("service.vqueue_p95_s", 0.0);
  res.add("service.vrun_p50_s", t.vmakespan);
  res.add("service.host_ms_per_job", untraced_s * 1e3);
  res.add("service.rejected", 0.0);
  res.add("obs.overhead_frac", traced_s / fastest(paired_untraced) - 1.0);
  return res;
}

// ---------------------------------------------------------------------------
// service-mixed: the fair-share SortService over an open-arrival workload.

service::OpenArrivalSpec arrival_spec(u64 jobs) {
  service::OpenArrivalSpec spec;
  spec.seed = kServiceMixSeed;
  spec.job_count = jobs;
  spec.mean_interarrival_s = kServiceInterarrival;
  spec.min_records = u64{1} << 12;
  spec.max_records = u64{1} << 16;
  spec.mixed_backends = true;
  spec.datamation_fraction = 0.25;
  spec.pathological_every = 6;
  return spec;
}

service::ServiceConfig service_config(const Workload& w, u64 seed,
                                      bool observe) {
  service::ServiceConfig config;
  config.cluster = testbed(w.perf);
  config.cluster.observe = observe;
  config.policy = service::SchedulePolicy::kFairShare;
  config.seed = seed;
  config.sort = sort_config(core::ParallelSortAlgorithm::kExtPsrs);
  config.sort.sequential.memory_records = kServiceMemoryRecords;
  return config;
}

/// Jobs that failed the service's own order + permutation verification,
/// were rejected, or went missing.
u64 service_failures(const service::ServiceReport& r, u64 expected) {
  u64 failed = r.rejected.size();
  for (const service::JobReport& j : r.jobs) {
    if (!j.ok || j.records < j.spec.records) ++failed;
  }
  if (r.jobs.size() + r.rejected.size() != expected) failed = expected;
  return failed;
}

bool same_service(const service::ServiceReport& a,
                  const service::ServiceReport& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan_s != b.makespan_s) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const service::JobReport& x = a.jobs[i];
    const service::JobReport& y = b.jobs[i];
    if (x.spec.id != y.spec.id || x.digest != y.digest ||
        x.start_s != y.start_s || x.finish_s != y.finish_s ||
        !same_io(x.io, y.io)) {
      return false;
    }
  }
  return true;
}

u64 trace_counter(const obs::NodeTrace& trace, std::string_view name) {
  for (const auto& [key, value] : trace.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Mean sublist expansion over the jobs whose backend exports its final
/// partition sizes as obs counters (ext-psrs and ext-multiway).
double service_expansion(const service::ServiceReport& r) {
  double sum = 0.0;
  u64 count = 0;
  for (const service::JobReport& j : r.jobs) {
    const char* counter = nullptr;
    if (j.spec.algorithm == core::ParallelSortAlgorithm::kExtPsrs) {
      counter = "psrs.records_out";
    } else if (j.spec.algorithm == core::ParallelSortAlgorithm::kExtMultiway) {
      counter = "multiway.records_out";
    } else {
      continue;
    }
    std::vector<u64> finals;
    for (const net::NodeReport& node : j.node_reports) {
      if (node.trace) finals.push_back(trace_counter(*node.trace, counter));
    }
    if (finals.size() != j.nodes.size()) continue;
    sum += metrics::sublist_expansion(std::span<const u64>(finals),
                                      hetero::PerfVector(j.spec.perf));
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

Result run_service_workload(const Workload& w, u64 seed, u64 job_count,
                            double seconds, bool trace) {
  Result res;
  // Set-up: workload generation and service construction.  One takes some
  // microseconds, so each sample times a batch of them.  The batches are
  // spread over the run, a few before the warm-up and a few after every
  // timed run, and the metric is the median batch over its size.
  std::vector<service::JobSpec> jobs;
  std::vector<double> setups;
  std::vector<double> generates;
  const auto set_up = [&] {
    for (u32 b = 0; b < kServiceSetupBatches; ++b) {
      double generate_s = 0.0;
      const Clock::time_point h = Clock::now();
      for (u32 i = 0; i < kServiceSetupBatch; ++i) {
        const Clock::time_point g = Clock::now();
        jobs = service::open_arrival_workload(arrival_spec(job_count),
                                              static_cast<u32>(w.perf.size()));
        generate_s += since(g);
        const service::SortService svc(service_config(w, seed, false));
      }
      setups.push_back(since(h) / kServiceSetupBatch);
      generates.push_back(generate_s / kServiceSetupBatch);
    }
  };
  set_up();
  const service::ServiceConfig untraced_config = service_config(w, seed, false);
  const service::ServiceConfig traced_config = service_config(w, seed, true);
  std::printf("workload %s: %zu jobs, fair-share, perf %s\n", w.name,
              jobs.size(), hetero::PerfVector(w.perf).to_string().c_str());

  std::vector<double> checks;
  const auto run = [&](const service::ServiceConfig& config, double& host_s) {
    service::SortService svc(config);
    const Clock::time_point h = Clock::now();
    service::ServiceReport report = svc.run(jobs);
    host_s = since(h);
    const Clock::time_point c = Clock::now();
    const u64 failed = service_failures(report, jobs.size());
    checks.push_back(since(c));
    res.attempted += jobs.size();
    res.failed += failed;
    if (failed > 0) {
      std::fprintf(stderr, "wholesort: %llu jobs failed verification\n",
                   static_cast<unsigned long long>(failed));
    }
    return report;
  };

  // The untraced warm-up run is the reference: every later run replays the
  // same workload, so each must reproduce its digests and virtual times.
  double warmup_s = 0.0;
  const service::ServiceReport ref = run(untraced_config, warmup_s);
  u64 records = 0;
  for (const service::JobReport& j : ref.jobs) records += j.records;

  const auto replay = [&](const service::ServiceConfig& config,
                          std::vector<double>& times) {
    double host_s = 0.0;
    service::ServiceReport r = run(config, host_s);
    if (!same_service(ref, r)) {
      ++res.failed;
      std::fprintf(stderr, "wholesort: a service run was not reproducible\n");
    }
    times.push_back(host_s);
    return r;
  };
  std::vector<double> untraced_times;
  std::vector<double> peaks;
  const double untraced_budget = trace ? seconds / 2.0 : seconds;
  const Clock::time_point loop0 = Clock::now();
  while ((untraced_times.size() < kMinTimedReps ||
          since(loop0) < untraced_budget) &&
         since(loop0) < kHardStopSeconds) {
    reset_peak_rss();
    replay(untraced_config, untraced_times);
    peaks.push_back(peak_rss_mb());
    set_up();
  }
  const double untraced_s = lower_quartile(untraced_times);
  if (res.failed == 0) {
    std::printf("untraced: %zu timed service runs, lower quartile %.4f s, median %.4f s\n",
                untraced_times.size(), untraced_s, median(untraced_times));
  }

  // One traced run, after the timed ones: partition sizes for `expansion`
  // and the layer counts exist only as obs counters, and no virtual result
  // depends on tracing.
  std::vector<double> traced_times;
  const service::ServiceReport rep = replay(traced_config, traced_times);

  std::vector<double> latencies;
  std::vector<double> queues;
  std::vector<double> runs;
  for (const service::JobReport& j : rep.jobs) {
    latencies.push_back(j.latency_s());
    queues.push_back(j.start_s - j.arrival_s);
    runs.push_back(j.finish_s - j.start_s);
  }

  if (!trace) {
    res.add("setup_s", median(setups));
    res.add("records_per_s", static_cast<double>(records) / untraced_s);
    res.add("vmakespan_s", rep.makespan_s);
    res.add("expansion", service_expansion(rep));
    res.add("vjob_p50_s", percentile(latencies, 0.50));
    res.add("vjob_p95_s", percentile(latencies, 0.95));
    res.add("vjobs_per_s", rep.jobs_per_vsecond());
    res.add("peak_rss_mb", median(peaks));
    return res;
  }

  // Traced runs paired with untraced ones, as for the sorts; the traced run
  // above is the first pair's.
  std::vector<double> paired_untraced;
  for (;;) {
    replay(untraced_config, paired_untraced);
    if (since(loop0) >= seconds || since(loop0) >= kHardStopSeconds) break;
    replay(traced_config, traced_times);
  }
  const double traced_s = fastest(traced_times);

  // Layer counts over every job (a job's I/O includes its own input
  // generation and verification), and per physical node the virtual time
  // its last job finished.
  double blocks = 0.0;
  double files = 0.0;
  double bytes = 0.0;
  double messages = 0.0;
  double acks = 0.0;
  std::vector<double> node_finish(w.perf.size(), 0.0);
  const service::JobReport* probe_job = nullptr;
  for (const service::JobReport& j : rep.jobs) {
    blocks += static_cast<double>(j.io.total_block_ios());
    files += static_cast<double>(j.io.files_created);
    for (std::size_t i = 0; i < j.node_reports.size(); ++i) {
      const net::NodeReport& node = j.node_reports[i];
      double& finish = node_finish[j.nodes[i]];
      finish = std::max(finish, node.finish_time);
      if (!node.trace) continue;
      bytes += static_cast<double>(trace_counter(*node.trace, "net.bytes_sent"));
      messages +=
          static_cast<double>(trace_counter(*node.trace, "net.messages_sent"));
      for (const char* name : kAckCounters) {
        acks += static_cast<double>(trace_counter(*node.trace, name));
      }
    }
    if (probe_job == nullptr && j.spec.record_bytes == sizeof(Key)) {
      probe_job = &j;
    }
  }
  double runform = 0.0;
  if (probe_job != nullptr) {
    // The first 4-byte job's node-0 share, as the service generated it.
    const hetero::PerfVector perf(probe_job->spec.perf);
    workload::WorkloadSpec spec;
    spec.dist = probe_job->spec.dist;
    spec.total_records = probe_job->records;
    spec.node_count = perf.node_count();
    spec.seed = probe_job->spec.seed;
    runform = runform_ns_per_rec(spec, perf, untraced_config.cluster.disk,
                                 untraced_config.sort.sequential.memory_records);
  }
  double mean_finish = 0.0;
  for (double f : node_finish) mean_finish += f;
  mean_finish /= static_cast<double>(node_finish.size());
  const double dn = static_cast<double>(records);

  res.add("workload.generate_s", median(generates));
  for (const char* name :
       {"seq.step1_s", "seq.initial_runs", "seq.merge_passes", "core.step2_s",
        "core.exchange_merge_s", "core.v.step1_s", "core.v.step2_s",
        "core.v.steps3_5_s", "core.v.run_formation_s", "core.v.splitters_s",
        "core.v.exchange_s", "core.v.merge_s", "core.other_s",
        "hetero.drift_recovery_x"}) {
    res.add(name, 0.0);  // the service times only its outer call
  }
  res.add("seq.runform_ns_per_rec", runform);
  res.add("core.verify_s", median(checks));
  res.add("pdm.blocks_per_rec", blocks / dn);
  res.add("pdm.files_created", files);
  res.add("net.bytes_per_rec", bytes / dn);
  res.add("net.messages", messages);
  res.add("net.acks_consumed", acks);
  res.add("hetero.vidle_frac", 1.0 - mean_finish / rep.makespan_s);
  res.add("service.vqueue_p50_s", percentile(queues, 0.50));
  res.add("service.vqueue_p95_s", percentile(queues, 0.95));
  res.add("service.vrun_p50_s", percentile(runs, 0.50));
  res.add("service.host_ms_per_job",
          untraced_s * 1e3 / static_cast<double>(rep.jobs.size()));
  res.add("service.rejected", static_cast<double>(rep.rejected.size()));
  res.add("obs.overhead_frac", traced_s / fastest(paired_untraced) - 1.0);
  return res;
}

// ---------------------------------------------------------------------------
// Command line and output.

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  u64 records = kSortRecords;
  u64 jobs = kServiceJobs;

  [[noreturn]] static void usage(const std::string& error) {
    std::fprintf(stderr,
                 "wholesort: %s\nusage: wholesort --workload "
                 "psrs-uniform|multiway-zipf|service-mixed|drift-adaptive "
                 "--seed N --seconds S --trace 0|1 [--records N] [--jobs N]\n",
                 error.c_str());
    std::exit(2);
  }

  static Args parse(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = value.size();
      try {
        if (flag == "--workload") {
          a.workload = value;
        } else if (flag == "--seed") {
          a.seed = std::stoull(value, &used);
          have_seed = true;
        } else if (flag == "--seconds") {
          a.seconds = std::stod(value, &used);
          have_seconds = true;
        } else if (flag == "--trace") {
          if (value != "0" && value != "1") usage("--trace takes 0 or 1");
          a.trace = value == "1";
          have_trace = true;
        } else if (flag == "--records") {
          a.records = std::stoull(value, &used);
        } else if (flag == "--jobs") {
          a.jobs = std::stoull(value, &used);
        } else {
          usage("unknown flag " + flag);
        }
      } catch (const std::logic_error&) {
        used = 0;
      }
      if (used != value.size()) usage("bad value '" + value + "' for " + flag);
    }
    if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
      usage("--workload, --seed, --seconds and --trace are required");
    }
    if (!(a.seconds > 0.0) || a.records == 0 || a.jobs == 0) {
      usage("--seconds, --records and --jobs must be positive");
    }
    return a;
  }
};

/// PALADIN_NATIVE is the repository build's -march=native switch; this
/// package never sets it, so its results compare with a default build.
void print_environment(const Args& args) {
  std::printf(
      "env: nproc=%u build=%s PALADIN_NATIVE=0 merge_threads=%u "
      "compiler=\"%s\" peak_rss=%s workload=%s seed=%llu seconds=%g "
      "trace=%d\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      seq::resolve_merge_threads(0), __VERSION__,
      peak_rss_resettable() ? "per_run" : "process_lifetime",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
}

/// The last stdout line: exactly the keys correct, attempted, failed and
/// metrics.  A run with a failed sort reports no numbers.
void print_json(const Result& res, bool correct) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed));
  if (correct) {
    const char* sep = "";
    for (const auto& [m, value] : res.metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m->name, value, m->unit);
      sep = ", ";
    }
  }
  std::printf("}}\n");
}

/// Every metric of the mode reported exactly once, each a finite number.
template <std::size_t N>
bool complete(const Result& res, const MetricInfo (&table)[N]) {
  if (res.metrics.size() != N) return false;
  for (const MetricInfo& m : table) {
    std::size_t seen = 0;
    for (const auto& [info, value] : res.metrics) {
      if (info != &m) continue;
      ++seen;
      if (!std::isfinite(value)) return false;
    }
    if (seen != 1) return false;
  }
  return true;
}

int main_impl(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const std::optional<Workload> w = find_workload(args.workload);
  if (!w) Args::usage("unknown workload " + args.workload);
  print_environment(args);

  Result res;
  try {
    res = w->kind == Kind::kService
              ? run_service_workload(*w, args.seed, args.jobs, args.seconds,
                                     args.trace)
              : run_sort_workload(*w, args.seed, args.records, args.seconds,
                                  args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wholesort: %s\n", e.what());
    ++res.attempted;
    ++res.failed;
  }
  if (args.trace) {
    res.add("failed_frac", static_cast<double>(res.failed) /
                               static_cast<double>(std::max<u64>(res.attempted, 1)));
  }
  bool correct = res.failed == 0 && res.attempted > 0;
  if (correct && !(args.trace ? complete(res, kPerLayer)
                              : complete(res, kEndToEnd))) {
    std::fprintf(stderr, "wholesort: the metric set is incomplete\n");
    correct = false;
  }
  if (correct) {
    for (const auto& [m, value] : res.metrics) {
      if (args.trace) {
        std::printf("layer %-24s %.6g %s  moves %s  on %s\n", m->name, value,
                    m->unit, m->moves, m->on);
      } else {
        std::printf("metric %-14s %.6g %s\n", m->name, value, m->unit);
      }
    }
  }
  print_json(res, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace paladin::perfbench

int main(int argc, char** argv) {
  return paladin::perfbench::main_impl(argc, argv);
}
