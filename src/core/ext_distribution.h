// External distribution sort with probabilistic splitting — the paper's §2
// description of DeWitt–Naughton–Schneider (1991), "the closest algorithm
// in spirit to parallel sampling techniques" and our distribute-first
// baseline.  Where external PSRS sorts first and samples the *sorted*
// data, this backend:
//
//   1. samples the *unsorted* local file at random positions (perf-
//      proportionally many samples per node); a designated node picks p−1
//      perf-weighted pivots from the sample;
//   2. streams the unsorted file once, routing each record by binary
//      search into p bucket files;
//   3. redistributes bucket j to node j through the shared spill exchange
//      (core/redistribute.h): the node copies its own bucket into the
//      file it will sort and every peer's bucket lands behind it;
//   4. sorts the owned data with the sequential external sort (run
//      formation = DeWitt's "small sorted runs", merge = his merge-sort).
//
// Because the pivots come from a random sample rather than regular
// positions in sorted data, its balance guarantee is probabilistic only —
// the ablation bench measures the difference.  The sample/splitter/route
// scaffolding lives in core/backend.h, shared with overpartitioning and
// the multiway backend; only step order and the sort-last structure are
// this file's own.
#pragma once

#include <string>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"
#include "core/backend.h"
#include "core/partition_file.h"
#include "core/redistribute.h"
#include "hetero/perf_vector.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "seq/external_sort.h"

namespace paladin::core {

/// Random samples drawn per unit of perf: node i draws
/// kDistributionOversample·p·perf[i].
inline constexpr u64 kDistributionOversample = 16;

/// This backend has no knobs of its own beyond the BackendConfig core.
struct ExtDistributionConfig : BackendConfig {};

struct ExtDistributionReport : BackendReport {};

/// SPMD body; on return `config.output` holds this node's globally
/// contiguous sorted slice.
template <Record T, typename Less = std::less<T>>
ExtDistributionReport ext_distribution_sort(
    net::NodeContext& ctx, const hetero::PerfVector& perf,
    const ExtDistributionConfig& config, Less less = {}) {
  PALADIN_EXPECTS(perf.node_count() == ctx.node_count());
  net::Communicator& comm = ctx.comm();
  const u32 p = comm.size();
  const u32 rank = comm.rank();
  BackendContext bc(ctx, perf, config);
  const PhaseTimer total(bc);

  ExtDistributionReport report;
  report.local_records = ctx.disk().file_records<T>(config.input);

  // ---- Adaptive re-estimation (hetero/drift.h) ------------------------
  // Before the splitter decision: probe effective speeds and, if they
  // moved beyond the deadband, cut the splitters at the observed-weight
  // quantiles so the bucket a slowed node sorts in step 4 shrinks.
  std::vector<double> adapt_weights;
  if (config.adaptive.enabled && p > 1) {
    obs::ScopedSpan span(bc.obs(), "dist.adapt", "drift");
    const AdaptiveOutcome ad =
        adaptive_reestimate(bc, report.local_records, 0);
    if (ad.applied) adapt_weights = ad.weights;
  }

  // ---- 1. Probabilistic splitting -------------------------------------
  const u64 want = std::min<u64>(
      report.local_records,
      kDistributionOversample * p * perf[rank]);
  // At large p, BackendConfig::splitter can route this through the
  // multi-level sample tree (core/splitter_tree.h) instead of the flat
  // gather-and-sort at node 0.
  std::vector<T> pivots = select_sample_splitters<T, Less>(
      bc, draw_random_sample<T>(ctx, config.input, want), p - 1, &perf,
      /*unique_splitters=*/false, less,
      adapt_weights.empty() ? nullptr : &adapt_weights);

  // ---- 2. Stream + route into p bucket files --------------------------
  const std::string part_prefix = config.output + ".dist";
  const auto bucket_name = [&](u64 j) {
    return partition_name(part_prefix, static_cast<u32>(j));
  };
  const std::vector<u64> sizes = route_file_by_splitters<T>(
      ctx, config.input, std::span<const T>(pivots), bucket_name, less);

  // ---- 3. Redistribute: my bucket, then every peer's, into `.mine` ----
  const std::string unsorted_mine = config.output + ".mine";
  {
    pdm::BlockFile in = ctx.disk().open(bucket_name(rank));
    pdm::BlockReader<T> reader(in);
    pdm::BlockFile out = ctx.disk().create(unsorted_mine);
    pdm::BlockWriter<T> writer(out);
    ctx.on_moves(pdm::copy_records(reader, writer));
    writer.flush();
  }
  std::vector<std::vector<seq::MergePiece>> outgoing(p);
  for (u32 j = 0; j < p; ++j) {
    if (j != rank) outgoing[j].push_back({bucket_name(j), 0, sizes[j]});
  }
  redistribute_pieces<T>(
      ctx, outgoing, [&](u32, u64) { return unsorted_mine; },
      config.message_records);
  for (u32 j = 0; j < p; ++j) ctx.disk().remove(bucket_name(j));

  // ---- 4. Sort what I own externally -----------------------------------
  report.final_records = ctx.disk().file_records<T>(unsorted_mine);
  seq::external_sort<T, Less>(ctx.disk(), unsorted_mine, config.output,
                              config.sequential, ctx, less);
  ctx.disk().remove(unsorted_mine);

  report.t_total = total.seconds();
  return report;
}

}  // namespace paladin::core
