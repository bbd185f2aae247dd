// Speed drift vs adaptive repartitioning, quantified: on four equal
// simulated nodes, a seeded drift plan forces a 4× slowdown of node 0
// just before it finishes PSRS step 1 — so the damage lands in steps 2–5,
// exactly the region adaptive repartitioning can rebalance.  Three runs:
//
//   baseline   no drift            (the floor)
//   static     drift, perf frozen  (the damage)
//   adaptive   drift + re-estimate (the recovery)
//
// The headline number is the recovery factor
//   (makespan_static − makespan_baseline) / (makespan_adaptive − baseline)
// and the claim is *asserted*, not just reported: adaptive must recover at
// least 2× of the damage the slowdown inflicts on static-perf PSRS, and
// every run must still verify.  Machine-readable results land in
// bench_results/BENCH_drift.json; tools/check_perf_regression.py --drift
// gates the recovery factor in CI.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/ext_psrs.h"
#include "core/verify.h"
#include "hetero/drift.h"
#include "hetero/perf_vector.h"
#include "metrics/table.h"
#include "workload/generators.h"

namespace paladin::bench {
namespace {

constexpr double kSlowFactor = 4.0;
constexpr double kRecoveryTarget = 2.0;

struct DriftRunResult {
  double makespan = 0.0;
  double t_seq_sort0 = 0.0;  ///< rank 0's step-1 duration
  bool ok = true;
};

DriftRunResult run_psrs(const BenchOptions& opt,
                        const hetero::DriftPlan& plan, bool adaptive,
                        u64 records) {
  const std::vector<u32> perf_values(4, 1);
  hetero::PerfVector perf(perf_values);
  const u64 n = perf.round_up_admissible(records);

  net::ClusterConfig config = paper_cluster(opt);
  config.perf = perf_values;
  config.seed = 2026;
  config.drift_plan = plan;
  net::Cluster cluster(config);

  workload::WorkloadSpec spec;
  spec.dist = workload::Dist::kUniform;
  spec.total_records = n;
  spec.node_count = perf.node_count();
  spec.seed = 0xd41f;

  auto outcome = cluster.run([&](net::NodeContext& ctx) {
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");
    core::ExtPsrsConfig pc;
    // A genuinely out-of-core budget (3 blocks): the step-5 merge of p
    // runs goes multi-pass, so the slice-proportional work the re-split
    // can shrink dominates the fixed read-partition-send work it cannot.
    pc.sequential.memory_records =
        3 * ctx.disk().params().records_per_block(sizeof(DefaultKey));
    pc.sequential.allow_in_memory = false;
    pc.message_records = 8192;
    pc.adaptive.enabled = adaptive;
    const core::ExtPsrsReport report =
        core::ext_psrs_sort<DefaultKey>(ctx, perf, pc);
    struct R {
      core::ExtPsrsReport rep;
      bool ok;
    };
    return R{report, core::verify_global_order<DefaultKey>(ctx, pc.output)};
  });

  DriftRunResult r;
  r.makespan = outcome.makespan;
  r.t_seq_sort0 = outcome.results[0].rep.t_seq_sort;
  for (auto& nr : outcome.results) r.ok = r.ok && nr.ok;
  if (std::getenv("PALADIN_BENCH_DRIFT_DEBUG") != nullptr) {
    std::cerr << "  [debug] adaptive=" << adaptive << "\n";
    for (u32 i = 0; i < outcome.results.size(); ++i) {
      const auto& rep = outcome.results[i].rep;
      std::cerr << "  [debug] node " << i << " seq=" << rep.t_seq_sort
                << " sample=" << rep.t_sampling << " part=" << rep.t_partition
                << " redist=" << rep.t_redistribute
                << " merge=" << rep.t_final_merge
                << " out=" << rep.final_records << "\n";
    }
  }
  return r;
}

void append_row(std::string& json, const char* mode, double makespan,
                double damage, bool ok, bool first) {
  if (!first) json += ",\n";
  json += "    {\"mode\": \"" + std::string(mode) +
          "\", \"makespan_s\": " + metrics::TextTable::fmt(makespan, 6) +
          ", \"damage_s\": " + metrics::TextTable::fmt(damage, 6) +
          ", \"ok\": " + (ok ? "true" : "false") + "}";
}

int run(const BenchOptions& opt) {
  const u64 records = scaled_pow2(opt, 21);

  heading("Speed drift: forced " +
          metrics::TextTable::fmt(kSlowFactor, 0) +
          "x slowdown of node 0 near the end of step 1, cluster {1,1,1,1}, " +
          std::to_string(records) + " records");

  // Baseline pins both the floor and the place to put the slowdown: the
  // forced window opens at ~97% of rank 0's step-1 duration, so step 1 is
  // almost free of it and steps 2–5 carry the full 4×.
  const DriftRunResult baseline =
      run_psrs(opt, hetero::DriftPlan{}, /*adaptive=*/false, records);

  hetero::DriftPlan plan;
  plan.spec.epoch_seconds = baseline.t_seq_sort0 / 256.0;
  hetero::ForcedSlowdown forced;
  forced.rank = 0;
  forced.from_epoch = 248;  // ≈ 0.97 · t_seq_sort, until stays unbounded
  forced.factor = kSlowFactor;
  plan.forced.push_back(forced);

  const DriftRunResult st = run_psrs(opt, plan, /*adaptive=*/false, records);
  const DriftRunResult ad = run_psrs(opt, plan, /*adaptive=*/true, records);

  const double damage_static = st.makespan - baseline.makespan;
  const double damage_adaptive = ad.makespan - baseline.makespan;
  // Adaptive recovering *everything* (or more) shows up as a zero or
  // negative residual; clamp the denominator so the factor stays finite.
  const double recovery_factor =
      damage_static / std::max(damage_adaptive, 1e-9);

  metrics::TextTable table({"mode", "makespan (s)", "damage (s)", "ok"});
  table.add_row({"baseline", fmt_seconds(baseline.makespan), "-",
                 baseline.ok ? "yes" : "NO"});
  table.add_row({"static", fmt_seconds(st.makespan),
                 fmt_seconds(damage_static), st.ok ? "yes" : "NO"});
  table.add_row({"adaptive", fmt_seconds(ad.makespan),
                 fmt_seconds(damage_adaptive), ad.ok ? "yes" : "NO"});
  table.print(std::cout);

  bool ok = baseline.ok && st.ok && ad.ok;
  if (damage_static <= 0.0) {
    note("DRIFT FAILURE: the forced slowdown inflicted no damage on the "
         "static run — the plan missed the makespan path");
    ok = false;
  }
  if (recovery_factor >= kRecoveryTarget) {
    note("recovery: adaptive keeps " + fmt_seconds(damage_adaptive) +
         " s of the " + fmt_seconds(damage_static) +
         " s static damage -- recovery factor " +
         metrics::TextTable::fmt(recovery_factor, 2) + "x (target >= " +
         metrics::TextTable::fmt(kRecoveryTarget, 0) + "x)");
  } else {
    note("RECOVERY FAILURE: factor " +
         metrics::TextTable::fmt(recovery_factor, 2) + "x below the " +
         metrics::TextTable::fmt(kRecoveryTarget, 0) + "x target");
    ok = false;
  }

  std::filesystem::create_directories("bench_results");
  std::ofstream out("bench_results/BENCH_drift.json");
  out << "{\n  \"bench\": \"drift\",\n  \"cluster\": \"1,1,1,1\",\n"
      << "  \"records\": " << records << ",\n  \"slow_factor\": "
      << metrics::TextTable::fmt(kSlowFactor, 1) << ",\n"
      << "  \"recovery_factor\": "
      << metrics::TextTable::fmt(recovery_factor, 4) << ",\n"
      << "  \"recovery_ok\": " << (ok ? "true" : "false") << ",\n"
      << "  \"rows\": [\n";
  std::string json;
  append_row(json, "baseline", baseline.makespan, 0.0, baseline.ok, true);
  append_row(json, "static", st.makespan, damage_static, st.ok, false);
  append_row(json, "adaptive", ad.makespan, damage_adaptive, ad.ok, false);
  out << json << "\n  ]\n}\n";
  out.close();
  note("wrote bench_results/BENCH_drift.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace paladin::bench

int main(int argc, char** argv) {
  return paladin::bench::run(paladin::bench::BenchOptions::parse(argc, argv));
}
