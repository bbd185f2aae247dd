// Quickstart: sort 400,000 integers spread over a simulated 4-node cluster
// in which two nodes run 4x faster than the other two — the paper's
// testbed in a dozen lines per step.
//
//   build/examples/quickstart
#include <iostream>

#include "core/ext_psrs.h"
#include "core/verify.h"
#include "hetero/perf_vector.h"
#include "metrics/expansion.h"
#include "net/cluster.h"
#include "workload/generators.h"

using namespace paladin;

int main() {
  // 1. Describe the cluster: speed factors, interconnect, disks.
  net::ClusterConfig config = net::ClusterConfig::paper_testbed();  // {4,4,1,1}
  config.network = net::NetworkModel::fast_ethernet();

  // 2. The perf vector the *algorithm* uses (here: the true speeds), and
  //    an input size with integral perf-proportional shares.
  hetero::PerfVector perf({4, 4, 1, 1});
  const u64 n = perf.round_up_admissible(400'000);

  // 3. Run the SPMD body on every node: write the local share, sort, verify.
  net::Cluster cluster(config);
  auto outcome = cluster.run([&](net::NodeContext& ctx) -> core::ExtPsrsReport {
    workload::WorkloadSpec spec;
    spec.dist = workload::Dist::kUniform;
    spec.total_records = n;
    spec.node_count = ctx.node_count();
    workload::write_share(spec, ctx.rank(), perf.share_offset(ctx.rank(), n),
                          perf.share(ctx.rank(), n), ctx.disk(), "input");

    core::ExtPsrsConfig psrs;
    psrs.sequential.memory_records = 1 << 16;  // out-of-core: M << share
    psrs.sequential.allow_in_memory = false;
    const core::ExtPsrsReport report =
        core::ext_psrs_sort<DefaultKey>(ctx, perf, psrs);

    if (!core::verify_global_order<DefaultKey>(ctx, "sorted")) {
      throw std::runtime_error("output is not globally sorted");
    }
    return report;
  });

  // 4. Inspect the result.
  std::cout << "sorted " << n << " records on " << config.node_count()
            << " nodes, perf " << perf.to_string() << "\n";
  std::cout << "simulated execution time: " << outcome.makespan << " s\n";
  std::vector<u64> finals;
  for (const auto& r : outcome.results) {
    finals.push_back(r.final_records);
    std::cout << "  node " << finals.size() - 1 << ": share "
              << r.local_records << " -> final " << r.final_records
              << " (seq sort " << r.t_seq_sort << " s, sampling "
              << r.t_sampling << " s, partition " << r.t_partition
              << " s, exchange " << r.t_redistribute << " s, merge "
              << r.t_final_merge << " s)\n";
  }
  std::cout << "sublist expansion: "
            << metrics::sublist_expansion(std::span<const u64>(finals), perf)
            << "  (1.0 = perfect perf-proportional balance)\n";
  return 0;
}
