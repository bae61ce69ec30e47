// Scalability sweep: how the stability region moves with s and k.
//
// The paper's admissible BDS rate is rho <= max{1/(18k), 1/(18 ceil sqrt s)}
// and the absolute bound is max{2/(k+1), 2/floor(sqrt(2s))}: larger k
// shrinks the per-transaction parallelism, larger s grows aggregate
// capacity. We measure the backlog at a fixed per-shard rate across (s, k)
// and print it against the two analytic rates.
//
// Default grid: s in {16, 64, 144} x k in {2, 4, 8} on the uniform model
// (BDS). With --large the grid becomes the ROADMAP's s in {256, 512, 1024}
// sweep with burst b = 3000 across uniform (bds), line (fds) and ring (fds)
// topologies at k = 8 (non-uniform cells run the radius-bounded local
// workload so low-layer epochs — and commits — fit in the run):
//
//   build/bench/scaling [--large] [--rounds=N] [--rho=0.10] [--workers=8]
//       [--radius=8]
//
// Large-s configs run worker_threads = workers inside each simulation;
// RunSweep's single-level policy then executes configs sequentially, so
// pools never nest (see core/experiment.h).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/math_util.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace stableshard;

  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const bool large = flags.GetBool("large", false);
  // Large-mode defaults match parallel_rounds --grid so the two tables
  // describe the same workload per (topology, scheduler, s) cell.
  const double rho = flags.GetDouble("rho", large ? 0.15 : 0.10);
  const auto rounds =
      static_cast<Round>(flags.GetUint("rounds", large ? 2000 : 12000));
  const double burst = flags.GetDouble("b", large ? 3000 : 500);
  const auto workers = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flags.GetUint("workers", large ? 8 : 1)));
  const auto radius = static_cast<Distance>(flags.GetUint("radius", 8));
  if (!flags.FinishReads()) return 2;

  std::vector<core::SimConfig> configs;
  if (large) {
    for (const bench::LargeGridCell& cell : bench::LargeScaleGrid()) {
      core::SimConfig config =
          bench::LargeGridConfig(cell, rho, burst, rounds, radius);
      config.worker_threads = workers;
      configs.push_back(config);
    }
  } else {
    for (const ShardId s : {16u, 64u, 144u}) {
      for (const std::uint32_t k : {2u, 4u, 8u}) {
        core::SimConfig config;
        config.scheduler = "bds";
        config.topology = net::TopologyKind::kUniform;
        config.shards = s;
        config.accounts = s;
        config.account_assignment = core::AccountAssignment::kRoundRobin;
        config.k = k;
        config.rho = rho;
        config.burstiness = burst;
        config.rounds = rounds;
        config.worker_threads = workers;
        configs.push_back(config);
      }
    }
  }
  const auto runs = core::RunSweep(configs);

  CsvWriter csv("scaling.csv",
                {"topology", "scheduler", "s", "k", "rho", "bds_admissible",
                 "theorem1_bound", "avg_pending_per_shard", "avg_latency",
                 "unresolved"});
  std::printf("%s grid at fixed rho=%.2f, b=%.0f, %llu rounds\n",
              large ? "large-s" : "BDS", rho, burst,
              static_cast<unsigned long long>(rounds));
  std::printf("%8s %5s %6s %4s | %14s %14s | %18s %12s %12s\n", "topology",
              "sched", "s", "k", "bds_admissible", "theorem1_rho*",
              "avg_pending/shard", "avg_latency", "unresolved");
  for (const auto& run : runs) {
    const std::string topology = net::TopologyName(run.config.topology);
    // The analytic rates are BDS bounds for the uniform model; leave the
    // columns blank for fds line/ring rows where they do not apply.
    std::string admissible_cell, absolute_cell;
    if (run.config.scheduler == "bds") {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.4f",
                    BdsStableRateBound(run.config.k, run.config.shards));
      admissible_cell = buffer;
      std::snprintf(
          buffer, sizeof buffer, "%.3f",
          AbsoluteStabilityUpperBound(run.config.k, run.config.shards));
      absolute_cell = buffer;
    }
    std::printf("%8s %5s %6u %4u | %14s %14s | %18.2f %12.0f %12llu\n",
                topology.c_str(), run.config.scheduler.c_str(),
                run.config.shards, run.config.k,
                admissible_cell.empty() ? "-" : admissible_cell.c_str(),
                absolute_cell.empty() ? "-" : absolute_cell.c_str(),
                run.result.avg_pending_per_shard, run.result.avg_latency,
                static_cast<unsigned long long>(run.result.unresolved));
    csv.Row(topology, run.config.scheduler, run.config.shards, run.config.k,
            rho, admissible_cell, absolute_cell,
            run.result.avg_pending_per_shard, run.result.avg_latency,
            run.result.unresolved);
  }
  std::printf(
      "\nReading: at fixed per-shard rate, larger k inflates conflict "
      "degree (backlog grows with k); larger s adds parallel capacity "
      "(backlog per shard shrinks with s), tracking the analytic rates.\n");
  return 0;
}
