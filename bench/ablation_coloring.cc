// Ablation: coloring algorithm choice.
//
// Part A — end-to-end: BDS latency/queues with greedy (the paper's choice)
// vs Welsh-Powell ordering of the shard-clique coloring.
// Part B — offline: colors used on epoch-sized random batches by the
// schedulers' graph-free greedy and Welsh-Powell, and by DSATUR, which
// needs the explicit conflict graph (so batches are kept moderate). Fewer
// colors shorten Phase 3 by 4 rounds per color saved.
#include <cstdio>

#include "chain/account_map.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "txn/coloring.h"
#include "txn/conflict_graph.h"
#include "txn/txn_factory.h"

int main() {
  using namespace stableshard;

  std::printf("Part A: end-to-end BDS (s=64, k=8, b=2000, 25000 rounds)\n");
  std::printf("%-14s %8s %18s %14s %14s\n", "coloring", "rho",
              "avg_pending/shard", "avg_latency", "unresolved");
  CsvWriter csv("ablation_coloring.csv",
                {"coloring", "rho", "avg_pending_per_shard", "avg_latency",
                 "unresolved"});
  std::vector<core::SimConfig> configs;
  for (const auto algorithm : {txn::ColoringAlgorithm::kGreedy,
                               txn::ColoringAlgorithm::kWelshPowell}) {
    for (const double rho : {0.06, 0.12, 0.18}) {
      core::SimConfig config;
      config.scheduler = "bds";
      config.shards = 64;
      config.accounts = 64;
      config.account_assignment = core::AccountAssignment::kRoundRobin;
      config.k = 8;
      config.rho = rho;
      config.burstiness = 2000;
      config.rounds = 25000;
      config.coloring = algorithm;
      configs.push_back(config);
    }
  }
  for (const auto& run : core::RunSweep(configs)) {
    std::printf("%-14s %8.2f %18.2f %14.0f %14llu\n",
                txn::ToString(run.config.coloring), run.config.rho,
                run.result.avg_pending_per_shard, run.result.avg_latency,
                static_cast<unsigned long long>(run.result.unresolved));
    csv.Row(txn::ToString(run.config.coloring), run.config.rho,
            run.result.avg_pending_per_shard, run.result.avg_latency,
            run.result.unresolved);
  }

  std::printf(
      "\nPart B: colors used on random epoch batches (s=64, k=8; "
      "Delta+1 is the guarantee)\n");
  std::printf("%8s %10s  %-16s %8s\n", "batch", "Delta+1", "coloring",
              "colors");
  const auto map = chain::AccountMap::RoundRobin(64, 64);
  Rng rng(7);
  for (const std::size_t batch : {250ul, 1000ul, 4000ul}) {
    txn::TxnFactory factory(map);
    std::vector<txn::Transaction> txns;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto picks = rng.SampleWithoutReplacement(64, 8);
      std::vector<AccountId> accounts(picks.begin(), picks.end());
      txns.push_back(factory.MakeTouch(
          static_cast<ShardId>(rng.NextBounded(64)), 0, accounts));
    }
    std::vector<const txn::Transaction*> view;
    for (const auto& txn : txns) view.push_back(&txn);
    const txn::ConflictGraph graph(view, txn::ConflictGranularity::kShard);
    const struct {
      const char* label;
      txn::ColoringResult result;
    } rows[] = {
        {"greedy", ColorShardCliques(view, txn::ColoringAlgorithm::kGreedy)},
        {"welsh-powell",
         ColorShardCliques(view, txn::ColoringAlgorithm::kWelshPowell)},
        {"dsatur (graph)",
         ColorGraph(graph, txn::ColoringAlgorithm::kDsatur)},
    };
    for (const auto& row : rows) {
      std::printf("%8zu %10zu  %-16s %8u\n", batch, graph.MaxDegree() + 1,
                  row.label, row.result.num_colors);
    }
  }
  return 0;
}
