#include "core/experiment.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace stableshard::core {

std::vector<ExperimentRun> RunSweep(const std::vector<SimConfig>& configs,
                                    std::size_t threads,
                                    bool pool_every_round) {
  std::vector<ExperimentRun> runs(configs.size());
  const auto run_one = [&](std::size_t i) {
    runs[i].config = configs[i];
    Simulation simulation(configs[i]);
    if (pool_every_round) simulation.PoolEveryRound();
    runs[i].result = simulation.Run();
    runs[i].pooled_rounds = simulation.pooled_rounds();
  };

  // Single-level parallelism policy: parallelism lives either *across*
  // configurations (outer pool, each simulation serial) or *inside* each
  // simulation (worker_threads > 1, configurations run one at a time) —
  // never both. A sweep of w-threaded simulations fanned across t outer
  // workers would spin up t live pools of w workers each (w*t threads on
  // however many cores exist), and at s = 1024 the oversubscription is what
  // dominated wall clock. Results are unaffected either way: simulations
  // are deterministic in (config, seed) and worker_threads is
  // result-invariant by the scheduler decomposition contract.
  const bool inner_parallel =
      std::any_of(configs.begin(), configs.end(),
                  [](const SimConfig& c) { return c.worker_threads > 1; });
  if (inner_parallel) {
    for (std::size_t i = 0; i < configs.size(); ++i) run_one(i);
    return runs;
  }

  // One live pool for the whole sweep: simulations are coarse tasks, so the
  // instance ParallelFor hands each config its own task (no chunking) while
  // reusing the same workers across the batch.
  ThreadPool pool(threads);
  pool.ParallelFor(configs.size(), run_one);
  return runs;
}

}  // namespace stableshard::core
