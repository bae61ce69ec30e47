#include "core/experiment.h"

#include "common/check.h"
#include "common/thread_pool.h"

namespace stableshard::core {

std::vector<ExperimentRun> RunSweep(const std::vector<SimConfig>& configs,
                                    std::size_t threads) {
  for (const SimConfig& config : configs) {
    SSHARD_CHECK(config.worker_threads <= 1 &&
                 "RunSweep runs serial configs only: a simulation with its "
                 "own pool inside the sweep's pool would nest pools");
  }
  std::vector<ExperimentRun> runs(configs.size());
  // One live pool for the whole sweep: simulations are coarse tasks, so the
  // instance ParallelFor hands each config its own task (no chunking) while
  // reusing the same workers across the batch.
  ThreadPool pool(threads);
  pool.ParallelFor(configs.size(), [&](std::size_t i) {
    runs[i].config = configs[i];
    runs[i].result = Simulation(configs[i]).Run();
  });
  return runs;
}

}  // namespace stableshard::core
