// Experiment sweep runner: executes a batch of independent serial
// simulation configurations across one thread pool and collects results in
// input order. Each simulation is deterministic in (config, seed), so the
// execution order cannot change any result.
#pragma once

#include <vector>

#include "core/config.h"
#include "core/engine.h"

namespace stableshard::core {

struct ExperimentRun {
  SimConfig config;
  SimResult result;
};

/// Run all configs, one simulation per pool task (thread count 0 =
/// hardware concurrency). Parallelism lives across configurations only:
/// every config must be serial (worker_threads <= 1), so pools never nest.
std::vector<ExperimentRun> RunSweep(const std::vector<SimConfig>& configs,
                                    std::size_t threads = 0);

}  // namespace stableshard::core
