// Experiment sweep runner: executes a batch of independent simulation
// configurations and collects results in input order. Each simulation is
// deterministic in (config, seed) — and worker_threads-invariant — so the
// execution strategy cannot change any result.
//
// Single-level parallelism policy: when every config is serial
// (worker_threads == 1) the sweep fans configs across one thread pool;
// when any config asks for an inner pool (worker_threads > 1) the sweep
// runs configs sequentially so pools never nest (no oversubscription at
// large s — the s = 1024 grids run one 8-worker simulation at a time).
#pragma once

#include <vector>

#include "core/config.h"
#include "core/engine.h"

namespace stableshard::core {

struct ExperimentRun {
  SimConfig config;
  SimResult result;
  Round pooled_rounds = 0;  ///< Simulation::pooled_rounds() of the run
};

/// Run all configs (thread count 0 = hardware concurrency). With
/// `pool_every_round` each simulation that has a pool fans out every
/// round (Simulation::PoolEveryRound), so a determinism test can sweep
/// small configs that never reach the per-round gate through the pooled
/// path. Results are the same either way.
std::vector<ExperimentRun> RunSweep(const std::vector<SimConfig>& configs,
                                    std::size_t threads = 0,
                                    bool pool_every_round = false);

}  // namespace stableshard::core
