// Scheduler x strategy x topology x injector-mode differential harness.
//
// The cross-product is enumerated from the live registries
// (core::SchedulerRegistry, adversary::StrategyRegistry), so a newly
// registered scheduler or workload is covered here with zero test edits,
// and every cell runs under both injector modes: the closed-loop adversary
// (the (rho, b) token buckets) and the open-loop arrival schedule
// (traffic/injector.h). Every cell must satisfy, after a capped drain:
//   - the accounting identity injected == committed + aborted + unresolved;
//   - liveness: the run drains (unresolved == 0) within the cap;
//   - differential determinism: worker_threads = 1 and 4 produce
//     bit-identical SimResult (the scheduler decomposition contract).
// "bds" and "fds" run twice per cell, once at their paper default (one
// color leader, one top root) and once at a non-trivial fan-out (the
// sharded-leader and multi-root modes); every other scheduler sees the
// fan-out knobs only (backpressure composes with the multi-root hierarchy).
// Conservation (no workload mints or destroys money) is a separate test.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "adversary/strategy_registry.h"
#include "chain/account_store.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::SimResult;
using test::ExpectBitIdenticalResults;
using test::RunWithWorkers;

// BDS (including its sharded-leader mode) is specified for the uniform
// model only (Algorithm 1; its constructor dies on non-uniform
// metrics). Every other scheduler must handle both matrix topologies.
bool SupportsTopology(const std::string& scheduler,
                      net::TopologyKind topology) {
  if (scheduler.rfind("bds", 0) == 0) {
    return topology == net::TopologyKind::kUniform;
  }
  return true;
}

// Small enough that the full cross-product stays fast (and ASan-friendly),
// large enough that every strategy is non-degenerate: pairwise_conflict
// needs s >= k(k+1)/2 = 6 for k = 3.
SimConfig MatrixConfig(const std::string& scheduler,
                       const std::string& strategy,
                       net::TopologyKind topology, bool fan_out = true) {
  SimConfig config;
  config.scheduler = scheduler;
  config.strategy = strategy;
  config.topology = topology;
  config.shards = 12;
  config.accounts = 12;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.k = 3;
  config.rho = 0.02;
  config.burstiness = 10;
  config.rounds = 300;
  config.drain_cap = 120000;
  config.seed = 11;
  // Knob value 1 is the paper's protocol; the fan-out values exercise the
  // co-leader and multi-root code.
  if (fan_out) {
    config.bds_color_leaders = 4;
    config.fds_top_roots = 3;
  }
  return config;
}

// Fan-out settings each scheduler runs under (see the file comment).
std::vector<bool> FanOutsFor(const std::string& scheduler) {
  if (scheduler == "bds" || scheduler == "fds") return {false, true};
  return {true};
}

// One golden trace per topology: a closed-loop uniform_random run whose
// injection stream is captured by the engine's TraceWriter. The open-mode
// trace_replay cells replay it through every scheduler — record once,
// replay everywhere.
const std::string& GoldenTrace(net::TopologyKind topology) {
  static std::map<std::string, std::string>* cache =
      new std::map<std::string, std::string>;
  const std::string key = net::TopologyName(topology);
  const auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  const std::string path =
      ::testing::TempDir() + "matrix_golden_" + key + ".trace";
  SimConfig config = MatrixConfig("direct", "uniform_random", topology);
  config.trace_out = path;
  core::Simulation sim(config);
  const SimResult result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  return (*cache)[key] = path;
}

TEST(Matrix, SchedulerStrategyTopologyCrossProduct) {
  const auto schedulers = core::SchedulerRegistry::Global().Names();
  const auto strategies = adversary::StrategyRegistry::Global().Names();
  // The in-tree registrations must all be present (more may be registered).
  ASSERT_GE(schedulers.size(), 3u);
  ASSERT_GE(strategies.size(), 8u);

  for (const bool open_loop : {false, true}) {
    for (const net::TopologyKind topology :
         {net::TopologyKind::kUniform, net::TopologyKind::kLine}) {
      for (const std::string& scheduler : schedulers) {
        if (!SupportsTopology(scheduler, topology)) continue;
        for (const bool fan_out : FanOutsFor(scheduler)) {
          for (const std::string& strategy : strategies) {
            SCOPED_TRACE(std::string(open_loop ? "open" : "closed") + " x " +
                         scheduler + (fan_out ? " (fan-out)" : "") + " x " +
                         strategy + " x " + net::TopologyName(topology));
            SimConfig config =
                MatrixConfig(scheduler, strategy, topology, fan_out);
            if (strategy == "trace_replay") {
              // Replay needs a recorded schedule; the closed loop has none —
              // the open pass replays the per-topology golden trace instead.
              if (!open_loop) continue;
              config.trace = GoldenTrace(topology);
            } else if (open_loop) {
              config.arrival_rate = 0.4;
              config.arrival_burst = 6.0;
            }

            const SimResult serial = RunWithWorkers(config, 1);
            EXPECT_GT(serial.injected, 0u);
            EXPECT_EQ(serial.injected,
                      serial.committed + serial.aborted + serial.unresolved);
            EXPECT_TRUE(serial.drained) << "did not drain within the cap";
            EXPECT_EQ(serial.unresolved, 0u);
            if (open_loop) {
              // Open loop: every offered transaction was eventually injected
              // (the schedule drains through the drain phase if need be).
              EXPECT_GT(serial.offered_txns, 0u);
              EXPECT_EQ(serial.offered_txns, serial.injected_txns);
            }

            const SimResult parallel = RunWithWorkers(config, 4);
            ExpectBitIdenticalResults(serial, parallel);
          }
        }
      }
    }
  }
}

TEST(Matrix, BalanceConservationAcrossAllStrategies) {
  // Seeded conservation property: whatever the workload (including ones
  // with poisoned, aborting accesses), commits and aborts neither mint nor
  // destroy money — after a drained run every account still carries its
  // initial balance (the touch workloads deposit 0), so the total over the
  // materialized AccountStore entries plus the untouched remainder equals
  // accounts * initial_balance exactly.
  for (const std::string& strategy :
       adversary::StrategyRegistry::Global().Names()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      SCOPED_TRACE(strategy + " seed " + std::to_string(seed));
      SimConfig config =
          MatrixConfig("direct", strategy, net::TopologyKind::kLine);
      if (strategy == "trace_replay") {
        config.trace = GoldenTrace(net::TopologyKind::kLine);
      }
      config.seed = seed;
      config.abort_probability = 0.25;  // exercise the abort path too
      core::Simulation sim(config);
      const SimResult result = sim.Run();
      ASSERT_TRUE(result.drained);

      chain::Balance total = 0;
      std::size_t materialized = 0;
      for (ShardId shard = 0; shard < config.shards; ++shard) {
        total += sim.ledger().store(shard).TotalBalance();
        materialized += sim.ledger().store(shard).materialized_accounts();
      }
      total += static_cast<chain::Balance>(config.accounts - materialized) *
               config.initial_balance;
      EXPECT_EQ(total, static_cast<chain::Balance>(config.accounts) *
                           config.initial_balance);
    }
  }
}

}  // namespace
}  // namespace stableshard
