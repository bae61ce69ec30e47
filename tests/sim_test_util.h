// Shared helpers for the scheduler integration tests: canned
// configurations, single-sourced run helpers (worker-thread overrides, the
// bit-identical SimResult comparison) and the common post-run invariant
// bundle (liveness, chain integrity, serializability, accounting
// consistency). Tests must build configs through these helpers rather than
// hand-rolling copies — the copies in engine_test.cc / parallel_engine_test
// had started to drift from the config.cc defaults.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "chain/global_chain.h"
#include "core/config.h"
#include "core/engine.h"

namespace stableshard::test {

inline core::SimConfig SmallConfig(const std::string& scheduler) {
  core::SimConfig config;
  config.scheduler = scheduler;
  config.shards = 16;
  config.accounts = 16;
  config.k = 4;
  config.rho = 0.05;
  config.burstiness = 30;
  config.rounds = 1500;
  config.drain_cap = 60000;
  config.seed = 7;
  // BDS (single- and sharded-leader alike) requires the uniform model.
  config.topology = scheduler.rfind("bds", 0) == 0
                        ? net::TopologyKind::kUniform
                        : net::TopologyKind::kLine;
  return config;
}

/// Run `config` once with the given worker-thread count, fanning out
/// every round (Simulation::PoolEveryRound): the test grids' rounds sit
/// below the per-round gate, and silently serialized workers would make
/// every worker-count determinism assertion vacuous.
inline core::SimResult RunWithWorkers(core::SimConfig config,
                                      std::uint32_t workers) {
  config.worker_threads = workers;
  core::Simulation sim(config);
  sim.PoolEveryRound();
  return sim.Run();
}

/// Protocol-outcome fields equal, doubles bit-for-bit
/// (core::FirstDifferingProtocolField): what a WAL-enabled fault-free run
/// must share with a WAL-off run; same-config comparisons use
/// ExpectBitIdenticalResults below. A failure names the first differing
/// field.
inline void ExpectBitIdenticalProtocol(const core::SimResult& a,
                                       const core::SimResult& b) {
  EXPECT_EQ(core::FirstDifferingProtocolField(a, b), "");
}

/// Every SimResult field equal, doubles bit-for-bit
/// (core::FirstDifferingField) — the parallel path performs the exact same
/// arithmetic in the exact same order, so worker_threads must never
/// perturb a single bit of the outcome, the durability counters included.
inline void ExpectBitIdenticalResults(const core::SimResult& a,
                                      const core::SimResult& b) {
  EXPECT_EQ(core::FirstDifferingField(a, b), "");
}

/// Invariants every scheduler must satisfy after a drained run:
///  - liveness: everything injected was resolved;
///  - accounting: injected == committed + aborted;
///  - every local chain verifies; reconstruction succeeds;
///  - cross-shard serializability of the commit orders;
///  - committed transactions appear on exactly their destination shards.
inline void ExpectDrainedRunInvariants(const core::Simulation& sim,
                                       const core::SimResult& result,
                                       bool same_round_atomicity) {
  EXPECT_TRUE(result.drained) << "scheduler failed to drain";
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_EQ(result.injected, result.committed + result.aborted);

  const auto& chains = sim.ledger().chains();
  for (const auto& chain : chains) {
    EXPECT_TRUE(chain.Verify());
  }
  const auto mode = same_round_atomicity ? chain::AtomicityMode::kSameRound
                                         : chain::AtomicityMode::kOrdered;
  const auto reconstruction = chain::ReconstructGlobalChain(chains, mode);
  EXPECT_TRUE(reconstruction.consistent) << reconstruction.error;
  EXPECT_EQ(reconstruction.entries.size(), result.committed);
  EXPECT_TRUE(chain::CheckSerializable(chains));
}

}  // namespace stableshard::test
