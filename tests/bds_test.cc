// Integration tests for Algorithm 1 (BDS): liveness, atomic same-round
// commitment, serialization consistency, the Lemma 1 epoch-length bound and
// the Theorem 2 queue/latency bounds at admissible rates, leader rotation,
// and abort handling — parameterized across system sizes and strategies.
#include <gtest/gtest.h>

#include <string>

#include "common/math_util.h"
#include "core/bds.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::Simulation;
using test::ExpectDrainedRunInvariants;
using test::SmallConfig;

TEST(Bds, DrainsAndCommitsEverything) {
  SimConfig config = SmallConfig("bds");
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  EXPECT_EQ(result.aborted, 0u);  // no failing conditions in this workload
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/true);
}

TEST(Bds, RequiresUniformModel) {
  SimConfig config = SmallConfig("bds");
  config.topology = net::TopologyKind::kLine;
  EXPECT_DEATH(Simulation sim(config), "uniform");
}

struct BdsCase {
  ShardId shards;
  AccountId accounts;
  std::uint32_t k;
  const char* strategy;  ///< a name registered in adversary::StrategyRegistry
  std::uint64_t seed;
};

class BdsProperty : public ::testing::TestWithParam<BdsCase> {};

TEST_P(BdsProperty, InvariantsAcrossConfigs) {
  const BdsCase param = GetParam();
  SimConfig config = SmallConfig("bds");
  config.shards = param.shards;
  config.accounts = param.accounts;
  config.k = param.k;
  config.strategy = param.strategy;
  config.seed = param.seed;
  config.rounds = 1200;
  config.burstiness = 20;
  // Admissible rate for this (k, s): half the paper's BDS bound.
  config.rho = 0.5 * BdsStableRateBound(param.k, param.shards);
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/true);

  // Theorem 2: pending <= 4bs at admissible rates.
  EXPECT_LE(result.max_pending, 4.0 * config.burstiness * config.shards);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BdsProperty,
    ::testing::Values(
        BdsCase{4, 4, 2, "uniform_random", 1},
        BdsCase{16, 16, 4, "uniform_random", 2},
        BdsCase{16, 64, 4, "uniform_random", 3},
        BdsCase{64, 64, 8, "uniform_random", 4},
        BdsCase{16, 16, 4, "hotspot", 5},
        BdsCase{16, 16, 1, "single_shard", 6},
        BdsCase{10, 10, 4, "pairwise_conflict", 7},
        BdsCase{16, 32, 3, "local", 8},
        BdsCase{16, 16, 4, "hot_destination", 9},
        BdsCase{16, 16, 3, "diameter_span", 10}),
    [](const ::testing::TestParamInfo<BdsCase>& info) {
      const auto& p = info.param;
      return std::string(p.strategy) + "_s" + std::to_string(p.shards) +
             "_k" + std::to_string(p.k) + "_seed" + std::to_string(p.seed);
    });

TEST(Bds, EpochLengthWithinLemma1Bound) {
  // Lemma 1: at rho <= bound and burstiness b, every epoch has length at
  // most tau = 18 * b * min{k, ceil(sqrt(s))}.
  SimConfig config = SmallConfig("bds");
  config.shards = 16;
  config.accounts = 16;
  config.k = 4;
  config.burstiness = 10;
  config.rho = BdsStableRateBound(config.k, config.shards);
  config.rounds = 3000;
  Simulation sim(config);
  auto& scheduler = dynamic_cast<core::BdsScheduler&>(sim.scheduler());
  const auto result = sim.Run();
  (void)result;
  const double tau =
      18.0 * config.burstiness * MinKSqrtS(config.k, config.shards);
  EXPECT_LE(scheduler.max_epoch_length(), tau);
}

TEST(Bds, LatencyWithinTheorem2Bound) {
  SimConfig config = SmallConfig("bds");
  config.shards = 16;
  config.accounts = 16;
  config.k = 4;
  config.burstiness = 10;
  config.rho = BdsStableRateBound(config.k, config.shards);
  config.rounds = 3000;
  config.drain_cap = 40000;
  Simulation sim(config);
  const auto result = sim.Run();
  const double bound =
      36.0 * config.burstiness * MinKSqrtS(config.k, config.shards);
  EXPECT_LE(result.max_latency, bound);
  ExpectDrainedRunInvariants(sim, result, true);
}

TEST(Bds, LeaderRotates) {
  SimConfig config = SmallConfig("bds");
  config.rounds = 200;
  config.drain_cap = 0;
  // Light load so epochs stay short and many leader rotations happen.
  config.burstiness = 1;
  config.burst_round = kNoRound;
  config.rho = 0.01;
  Simulation sim(config);
  auto& scheduler = dynamic_cast<core::BdsScheduler&>(sim.scheduler());
  sim.Run();
  EXPECT_GT(scheduler.epoch_index(), 1u);
  // After e epochs, the leader is S_{e mod s}.
  EXPECT_EQ(scheduler.current_leader(),
            scheduler.epoch_index() % config.shards);
}

TEST(Bds, AbortingTransactionsResolve) {
  SimConfig config = SmallConfig("bds");
  config.abort_probability = 0.3;
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.aborted, 0u);
  EXPECT_GT(result.committed, 0u);
  ExpectDrainedRunInvariants(sim, result, true);
}

TEST(Bds, AbortedTxnsLeaveNoBlocks) {
  SimConfig config = SmallConfig("bds");
  config.abort_probability = 1.0;  // every txn carries a failing condition
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_EQ(result.committed, 0u);
  EXPECT_EQ(result.aborted, result.injected);
  for (const auto& chain : sim.ledger().chains()) {
    EXPECT_TRUE(chain.empty());
  }
}

TEST(Bds, EmptyEpochsAreShort) {
  // With no injections at all, epochs tick over at length 2 and nothing
  // breaks.
  SimConfig config = SmallConfig("bds");
  config.rho = 0.001;
  config.burstiness = 1;
  config.burst_round = kNoRound;
  config.rounds = 100;
  Simulation sim(config);
  auto& scheduler = dynamic_cast<core::BdsScheduler&>(sim.scheduler());
  sim.Run();
  EXPECT_GE(scheduler.epoch_index(), 20u);
}

TEST(Bds, ColoringAlternativesAllCorrect) {
  for (const auto algorithm : {txn::ColoringAlgorithm::kGreedy,
                               txn::ColoringAlgorithm::kWelshPowell}) {
    SimConfig config = SmallConfig("bds");
    config.coloring = algorithm;
    config.rounds = 800;
    Simulation sim(config);
    const auto result = sim.Run();
    ExpectDrainedRunInvariants(sim, result, true);
  }
}

TEST(Bds, BalanceConservationUnderTransfers) {
  // The touch workload deposits 0 everywhere, so total balance must stay at
  // accounts * initial_balance.
  SimConfig config = SmallConfig("bds");
  Simulation sim(config);
  sim.Run();
  chain::Balance total = 0;
  for (ShardId shard = 0; shard < config.shards; ++shard) {
    total += sim.ledger().store(shard).TotalBalance();
  }
  // Only materialized accounts count; every materialized account must still
  // hold the initial balance (deposit 0 is a no-op write).
  std::size_t materialized = 0;
  for (ShardId shard = 0; shard < config.shards; ++shard) {
    materialized += sim.ledger().store(shard).materialized_accounts();
  }
  EXPECT_EQ(total, static_cast<chain::Balance>(materialized) *
                       config.initial_balance);
}

}  // namespace
}  // namespace stableshard
