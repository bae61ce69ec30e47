// Backpressure scheduler edge cases beyond the matrix harness's generic
// coverage (the matrix exercises "backpressure" on every strategy x
// topology with the default watermarks; these tests force the watermarks
// low enough that the admission gate actually engages):
//   - watermark hysteresis: a destination crossing high stays hot through
//     rounds whose signal sits between the watermarks, and clears only at
//     or below low;
//   - spill-queue drain-to-empty: a run that parked transactions still
//     drains completely once injection stops, with the accounting
//     identity and the full chain/serializability invariant bundle;
//   - invalid watermark config dies in the constructor (the CLI-level
//     exit-2 path is asserted end-to-end by the
//     cli_invalid_backpressure_exits_2 ctest check);
//   - bit-identity under engaged shedding: workers 1 vs 4, every round
//     pooled.
#include <gtest/gtest.h>

#include "chain/account_map.h"
#include "cluster/hierarchy.h"
#include "common/rng.h"
#include "consensus/backpressure_scheduler.h"
#include "core/commit_ledger.h"
#include "core/engine.h"
#include "net/metric.h"
#include "sim_test_util.h"
#include "txn/txn_factory.h"

namespace stableshard {
namespace {

using consensus::BackpressureConfig;
using consensus::BackpressureScheduler;
using test::ExpectBitIdenticalResults;
using test::RunWithWorkers;

/// A hot-destination config whose low watermarks make the gate engage in
/// bench-scale runs (the defaults are sized to stay out of the way).
core::SimConfig EngagedConfig() {
  core::SimConfig config;
  config.scheduler = "backpressure";
  config.strategy = "hot_destination";
  // Sustained saturation at the hot leader: shedding cuts queue peaks
  // under overload; near the stability boundary deferred-then-readmitted
  // arrivals just reshuffle epoch batches and the comparison is noise.
  config.zipf_theta = 1.5;
  config.topology = net::TopologyKind::kLine;
  config.shards = 16;
  config.accounts = 16;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.k = 4;
  config.rho = 0.45;
  config.burst_round = kNoRound;
  config.rounds = 400;
  config.drain_cap = 120000;
  config.seed = 17;
  config.backpressure_high = 12;
  config.backpressure_low = 3;
  return config;
}

/// Unit-level fixture: a BackpressureScheduler over a tiny uniform metric,
/// driven round-by-round by hand so the hot flags are observable between
/// rounds.
class BackpressureUnitTest : public ::testing::Test {
 protected:
  static constexpr ShardId kShards = 4;

  BackpressureUnitTest()
      : metric_(net::MakeMetric(net::TopologyKind::kUniform, kShards,
                                nullptr)),
        map_(chain::AccountMap::RoundRobin(kShards, kShards)),
        hierarchy_(cluster::Hierarchy::BuildLineShifted(*metric_)),
        ledger_(map_, 1'000'000),
        factory_(map_) {}

  std::unique_ptr<BackpressureScheduler> Make(std::uint64_t high,
                                              std::uint64_t low) {
    return std::make_unique<BackpressureScheduler>(
        *metric_, hierarchy_, ledger_, core::FdsConfig{},
        BackpressureConfig{high, low});
  }

  /// One transaction homed on `home` touching one account on `dest`,
  /// registered with the ledger exactly like the engine would.
  txn::Transaction Touch(ShardId home, ShardId dest, Round round) {
    const AccountId account = map_.AccountsOf(dest).front();
    txn::Transaction txn = factory_.MakeTouch(home, round, {account});
    ledger_.RegisterInjection(txn);
    return txn;
  }

  void StepOneRound(BackpressureScheduler& scheduler) {
    scheduler.Step(round_);
    ++round_;
  }

  std::unique_ptr<net::ShardMetric> metric_;
  chain::AccountMap map_;
  cluster::Hierarchy hierarchy_;
  core::CommitLedger ledger_;
  txn::TxnFactory factory_;
  Round round_ = 0;
};

TEST_F(BackpressureUnitTest, HysteresisCrossesHighThenClearsAtLow) {
  // high = 3, low = 0: three queued work items at one destination mark it
  // hot; it must stay hot while anything remains and clear only once the
  // signal reaches zero.
  auto scheduler = Make(/*high=*/3, /*low=*/0);

  // Round 0: burst 4 transactions all destined for (and homed on) shard 0.
  for (int i = 0; i < 4; ++i) {
    scheduler->Inject(Touch(/*home=*/0, /*dest=*/0, round_));
  }
  EXPECT_FALSE(scheduler->IsHot(0));  // no traffic observed yet
  StepOneRound(*scheduler);

  // The burst's batches and subtransactions are now in flight toward
  // shard 0's leader: within a couple of rounds the signal crosses high
  // and the shard must latch hot.
  bool went_hot = false;
  for (int i = 0; i < 6 && !went_hot; ++i) {
    StepOneRound(*scheduler);
    went_hot = scheduler->IsHot(0);
  }
  EXPECT_TRUE(went_hot) << "signal never crossed the high watermark";
  EXPECT_GE(scheduler->hot_transitions(), 1u);

  // While hot, injections homed on shard 0 must park, and an injection
  // homed on a still-cold shard must pass through (which shards besides 0
  // heated up depends on where the hierarchy placed the coordinating
  // leader, so the cold shard is found, not hard-coded).
  scheduler->Inject(Touch(/*home=*/0, /*dest=*/0, round_));
  EXPECT_EQ(scheduler->SpilledTxns(), 1u);
  ShardId cold = kShards;
  for (ShardId shard = 1; shard < kShards; ++shard) {
    if (!scheduler->IsHot(shard)) {
      cold = shard;
      break;
    }
  }
  ASSERT_LT(cold, kShards) << "every shard went hot in a 4-txn burst";
  scheduler->Inject(Touch(/*home=*/cold, /*dest=*/cold, round_));
  EXPECT_EQ(scheduler->SpilledTxns(), 1u);

  // Hysteresis: the flag holds (and holds the spill) until the backlog
  // fully drains to the low watermark, then clears and re-admits; after
  // that the whole system must go idle.
  for (int i = 0; i < 2000 && !scheduler->Idle(); ++i) {
    StepOneRound(*scheduler);
  }
  EXPECT_TRUE(scheduler->Idle());
  EXPECT_EQ(scheduler->SpilledTxns(), 0u);
  EXPECT_EQ(scheduler->readmitted_total(), 1u);
  // Flags clear at the *next* BeginRound after the signal dies, so give
  // the gate two empty rounds before asserting everything went cold.
  StepOneRound(*scheduler);
  StepOneRound(*scheduler);
  EXPECT_FALSE(scheduler->IsHot(0));
  EXPECT_EQ(scheduler->hot_shard_count(), 0u);
}

TEST_F(BackpressureUnitTest, ConsecutiveRoundCrossingsCountTransitions) {
  // high == low == 2 collapses the hysteresis band to a point: the flag
  // follows the signal round by round, so a pulsed load produces repeated
  // cold->hot transitions (each pulse latches, drains, clears).
  auto scheduler = Make(/*high=*/2, /*low=*/2);

  for (int pulse = 0; pulse < 3; ++pulse) {
    for (int i = 0; i < 3; ++i) {
      scheduler->Inject(Touch(/*home=*/0, /*dest=*/0, round_));
    }
    for (int i = 0; i < 400 && !scheduler->Idle(); ++i) {
      StepOneRound(*scheduler);
    }
    ASSERT_TRUE(scheduler->Idle()) << "pulse " << pulse << " never drained";
    StepOneRound(*scheduler);  // flags clear at the next BeginRound
    EXPECT_FALSE(scheduler->IsHot(0));
  }
  EXPECT_GE(scheduler->hot_transitions(), 3u);
}

TEST(BackpressureConfigDeathTest, LowAboveHighDies) {
  const auto metric =
      net::MakeMetric(net::TopologyKind::kUniform, 4, nullptr);
  const chain::AccountMap map = chain::AccountMap::RoundRobin(4, 4);
  const cluster::Hierarchy hierarchy =
      cluster::Hierarchy::BuildLineShifted(*metric);
  core::CommitLedger ledger(map, 1'000'000);
  EXPECT_DEATH(BackpressureScheduler(*metric, hierarchy, ledger,
                                     core::FdsConfig{},
                                     BackpressureConfig{/*high=*/4,
                                                        /*low=*/5}),
               "low <= high");
  EXPECT_DEATH(BackpressureScheduler(*metric, hierarchy, ledger,
                                     core::FdsConfig{},
                                     BackpressureConfig{/*high=*/0,
                                                        /*low=*/0}),
               "park every transaction");
}

TEST(BackpressureSim, SpillQueueDrainsToEmptyAtSimulationEnd) {
  const core::SimConfig config = EngagedConfig();
  core::Simulation sim(config);
  const core::SimResult result = sim.Run();

  // The gate must actually have engaged for this test to mean anything.
  const auto& scheduler =
      dynamic_cast<const BackpressureScheduler&>(sim.scheduler());
  ASSERT_GT(scheduler.deferred_total(), 0u)
      << "watermarks never engaged — the edge case is untested";
  EXPECT_GT(result.spill_peak, 0u);

  // Everything parked re-entered and resolved: spill empty, identity
  // intact, chains verify, commits serializable.
  EXPECT_EQ(scheduler.SpilledTxns(), 0u);
  EXPECT_EQ(scheduler.readmitted_total(), scheduler.deferred_total());
  EXPECT_EQ(result.injected,
            result.committed + result.aborted + result.unresolved);
  test::ExpectDrainedRunInvariants(sim, result,
                                   /*same_round_atomicity=*/false);
}

TEST(BackpressureSim, ShedsLeaderQueuePeakVersusFds) {
  // The tentpole claim at test scale: same workload, same seed — the
  // admission gate must strictly cut the leader-queue peak and commit
  // exactly as much as plain fds once both drain.
  core::SimConfig config = EngagedConfig();
  const core::SimResult backpressure = RunWithWorkers(config, 1);
  config.scheduler = "fds";
  const core::SimResult fds = RunWithWorkers(config, 1);

  ASSERT_TRUE(backpressure.drained);
  ASSERT_TRUE(fds.drained);
  EXPECT_EQ(backpressure.committed, fds.committed);
  EXPECT_LT(backpressure.max_leader_queue, fds.max_leader_queue);
}

TEST(BackpressureSim, BitIdenticalAcrossWorkersWhileShedding) {
  // The matrix asserts this for the default (rarely engaged) watermarks;
  // here the gate is engaged hard and the schedule still must not depend
  // on the worker count.
  core::SimConfig config = EngagedConfig();
  const core::SimResult serial = RunWithWorkers(config, 1);
  ASSERT_GT(serial.spill_peak, 0u);

  // ExpectBitIdenticalResults covers every SimResult field, including
  // the spill_peak / max_leader_queue columns this scheduler populates.
  ExpectBitIdenticalResults(serial, RunWithWorkers(config, 4));
}

}  // namespace
}  // namespace stableshard
