// Goldens for the single-leader degeneration fix (sharded-leader BDS and
// the multi-root FDS hierarchy).
//
// "bds" honours SimConfig::bds_color_leaders and "fds" honours
// SimConfig::fds_top_roots; at the default 1 each is the paper's protocol,
// above 1 they report themselves as "bds_sharded" / "fds_multiroot". With
// non-trivial fan-outs the sharded BDS must still produce the single-leader
// outcomes (the color-class handoff changes message endpoints, never
// commit timing), both modes must honour the workers/pipeline determinism
// contract, and a drained run must satisfy every chain/serializability
// invariant.
#include <gtest/gtest.h>

#include <string>

#include "core/bds.h"
#include "core/engine.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::BdsScheduler;
using core::SimConfig;
using core::SimResult;
using core::Simulation;
using test::ExpectBitIdenticalResults;
using test::ExpectDrainedRunInvariants;
using test::SmallConfig;

SimResult RunWith(SimConfig config, std::uint32_t workers, bool pipeline) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
  Simulation sim(config);
  sim.PoolEveryRound();  // every round, below the per-round gate too
  return sim.Run();
}

TEST(LeaderSharding, ShardedCommitRoundsMatchLegacyBds) {
  // With L = 4 co-leaders the commit role is sharded but the round
  // timetable is untouched: the color class ships at phase offset 1 and
  // arrives at offset 2, exactly when the legacy leader would start that
  // color's sends, and deliveries are handled before phase actions. So
  // every outcome metric — commit counts, latencies, pending peaks —
  // must equal the legacy run; only message endpoints (and counts, via
  // the extra ColorClassMsg hop) may differ.
  SimConfig config = SmallConfig("bds");
  config.bds_color_leaders = 4;
  const SimResult legacy = RunWith(SmallConfig("bds"), 1, true);
  const SimResult sharded = RunWith(config, 1, true);
  EXPECT_EQ(legacy.injected, sharded.injected);
  EXPECT_EQ(legacy.committed, sharded.committed);
  EXPECT_EQ(legacy.aborted, sharded.aborted);
  EXPECT_EQ(legacy.unresolved, sharded.unresolved);
  EXPECT_EQ(legacy.rounds_executed, sharded.rounds_executed);
  EXPECT_EQ(legacy.drained, sharded.drained);
  EXPECT_EQ(legacy.max_pending, sharded.max_pending);
  EXPECT_DOUBLE_EQ(legacy.avg_pending_per_shard,
                   sharded.avg_pending_per_shard);
  EXPECT_DOUBLE_EQ(legacy.avg_latency, sharded.avg_latency);
  EXPECT_DOUBLE_EQ(legacy.max_latency, sharded.max_latency);
  EXPECT_DOUBLE_EQ(legacy.p50_latency, sharded.p50_latency);
  EXPECT_DOUBLE_EQ(legacy.p99_latency, sharded.p99_latency);
}

TEST(LeaderSharding, ShardedDrainsWithAllInvariants) {
  SimConfig config = SmallConfig("bds");
  config.bds_color_leaders = 4;
  Simulation sim(config);
  const SimResult result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_EQ(std::string(sim.scheduler().name()), "bds_sharded");
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/true);
}

TEST(LeaderSharding, MultirootDrainsWithAllInvariants) {
  SimConfig config = SmallConfig("fds");
  config.fds_top_roots = 3;
  Simulation sim(config);
  const SimResult result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  EXPECT_EQ(std::string(sim.scheduler().name()), "fds_multiroot");
  ASSERT_NE(sim.hierarchy(), nullptr);
  EXPECT_EQ(sim.hierarchy()->top_roots().size(), 3u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

TEST(LeaderSharding, MultirootCommitsWhatLegacyFdsCommits) {
  // The redirect across interchangeable roots changes which leader
  // coordinates a diameter-spanning transaction, never whether it
  // resolves: both modes drain the identical injected set with no
  // aborts, so the committed totals must agree.
  SimConfig config = SmallConfig("fds");
  config.fds_top_roots = 3;
  const SimResult legacy = RunWith(SmallConfig("fds"), 1, true);
  const SimResult multiroot = RunWith(config, 1, true);
  EXPECT_EQ(legacy.injected, multiroot.injected);
  EXPECT_EQ(legacy.committed, multiroot.committed);
  EXPECT_EQ(legacy.aborted, multiroot.aborted);
  EXPECT_TRUE(multiroot.drained);
}

TEST(LeaderSharding, ShardedBitIdenticalAcrossWorkersAndPipeline) {
  SimConfig config = SmallConfig("bds");
  config.bds_color_leaders = 4;
  const SimResult serial = RunWith(config, 1, true);
  ExpectBitIdenticalResults(serial, RunWith(config, 4, true));
  ExpectBitIdenticalResults(serial, RunWith(config, 4, false));
}

TEST(LeaderSharding, MultirootBitIdenticalAcrossWorkersAndPipeline) {
  for (const std::uint32_t roots : {3u, 4u}) {
    SCOPED_TRACE("roots = " + std::to_string(roots));
    SimConfig config = SmallConfig("fds");
    config.fds_top_roots = roots;
    const SimResult serial = RunWith(config, 1, true);
    ExpectBitIdenticalResults(serial, RunWith(config, 4, true));
    ExpectBitIdenticalResults(serial, RunWith(config, 4, false));
  }
}

TEST(LeaderSharding, CoLeaderMappingIsDeterministicAndPeriodic) {
  // The color-class -> co-leader mapping is pure arithmetic: period L in
  // the color, always in range, and consecutive colors never share a
  // co-leader when L > 1 (their offsets differ by 1..L-1 < s).
  const ShardId shards = 16;
  const std::uint32_t L = 4;
  for (ShardId leader = 0; leader < shards; ++leader) {
    for (Color color = 0; color < 12; ++color) {
      const ShardId co = BdsScheduler::CoLeaderFor(leader, color, L, shards);
      EXPECT_LT(co, shards);
      EXPECT_EQ(co, BdsScheduler::CoLeaderFor(leader, color + L, L, shards));
      EXPECT_NE(co,
                BdsScheduler::CoLeaderFor(leader, color + 1, L, shards));
    }
  }
  // L = 1 pins every class on the shard after the leader — the legacy
  // epoch pipeline's successor, but the code path never engages (the
  // scheduler takes the legacy branch at color_leaders = 1).
  EXPECT_EQ(BdsScheduler::CoLeaderFor(7, 0, 1, 16),
            BdsScheduler::CoLeaderFor(7, 5, 1, 16));
}

}  // namespace
}  // namespace stableshard
