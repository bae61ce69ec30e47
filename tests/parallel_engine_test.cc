// Shard-parallel round loop tests: worker_threads = N must be bit-identical
// to worker_threads = 1 for every scheduler (the decomposition contract of
// core/scheduler.h), the pipelined epilogue (the round epilogue drained in
// one destination partition per worker, overlapped with the next round's
// adversary generation) must be bit-identical to the one-partition
// EndRound, and parallel runs must satisfy the same drained-run invariants
// as serial ones.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "core/engine.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::SimResult;
using core::Simulation;
using test::ExpectBitIdenticalResults;
using test::ExpectDrainedRunInvariants;
using test::RunWithWorkers;
using test::SmallConfig;

/// Run with an explicit pipelined-epilogue switch (RunWithWorkers leaves
/// the default, which is pipelined).
SimResult RunPipelined(SimConfig config, std::uint32_t workers,
                       bool pipeline) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
  // Fan out every round: the test grids sit below the per-round gate,
  // and a silently serialized run would not exercise the pipeline at all.
  Simulation sim(config);
  sim.PoolEveryRound();
  return sim.Run();
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ParallelDeterminism, MatchesSerialExecution) {
  const auto& [scheduler, seed] = GetParam();
  SimConfig config = SmallConfig(scheduler);
  config.seed = seed;
  config.rounds = 800;
  config.drain_cap = 60000;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 4);
  ExpectBitIdenticalResults(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelDeterminism,
    ::testing::Combine(::testing::Values(std::string("bds"),
                                         std::string("fds"),
                                         std::string("direct")),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
           info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Pipelined-vs-serial bit-identity across the scheduler x strategy matrix:
// for every combination, workers = 1 (serial epilogue, no pool), workers =
// 4 with the pipelined epilogue and workers = 4 with it forced off must
// produce the same SimResult down to the last float bit.
class PipelinedMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PipelinedMatrix, PipelinedAndSerialEpiloguesAgree) {
  const auto& [scheduler, strategy] = GetParam();
  SimConfig config = SmallConfig(scheduler);
  config.strategy = strategy;
  config.rounds = 300;
  config.drain_cap = 20000;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult pipelined = RunPipelined(config, 4, /*pipeline=*/true);
  const SimResult unpipelined = RunPipelined(config, 4, /*pipeline=*/false);
  ExpectBitIdenticalResults(serial, pipelined);
  ExpectBitIdenticalResults(serial, unpipelined);
  EXPECT_GT(serial.injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerStrategy, PipelinedMatrix,
    ::testing::Combine(
        ::testing::Values(std::string("bds"), std::string("fds"),
                          std::string("direct")),
        ::testing::Values(std::string("uniform_random"),
                          std::string("hotspot"),
                          std::string("hot_destination"),
                          std::string("pairwise_conflict"))),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST(ParallelEngine, PipelinedBurstAndDrainIdentical) {
  // A loaded burst followed by a long drain exercises both epilogue
  // regimes: heavy flush rounds (overlapped generation still running) and
  // drain rounds (no generation to overlap at all). Invariants must hold
  // and the pipeline must not perturb a bit.
  SimConfig config = SmallConfig("fds");
  config.rho = 0.02;
  config.burstiness = 400;
  config.rounds = 120;
  config.drain_cap = 60000;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult pipelined = RunPipelined(config, 8, /*pipeline=*/true);
  ExpectBitIdenticalResults(serial, pipelined);

  config.worker_threads = 8;
  Simulation sim(config);
  sim.PoolEveryRound();
  const SimResult result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

TEST(ParallelEngine, PipelinedHandoffHammer) {
  // TSan target: maximize contention on the double-buffered handoff — an
  // oversubscribed pool (8 workers, 1..few cores, 8 shards) so flush
  // partitions, the StepShard fan-out of the next round and the overlapped
  // generation interleave as wildly as the OS allows, across many rounds
  // and a hot workload that keeps every lane and journal busy.
  for (const std::uint64_t seed : {11ull, 12ull}) {
    SimConfig config = SmallConfig("fds");
    config.shards = 8;
    config.accounts = 8;
    config.rho = 0.4;
    config.burstiness = 200;
    config.rounds = 400;
    config.drain_cap = 20000;
    config.seed = seed;
    const SimResult serial = RunWithWorkers(config, 1);
    const SimResult hammered = RunPipelined(config, 8, /*pipeline=*/true);
    ExpectBitIdenticalResults(serial, hammered);
  }
}

TEST(ParallelEngine, DrainedInvariantsHoldUnderThreads) {
  for (const char* scheduler : {"bds", "fds"}) {
    SimConfig config = SmallConfig(scheduler);
    config.worker_threads = 4;
    config.rounds = 800;
    Simulation sim(config);
    sim.PoolEveryRound();
    const auto result = sim.Run();
    EXPECT_GT(result.injected, 0u);
    ExpectDrainedRunInvariants(sim, result,
                               /*same_round_atomicity=*/scheduler ==
                                   std::string("bds"));
  }
}

TEST(ParallelEngine, PinnedModeIdenticalUnderThreads) {
  // The pinned commit mode exercises the retract handshake; it must be
  // thread-count-invariant too.
  SimConfig config = SmallConfig("fds");
  config.fds_pipelined = false;
  config.rounds = 600;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 3);
  ExpectBitIdenticalResults(serial, parallel);
}

TEST(ParallelEngine, LargeScaleLineDeterministicAt1024Shards) {
  // The ROADMAP s = 1024 acceptance: a 1024-shard line simulation must be
  // bit-identical between worker_threads = 1 and 8, and the lazy network
  // ring must have allocated nothing at construction (the former dense
  // table held (Diameter + 2) * s ~ 1M buckets here). Kept cheap for TSan:
  // few rounds, a radius-bounded workload that drains quickly.
  SimConfig config;
  config.scheduler = "direct";
  config.topology = net::TopologyKind::kLine;
  config.shards = 1024;
  config.accounts = 1024;
  config.k = 4;
  config.strategy = "local";
  config.local_radius = 8;
  config.rho = 0.05;
  config.burstiness = 200;
  config.rounds = 40;
  config.drain_cap = 20000;
  config.seed = 5;

  {
    Simulation probe(config);
    const net::RingMemory idle = probe.scheduler().NetworkMemory();
    EXPECT_EQ(idle.allocated_buckets, 0u);
    EXPECT_EQ(idle.dense_bucket_equivalent, (1023u + 2u) * 1024u);
  }

  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 8);
  EXPECT_GT(serial.injected, 0u);
  EXPECT_TRUE(serial.drained);
  ExpectBitIdenticalResults(serial, parallel);
}

TEST(ParallelEngine, RoundGateMixesSerialAndPooledRounds) {
  // Burst then trickle: the burst's ship, coloring and commit rounds carry
  // enough work to fan out, the trickle rounds run serially. The gate must
  // pick both kinds within one run, pick them identically on a rerun (it
  // reads only deterministic work counts), and never move a result bit.
  SimConfig config = SmallConfig("fds");
  config.shards = 64;
  config.accounts = 64;
  config.strategy = "local";
  config.local_radius = 4;
  config.rho = 0.02;
  config.burstiness = 3000;
  config.rounds = 400;
  config.drain_cap = 60000;

  const auto run = [&config](std::uint32_t workers, bool pipeline) {
    SimConfig copy = config;
    copy.worker_threads = workers;
    copy.pipeline = pipeline;
    Simulation sim(copy);
    const SimResult result = sim.Run();
    return std::make_pair(result, sim.pooled_rounds());
  };

  const auto [serial, serial_pooled] = run(1, true);
  EXPECT_EQ(serial_pooled, 0u);  // no pool, nothing to gate
  EXPECT_GT(serial.injected, 0u);
  for (const std::uint32_t workers : {2u, 4u}) {
    for (const bool pipeline : {false, true}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " pipeline=" + std::to_string(pipeline));
      const auto [result, pooled] = run(workers, pipeline);
      ExpectBitIdenticalResults(serial, result);
      EXPECT_GT(pooled, 0u);
      EXPECT_LT(pooled, result.rounds_executed);
      EXPECT_EQ(run(workers, pipeline).second, pooled);
    }
  }
}

TEST(ParallelEngine, OversubscribedPoolStillIdentical) {
  // More workers than shards (and than cores): scheduling order varies
  // wildly, results must not.
  SimConfig config = SmallConfig("bds");
  config.shards = 4;
  config.accounts = 4;
  config.rounds = 500;
  const SimResult serial = RunWithWorkers(config, 1);
  const SimResult parallel = RunWithWorkers(config, 8);
  ExpectBitIdenticalResults(serial, parallel);
}

}  // namespace
}  // namespace stableshard
