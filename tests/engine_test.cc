// Engine-level tests: determinism, seed sensitivity, the threaded sweep
// runner, time-series recording, and commit-ledger wiring.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using core::RunSweep;
using core::SimConfig;
using core::Simulation;
using test::RunWithWorkers;
using test::SmallConfig;

TEST(Engine, DeterministicForSameSeed) {
  const SimConfig config = SmallConfig("bds");
  Simulation a(config), b(config);
  const auto ra = a.Run();
  const auto rb = b.Run();
  EXPECT_EQ(ra.injected, rb.injected);
  EXPECT_EQ(ra.committed, rb.committed);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_DOUBLE_EQ(ra.avg_latency, rb.avg_latency);
  EXPECT_DOUBLE_EQ(ra.avg_pending_per_shard, rb.avg_pending_per_shard);
}

TEST(Engine, DifferentSeedsDiffer) {
  SimConfig config = SmallConfig("bds");
  Simulation a(config);
  config.seed = 999;
  Simulation b(config);
  const auto ra = a.Run();
  const auto rb = b.Run();
  // Different random workloads: at least one aggregate differs.
  EXPECT_TRUE(ra.injected != rb.injected || ra.messages != rb.messages ||
              ra.avg_latency != rb.avg_latency);
}

TEST(Engine, SweepMatchesSerialRuns) {
  std::vector<SimConfig> configs;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SimConfig config = SmallConfig("bds");
    config.rounds = 400;
    config.seed = seed;
    configs.push_back(config);
  }
  const auto sweep = RunSweep(configs, /*threads=*/4);
  ASSERT_EQ(sweep.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto expected = RunWithWorkers(configs[i], 1);
    EXPECT_EQ(sweep[i].result.injected, expected.injected) << "config " << i;
    EXPECT_EQ(sweep[i].result.messages, expected.messages) << "config " << i;
    EXPECT_DOUBLE_EQ(sweep[i].result.avg_latency, expected.avg_latency);
  }
}

TEST(Engine, SweepWithInnerParallelConfigsMatchesSerialRuns) {
  // Single-level parallelism policy: configs with worker_threads > 1 make
  // RunSweep run them sequentially (no nested pools), and results must
  // still equal fully serial runs of the same configs. Every inner round
  // fans out: s = 16 never reaches the per-round gate.
  std::vector<core::SimConfig> configs;
  for (std::uint64_t seed : {11ull, 12ull}) {
    SimConfig config = SmallConfig("fds");
    config.rounds = 300;
    config.drain_cap = 20000;
    config.worker_threads = 4;
    config.seed = seed;
    configs.push_back(config);
  }
  const auto sweep =
      RunSweep(configs, /*threads=*/4, /*pool_every_round=*/true);
  ASSERT_EQ(sweep.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(sweep[i].pooled_rounds, sweep[i].result.rounds_executed)
        << "config " << i;
    const auto expected = RunWithWorkers(configs[i], 1);
    EXPECT_EQ(sweep[i].result.injected, expected.injected) << "config " << i;
    EXPECT_EQ(sweep[i].result.committed, expected.committed) << "config " << i;
    EXPECT_EQ(sweep[i].result.messages, expected.messages) << "config " << i;
    EXPECT_EQ(sweep[i].result.max_pending, expected.max_pending);
    EXPECT_DOUBLE_EQ(sweep[i].result.avg_latency, expected.avg_latency);
    EXPECT_DOUBLE_EQ(sweep[i].result.avg_pending_per_shard,
                     expected.avg_pending_per_shard);
  }
}

TEST(Engine, SmallGridThresholdFallsBackToSerial) {
  // s = 16 with 4 workers is 4 shards per worker, below a threshold of 8,
  // so the config must silently serialize — visible through
  // effective_workers() — and produce exactly the serial results. The
  // default threshold 1 turns the pool back on (and PoolEveryRound fans
  // out every round past the per-round gate); results stay bit-identical
  // either way.
  SimConfig config = SmallConfig("fds");
  config.rounds = 200;
  config.drain_cap = 20000;
  config.worker_threads = 4;
  config.min_shards_per_worker = 8;

  Simulation fallback(config);  // below 8 shards per worker: pool skipped
  EXPECT_EQ(fallback.effective_workers(), 1u);
  fallback.PoolEveryRound();  // no pool, so nothing to fan out
  const auto fallback_result = fallback.Run();
  EXPECT_EQ(fallback.pooled_rounds(), 0u);

  config.min_shards_per_worker = SimConfig{}.min_shards_per_worker;
  EXPECT_EQ(config.min_shards_per_worker, 1u);
  Simulation pooled(config);
  EXPECT_EQ(pooled.effective_workers(), 4u);
  pooled.PoolEveryRound();
  const auto pooled_result = pooled.Run();
  EXPECT_EQ(pooled.pooled_rounds(), pooled_result.rounds_executed);

  config.worker_threads = 1;
  Simulation serial(config);
  EXPECT_EQ(serial.effective_workers(), 1u);
  const auto serial_result = serial.Run();

  test::ExpectBitIdenticalResults(fallback_result, serial_result);
  test::ExpectBitIdenticalResults(pooled_result, serial_result);
}

// The bit-identity contract compares doubles by bits and names the first
// differing field; the protocol subset ignores the durability counters.
TEST(SimResultComparison, NamesTheFirstFieldThatDiffersByBits) {
  core::SimResult a;
  a.avg_latency = 0.3;
  a.committed = 7;
  core::SimResult b = a;
  EXPECT_EQ(core::FirstDifferingField(a, b), "");
  b.avg_latency = std::nextafter(a.avg_latency, 1.0);  // one ULP off
  b.committed = 8;
  EXPECT_EQ(core::FirstDifferingField(a, b), "avg_latency");
  b.avg_latency = a.avg_latency;
  EXPECT_EQ(core::FirstDifferingProtocolField(a, b), "committed");
  b = a;
  b.max_latency = -0.0;  // equal to 0.0 as a value, not as bits
  EXPECT_EQ(core::FirstDifferingField(a, b), "max_latency");
  b = a;
  b.wal_bytes = 1;
  EXPECT_EQ(core::FirstDifferingProtocolField(a, b), "");
  EXPECT_EQ(core::FirstDifferingField(a, b), "wal_bytes");
}

TEST(Engine, SeriesRecording) {
  SimConfig config = SmallConfig("bds");
  config.rounds = 500;
  config.drain_cap = 0;
  Simulation sim(config);
  sim.EnableSeries(/*window=*/50);
  sim.Run();
  ASSERT_NE(sim.pending_series(), nullptr);
  EXPECT_EQ(sim.pending_series()->points().size(), 500u / 50);
}

TEST(Engine, DrainRoundsAreRecorded) {
  // The pending series (and the per-round aggregates) must cover drain
  // rounds: rounds_executed counts them, so with window = 1 the series has
  // exactly one point per executed round.
  SimConfig config = SmallConfig("bds");
  config.rounds = 200;
  config.drain_cap = 60000;
  Simulation sim(config);
  sim.EnableSeries(/*window=*/1);
  const auto result = sim.Run();
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.rounds_executed, config.rounds) << "no drain rounds ran";
  ASSERT_NE(sim.pending_series(), nullptr);
  EXPECT_EQ(sim.pending_series()->points().size(), result.rounds_executed);
  // Fully drained: the final recorded sample is zero pending.
  EXPECT_DOUBLE_EQ(sim.pending_series()->points().back().value, 0.0);
}

TEST(Engine, MessageAccountingNonTrivial) {
  SimConfig config = SmallConfig("bds");
  Simulation sim(config);
  const auto result = sim.Run();
  // Every transaction needs at least 4 protocol messages (subtxn, vote,
  // confirm, plus batch/coloring traffic).
  EXPECT_GT(result.messages, 4 * result.injected);
  EXPECT_GT(result.payload_units, 0u);
}

TEST(Engine, DescribeMentionsKeyParameters) {
  SimConfig config = SmallConfig("fds");
  const auto description = config.Describe();
  EXPECT_NE(description.find("fds"), std::string::npos);
  EXPECT_NE(description.find("s=16"), std::string::npos);
  EXPECT_NE(description.find("line"), std::string::npos);
}

TEST(EngineDeath, RunTwiceAborts) {
  SimConfig config = SmallConfig("bds");
  config.rounds = 10;
  config.drain_cap = 0;
  Simulation sim(config);
  sim.Run();
  EXPECT_DEATH(sim.Run(), "SSHARD_CHECK");
}

TEST(EngineDeath, InvalidRhoRejected) {
  SimConfig config = SmallConfig("bds");
  config.rho = 0.0;
  EXPECT_DEATH(Simulation sim(config), "SSHARD_CHECK");
  config.rho = 1.5;
  EXPECT_DEATH(Simulation sim2(config), "SSHARD_CHECK");
}

}  // namespace
}  // namespace stableshard
