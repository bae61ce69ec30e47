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
  test::ExpectBitIdenticalResults(a.Run(), b.Run());
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
    SCOPED_TRACE("config " + std::to_string(i));
    test::ExpectBitIdenticalResults(sweep[i].result,
                                    RunWithWorkers(configs[i], 1));
  }
}

TEST(Engine, PoolEveryRoundFansOutASmallGrid) {
  // s = 16 sits below the per-round gate, so only PoolEveryRound fans its
  // rounds out on the 4-worker pool; results stay bit-identical to the
  // serial run.
  SimConfig config = SmallConfig("fds");
  config.rounds = 200;
  config.drain_cap = 20000;
  config.worker_threads = 4;
  Simulation pooled(config);
  pooled.PoolEveryRound();
  const auto pooled_result = pooled.Run();
  EXPECT_EQ(pooled.pooled_rounds(), pooled_result.rounds_executed);

  config.worker_threads = 1;
  Simulation serial(config);
  const auto serial_result = serial.Run();
  EXPECT_EQ(serial.pooled_rounds(), 0u);

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

// The constructor runs the same check the CLIs exit 2 on and prints its
// line before aborting.
TEST(EngineDeath, UnusableConfigPrintsTheConfigErrorLine) {
  SimConfig config = SmallConfig("bds");
  config.shards = 0;
  EXPECT_DEATH(Simulation sim(config),
               "invalid shards: need --shards >= 1 \\(got 0\\)");
}

}  // namespace
}  // namespace stableshard
