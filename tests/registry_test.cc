// Registry tests: the engine constructs schedulers AND workload strategies
// purely by registered name, unknown names die with the sorted listing,
// duplicate registrations die, and externally registered schedulers /
// strategies plug into Simulation without any engine edits.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "adversary/strategy_registry.h"
#include "core/direct.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"
#include "sim_test_util.h"

namespace stableshard {
namespace {

using adversary::StrategyDeps;
using adversary::StrategyRegistry;
using core::Scheduler;
using core::SchedulerDeps;
using core::SchedulerRegistry;
using core::SimConfig;
using core::Simulation;
using test::ExpectDrainedRunInvariants;
using test::SmallConfig;

TEST(Registry, BuiltinSchedulersAreRegistered) {
  auto& registry = SchedulerRegistry::Global();
  EXPECT_TRUE(registry.Contains("bds"));
  EXPECT_TRUE(registry.Contains("fds"));
  EXPECT_TRUE(registry.Contains("direct"));
  EXPECT_FALSE(registry.Contains("nope"));
  // One entry per algorithm: the leader-sharding knobs are honoured by
  // "bds"/"fds" themselves, not by registered twins.
  EXPECT_FALSE(registry.Contains("bds_sharded"));
  EXPECT_FALSE(registry.Contains("fds_multiroot"));
  const auto names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 3u);
}

TEST(Registry, EngineBuildsEachBuiltinByName) {
  for (const char* name : {"bds", "fds", "direct"}) {
    SimConfig config = SmallConfig(name);
    config.rounds = 50;
    config.drain_cap = 0;
    Simulation sim(config);
    EXPECT_STREQ(sim.scheduler().name(), name);
    sim.Run();
  }
}

TEST(Registry, HierarchyBuiltLazily) {
  // Only schedulers that ask for the hierarchy pay for one.
  SimConfig bds = SmallConfig("bds");
  bds.rounds = 10;
  bds.drain_cap = 0;
  Simulation bds_sim(bds);
  EXPECT_EQ(bds_sim.hierarchy(), nullptr);

  SimConfig fds = SmallConfig("fds");
  fds.rounds = 10;
  fds.drain_cap = 0;
  Simulation fds_sim(fds);
  EXPECT_NE(fds_sim.hierarchy(), nullptr);
}

TEST(Registry, ExternalSchedulerNeedsNoEngineEdits) {
  // Register a scheduler the engine has never heard of and run a full
  // simulation with it — the acceptance test for the registry layer.
  static bool registered = false;
  if (!registered) {
    registered = true;
    SchedulerRegistry::Global().Register(
        "test_direct_alias",
        [](const SimConfig& config, SchedulerDeps& deps) {
          (void)config;
          return std::unique_ptr<Scheduler>(
              std::make_unique<core::DirectScheduler>(deps.metric,
                                                      deps.ledger));
        });
  }
  SimConfig config = SmallConfig("direct");
  config.scheduler = "test_direct_alias";
  config.rounds = 400;
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

TEST(StrategyRegistryTest, BuiltinStrategiesAreRegistered) {
  auto& registry = StrategyRegistry::Global();
  for (const char* name :
       {"uniform_random", "hotspot", "pairwise_conflict", "local",
        "single_shard", "hot_destination", "diameter_span"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_FALSE(registry.Contains("nope"));
  const auto names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 7u);
}

TEST(StrategyRegistryTest, EngineBuildsEachBuiltinByName) {
  // Fixed builtin list, not Names(): other tests register aliases in this
  // process whose name() differs from their registration key.
  for (const std::string name :
       {"uniform_random", "hotspot", "pairwise_conflict", "local",
        "single_shard", "hot_destination", "diameter_span"}) {
    SimConfig config = SmallConfig("direct");
    config.strategy = name;
    config.rounds = 50;
    config.drain_cap = 0;
    Simulation sim(config);
    EXPECT_EQ(sim.adversary().strategy().name(), name);
    const auto result = sim.Run();
    EXPECT_GT(result.injected, 0u);
  }
}

TEST(StrategyRegistryTest, ExternalStrategyNeedsNoEngineEdits) {
  // Register a workload the engine has never heard of and run a full
  // simulation with it — the acceptance test for the registry layer.
  static bool registered = false;
  if (!registered) {
    registered = true;
    StrategyRegistry::Global().Register(
        "test_single_shard_alias",
        [](const core::SimConfig& config, StrategyDeps& deps) {
          (void)config;
          return std::unique_ptr<adversary::Strategy>(
              std::make_unique<adversary::SingleShardStrategy>(deps.accounts));
        });
  }
  SimConfig config = SmallConfig("direct");
  config.strategy = "test_single_shard_alias";
  config.rounds = 400;
  Simulation sim(config);
  const auto result = sim.Run();
  EXPECT_GT(result.injected, 0u);
  ExpectDrainedRunInvariants(sim, result, /*same_round_atomicity=*/false);
}

using RegistryDeathTest = ::testing::Test;

TEST(RegistryDeathTest, UnknownSchedulerDies) {
  SimConfig config = SmallConfig("bds");
  config.scheduler = "no_such_scheduler";
  // The abort message (core::ConfigError's line) carries the sorted list
  // of known names.
  EXPECT_DEATH(Simulation sim(config),
               "unknown --scheduler=no_such_scheduler; "
               "registered:.*bds.*direct.*fds");
}

TEST(RegistryDeathTest, UnknownStrategyDies) {
  SimConfig config = SmallConfig("bds");
  config.strategy = "no_such_strategy";
  // Sorted listing: diameter_span < hotspot < uniform_random.
  EXPECT_DEATH(Simulation sim(config),
               "unknown --strategy=no_such_strategy; "
               "registered:.*diameter_span.*hotspot.*uniform_random");
}

TEST(RegistryDeathTest, DuplicateRegistrationDies) {
  EXPECT_DEATH(SchedulerRegistry::Global().Register(
                   "bds",
                   [](const SimConfig&, SchedulerDeps&) {
                     return std::unique_ptr<Scheduler>();
                   }),
               "twice");
}

TEST(RegistryDeathTest, DuplicateStrategyRegistrationDies) {
  EXPECT_DEATH(StrategyRegistry::Global().Register(
                   "uniform_random",
                   [](const core::SimConfig&, StrategyDeps&) {
                     return std::unique_ptr<adversary::Strategy>();
                   }),
               "twice");
}

}  // namespace
}  // namespace stableshard
