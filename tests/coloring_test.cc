// Property tests for the conflict-graph colorings: every algorithm must
// produce a proper coloring with at most MaxDegree()+1 colors on random
// workloads of varying density — the Delta+1 guarantee is load-bearing for
// Lemma 1's epoch length bound.
#include <gtest/gtest.h>

#include <tuple>

#include "chain/account_map.h"
#include "common/arena.h"
#include "common/rng.h"
#include "txn/coloring.h"
#include "txn/conflict_graph.h"
#include "txn/txn_factory.h"

namespace stableshard::txn {
namespace {

struct ColoringCase {
  ColoringAlgorithm algorithm;
  ShardId shards;
  AccountId accounts;
  std::uint32_t k;
  std::size_t txn_count;
  std::uint64_t seed;
};

class ColoringProperty : public ::testing::TestWithParam<ColoringCase> {};

std::vector<Transaction> RandomWorkload(const chain::AccountMap& map,
                                        std::uint32_t k, std::size_t count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  txns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t span = 1 + rng.NextBounded(k);
    const auto picks = rng.SampleWithoutReplacement(map.account_count(), span);
    std::vector<AccountId> accounts(picks.begin(), picks.end());
    txns.push_back(factory.MakeTouch(
        static_cast<ShardId>(rng.NextBounded(map.shard_count())), 0,
        accounts));
  }
  return txns;
}

TEST_P(ColoringProperty, ProperAndWithinDeltaPlusOne) {
  const ColoringCase param = GetParam();
  const auto map =
      chain::AccountMap::RoundRobin(param.shards, param.accounts);
  const auto txns =
      RandomWorkload(map, param.k, param.txn_count, param.seed);
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);

  for (const auto granularity :
       {ConflictGranularity::kAccount, ConflictGranularity::kShard}) {
    const ConflictGraph graph(view, granularity);
    const ColoringResult result = ColorGraph(graph, param.algorithm);
    EXPECT_TRUE(IsProperColoring(graph, result.color));
    EXPECT_LE(result.num_colors, graph.MaxDegree() + 1);
    EXPECT_EQ(result.color.size(), graph.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColoringProperty,
    ::testing::Values(
        ColoringCase{ColoringAlgorithm::kGreedy, 8, 8, 3, 50, 1},
        ColoringCase{ColoringAlgorithm::kGreedy, 16, 64, 4, 200, 2},
        ColoringCase{ColoringAlgorithm::kGreedy, 64, 64, 8, 500, 3},
        ColoringCase{ColoringAlgorithm::kWelshPowell, 8, 8, 3, 50, 4},
        ColoringCase{ColoringAlgorithm::kWelshPowell, 16, 64, 4, 200, 5},
        ColoringCase{ColoringAlgorithm::kWelshPowell, 64, 64, 8, 500, 6},
        ColoringCase{ColoringAlgorithm::kDsatur, 8, 8, 3, 50, 7},
        ColoringCase{ColoringAlgorithm::kDsatur, 16, 64, 4, 200, 8},
        ColoringCase{ColoringAlgorithm::kDsatur, 64, 64, 8, 300, 9}),
    [](const ::testing::TestParamInfo<ColoringCase>& info) {
      const auto& p = info.param;
      std::string name = std::string(ToString(p.algorithm)) + "_s" +
                         std::to_string(p.shards) + "_n" +
                         std::to_string(p.txn_count) + "_seed" +
                         std::to_string(p.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Coloring, CliqueNeedsNColors) {
  // k+1 transactions all touching account 0: a clique.
  const auto map = chain::AccountMap::RoundRobin(4, 4);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  for (int i = 0; i < 5; ++i) {
    txns.push_back(factory.MakeTouch(0, 0, {0}));
  }
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view);
  for (const auto algorithm :
       {ColoringAlgorithm::kGreedy, ColoringAlgorithm::kWelshPowell,
        ColoringAlgorithm::kDsatur}) {
    const auto result = ColorGraph(graph, algorithm);
    EXPECT_EQ(result.num_colors, 5u) << ToString(algorithm);
  }
}

TEST(Coloring, IndependentSetNeedsOneColor) {
  const auto map = chain::AccountMap::RoundRobin(8, 8);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  for (AccountId a = 0; a < 8; ++a) {
    txns.push_back(factory.MakeTouch(0, 0, {a}));
  }
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view);
  const auto result = ColorGraph(graph, ColoringAlgorithm::kGreedy);
  EXPECT_EQ(result.num_colors, 1u);
}

TEST(Coloring, EmptyGraphZeroColors) {
  const ConflictGraph graph({});
  const auto result = ColorGraph(graph, ColoringAlgorithm::kGreedy);
  EXPECT_EQ(result.num_colors, 0u);
  EXPECT_TRUE(IsProperColoring(graph, result.color));
}

TEST(Coloring, DsaturNeverWorseOnBipartite) {
  // Path graphs are 2-colorable; DSATUR finds 2 colors.
  const auto map = chain::AccountMap::RoundRobin(16, 16);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  // Chain: txn i shares account i with txn i+1.
  for (AccountId a = 0; a + 1 < 10; ++a) {
    txns.push_back(factory.MakeTouch(0, 0, {a, a + 1}));
  }
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view);
  const auto result = ColorGraph(graph, ColoringAlgorithm::kDsatur);
  EXPECT_EQ(result.num_colors, 2u);
}

TEST(ShardCliqueColoring, MatchesGraphGuaranteeOnRandomBatches) {
  // The graph-free shard-clique coloring must be proper and within the
  // same Delta+1 guarantee as the explicit-graph greedy coloring.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const auto map = chain::AccountMap::RoundRobin(64, 64);
    const auto txns = RandomWorkload(map, 8, 400, seed);
    std::vector<const Transaction*> view;
    for (const auto& txn : txns) view.push_back(&txn);
    const ConflictGraph graph(view, ConflictGranularity::kShard);
    for (const auto algorithm : {ColoringAlgorithm::kGreedy,
                                 ColoringAlgorithm::kWelshPowell}) {
      const auto result = ColorShardCliques(view, algorithm);
      EXPECT_TRUE(IsProperShardColoring(view, result.color));
      EXPECT_TRUE(IsProperColoring(graph, result.color));
      EXPECT_LE(result.num_colors, graph.MaxDegree() + 1);
    }
  }
}

TEST(ShardCliqueColoring, GreedyIdenticalToGraphGreedy) {
  // Same vertex order, same conflict relation => identical assignment.
  const auto map = chain::AccountMap::RoundRobin(16, 16);
  const auto txns = RandomWorkload(map, 4, 120, 9);
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view, ConflictGranularity::kShard);
  const auto via_graph = ColorGraph(graph, ColoringAlgorithm::kGreedy);
  const auto via_cliques = ColorShardCliques(view, ColoringAlgorithm::kGreedy);
  EXPECT_EQ(via_graph.color, via_cliques.color);
  EXPECT_EQ(via_graph.num_colors, via_cliques.num_colors);
}

TEST(ShardCliqueColoring, LargeBurstStaysFast) {
  // 20000 transactions (a b=3000-style burst would be ~24000): the clique
  // coloring must handle it without materializing ~10^8 edges.
  const auto map = chain::AccountMap::RoundRobin(64, 64);
  const auto txns = RandomWorkload(map, 8, 20000, 11);
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const auto result = ColorShardCliques(view, ColoringAlgorithm::kGreedy);
  EXPECT_TRUE(IsProperShardColoring(view, result.color));
  EXPECT_GT(result.num_colors, 0u);
}

TEST(ShardCliqueColoring, EmptyInput) {
  const auto result = ColorShardCliques({}, ColoringAlgorithm::kGreedy);
  EXPECT_EQ(result.num_colors, 0u);
  EXPECT_TRUE(result.color.empty());
}

TEST(Coloring, SpilloverPastSixtyFourColors) {
  // 130 transactions all touching one account form K_130 and need exactly
  // 130 colors — which walks the color bitsets past word 0 (64 colors) and
  // through multiple spill words, covering the DSATUR saturation sets, the
  // shard-clique spill matrix, and IsProperShardColoring's tracking sets.
  const auto map = chain::AccountMap::RoundRobin(4, 4);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  for (int i = 0; i < 130; ++i) txns.push_back(factory.MakeTouch(0, 0, {0}));
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view, ConflictGranularity::kShard);
  for (const auto algorithm :
       {ColoringAlgorithm::kGreedy, ColoringAlgorithm::kWelshPowell,
        ColoringAlgorithm::kDsatur}) {
    const auto result = ColorGraph(graph, algorithm);
    EXPECT_EQ(result.num_colors, 130u) << ToString(algorithm);
    EXPECT_TRUE(IsProperColoring(graph, result.color));
  }
  for (const auto algorithm :
       {ColoringAlgorithm::kGreedy, ColoringAlgorithm::kWelshPowell}) {
    const auto result = ColorShardCliques(view, algorithm);
    EXPECT_EQ(result.num_colors, 130u) << ToString(algorithm);
    EXPECT_TRUE(IsProperShardColoring(view, result.color));
  }
}

TEST(Coloring, SpilloverProperOnMixedWorkload) {
  // A >64-color clique embedded in a random batch: the proper-coloring
  // guarantee must hold when some vertices' neighbor colors straddle the
  // word-0/spill boundary while others stay below it.
  const auto map = chain::AccountMap::RoundRobin(16, 16);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  for (int i = 0; i < 80; ++i) txns.push_back(factory.MakeTouch(0, 0, {0}));
  Rng rng(31);  // one factory for clique + tail: distinct txn ids
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t span = 1 + rng.NextBounded(4);
    const auto picks = rng.SampleWithoutReplacement(map.account_count(), span);
    txns.push_back(factory.MakeTouch(
        static_cast<ShardId>(rng.NextBounded(map.shard_count())), 0,
        std::vector<AccountId>(picks.begin(), picks.end())));
  }
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view, ConflictGranularity::kShard);
  for (const auto algorithm :
       {ColoringAlgorithm::kGreedy, ColoringAlgorithm::kWelshPowell,
        ColoringAlgorithm::kDsatur}) {
    const auto result = ColorGraph(graph, algorithm);
    EXPECT_GE(result.num_colors, 80u) << ToString(algorithm);
    EXPECT_TRUE(IsProperColoring(graph, result.color));
  }
  const auto cliques = ColorShardCliques(view, ColoringAlgorithm::kGreedy);
  EXPECT_GE(cliques.num_colors, 80u);
  EXPECT_TRUE(IsProperShardColoring(view, cliques.color));
  EXPECT_TRUE(IsProperColoring(graph, cliques.color));
}

TEST(ShardCliqueColoringDeath, RejectsDsatur) {
  // DSATUR needs the explicit graph; the graph-free coloring refuses it
  // instead of running another ordering under its name.
  EXPECT_DEATH(ColorShardCliques({}, ColoringAlgorithm::kDsatur),
               "SSHARD_CHECK");
}

TEST(ShardCliqueColoring, ArenaOverloadMatchesAndRecyclesScratch) {
  // The arena-backed overload must produce the identical assignment as the
  // self-allocating one, and repeated rounds against a Reset() arena must
  // settle into a single reused chunk (the steady state the schedulers
  // rely on for zero per-round allocator traffic).
  common::Arena arena;
  const auto map = chain::AccountMap::RoundRobin(32, 32);
  for (const std::uint64_t seed : {41ull, 42ull, 43ull, 44ull}) {
    const auto txns = RandomWorkload(map, 6, 300, seed);
    std::vector<const Transaction*> view;
    for (const auto& txn : txns) view.push_back(&txn);
    for (const auto algorithm : {ColoringAlgorithm::kGreedy,
                                 ColoringAlgorithm::kWelshPowell}) {
      arena.Reset();
      const auto with_arena = ColorShardCliques(view, algorithm, arena);
      const auto standalone = ColorShardCliques(view, algorithm);
      EXPECT_EQ(with_arena.color, standalone.color) << ToString(algorithm);
      EXPECT_EQ(with_arena.num_colors, standalone.num_colors);
      EXPECT_GT(arena.memory().used_bytes, 0u);
    }
  }
  EXPECT_EQ(arena.memory().chunks, 1u);
}

TEST(Coloring, ImproperColoringDetected) {
  const auto map = chain::AccountMap::RoundRobin(4, 4);
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0});
  const auto t1 = factory.MakeTouch(0, 0, {0});
  const ConflictGraph graph({&t0, &t1});
  EXPECT_FALSE(IsProperColoring(graph, {0, 0}));
  EXPECT_TRUE(IsProperColoring(graph, {0, 1}));
  EXPECT_FALSE(IsProperColoring(graph, {0}));  // wrong size
}

}  // namespace
}  // namespace stableshard::txn
