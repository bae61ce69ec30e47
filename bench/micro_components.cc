// Hot-path micro-benchmark regression harness (BENCH_micro.json).
//
// One tracked comparison, the engine's coloring scratch against the exact
// pre-arena ("legacy") implementation it replaced, which lives in this
// translation unit so the comparison survives the rewrite:
//
//   arena_scratch      ColorShardCliques' bump-allocated step scratch
//                      (persistent arena, Reset per epoch — the
//                      scheduler steady state) vs the heap-allocating
//                      unordered_map + vector<vector<bool>> original.
//
// The comparison also asserts both sides produce the identical color
// vector — the harness is a correctness differential first and a timing
// record second. Timings are best-of-N wall clock; on a noisy box treat
// the speedup column as indicative, the identity check as binding.
//
//   build/bench/micro_components [--smoke] [--reps=5]
//       [--json=BENCH_micro.json]
//
// --smoke shrinks the workloads and reps for the CI perf-label ctest
// (micro_components_smoke); the identity check still runs in full.
// A second, non-comparative "components" section times the remaining
// round-loop constituents (network delivery, hierarchy build, token
// buckets, one PBFT instance) so their cost stays visible in the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/token_bucket.h"
#include "chain/account_map.h"
#include "cluster/hierarchy.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "consensus/pbft.h"
#include "net/metric.h"
#include "net/network.h"
#include "txn/coloring.h"
#include "txn/txn_factory.h"

namespace {

using namespace stableshard;
using Clock = std::chrono::steady_clock;

constexpr Color kUncolored = static_cast<Color>(-1);

/// Defeats dead-code elimination: every timed body folds a value in here.
std::uint64_t g_sink = 0;

std::vector<txn::Transaction> MakeWorkload(std::size_t count,
                                           std::uint32_t k, ShardId shards) {
  const auto map = chain::AccountMap::RoundRobin(shards, shards);
  txn::TxnFactory factory(map);
  Rng rng(42);
  std::vector<txn::Transaction> txns;
  txns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto picks = rng.SampleWithoutReplacement(shards, k);
    std::vector<AccountId> accounts(picks.begin(), picks.end());
    txns.push_back(factory.MakeTouch(
        static_cast<ShardId>(rng.NextBounded(shards)), 0, accounts));
  }
  return txns;
}

std::vector<const txn::Transaction*> View(
    const std::vector<txn::Transaction>& txns) {
  std::vector<const txn::Transaction*> view;
  view.reserve(txns.size());
  for (const auto& t : txns) view.push_back(&t);
  return view;
}

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

// ---------------------------------------------------------------------------
// Legacy implementation (verbatim pre-arena behavior), kept here as the
// timing baseline and identity oracle.

/// Pre-arena clique coloring: unordered_map shard index, heap-allocated
/// ordering arrays and per-shard vector<bool> marks, all freed on return.
txn::ColoringResult LegacyColorShardCliques(
    const std::vector<const txn::Transaction*>& txns,
    txn::ColoringAlgorithm algorithm) {
  const std::size_t n = txns.size();
  txn::ColoringResult result;
  result.color.assign(n, kUncolored);
  if (n == 0) return result;

  std::unordered_map<ShardId, std::uint32_t> shard_index;
  std::vector<std::uint64_t> shard_load;
  for (const txn::Transaction* txn : txns) {
    for (const ShardId shard : txn->destinations()) {
      const auto [it, inserted] =
          shard_index.try_emplace(shard, shard_index.size());
      if (inserted) shard_load.push_back(0);
      ++shard_load[it->second];
    }
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (algorithm != txn::ColoringAlgorithm::kGreedy) {
    std::vector<std::uint64_t> proxy(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      for (const ShardId shard : txns[v]->destinations()) {
        proxy[v] += shard_load[shard_index[shard]] - 1;
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return proxy[a] > proxy[b];
                     });
  }

  std::vector<std::vector<bool>> used(shard_load.size());
  for (const std::uint32_t v : order) {
    Color chosen = 0;
    for (bool conflict = true; conflict;) {
      conflict = false;
      for (const ShardId shard : txns[v]->destinations()) {
        const auto& marks = used[shard_index[shard]];
        if (chosen < marks.size() && marks[chosen]) {
          conflict = true;
          ++chosen;
          break;
        }
      }
    }
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
    for (const ShardId shard : txns[v]->destinations()) {
      auto& marks = used[shard_index[shard]];
      if (marks.size() <= chosen) marks.resize(chosen + 1, false);
      marks[chosen] = true;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------

struct ComparisonRow {
  std::string name;
  std::size_t n = 0;
  double legacy_seconds = 0;
  double new_seconds = 0;
  double speedup = 0;
  bool identical = false;
};

struct ComponentRow {
  std::string name;
  std::size_t n = 0;
  double seconds = 0;
};

bool SameColoring(const txn::ColoringResult& a,
                  const txn::ColoringResult& b) {
  return a.num_colors == b.num_colors && a.color == b.color;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const int reps =
      static_cast<int>(flags.GetUint("reps", smoke ? 2 : 5));
  const std::string json_path = flags.GetString("json", "BENCH_micro.json");
  if (!flags.FinishReads()) return 2;
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  std::vector<ComparisonRow> comparisons;
  bool all_identical = true;
  const auto record = [&](std::string name, std::size_t n, double legacy_s,
                          double new_s, bool identical) {
    ComparisonRow row;
    row.name = std::move(name);
    row.n = n;
    row.legacy_seconds = legacy_s;
    row.new_seconds = new_s;
    row.speedup = new_s > 0 ? legacy_s / new_s : 0.0;
    row.identical = identical;
    all_identical = all_identical && identical;
    comparisons.push_back(row);
  };

  // -- arena_scratch: clique coloring with a persistent arena, Reset per
  // epoch (the BDS/FDS StepShard steady state — zero heap traffic after
  // the first epoch) vs the heap-allocating original. Burst-epoch sizes.
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{1024}
              : std::vector<std::size_t>{4096, 16384};
    for (const std::size_t n : sizes) {
      const auto txns = MakeWorkload(n, 8, 64);
      const auto view = View(txns);
      common::Arena arena;
      const double legacy_s = BestOf(reps, [&] {
        g_sink +=
            LegacyColorShardCliques(view, txn::ColoringAlgorithm::kGreedy)
                .num_colors;
      });
      const double new_s = BestOf(reps, [&] {
        arena.Reset();
        g_sink += ColorShardCliques(view, txn::ColoringAlgorithm::kGreedy,
                                    arena)
                      .num_colors;
      });
      arena.Reset();
      record("arena_scratch", n, legacy_s, new_s,
             SameColoring(
                 LegacyColorShardCliques(view,
                                         txn::ColoringAlgorithm::kGreedy),
                 ColorShardCliques(view, txn::ColoringAlgorithm::kGreedy,
                                   arena)));
    }
  }

  // -- non-comparative component timings (kept from the old suite so the
  // round loop's other constituents stay visible in the JSON).
  std::vector<ComponentRow> components;
  {
    const std::size_t messages = smoke ? 1000 : 10000;
    net::LineMetric metric(64);
    components.push_back(
        {"network_send_deliver", messages, BestOf(reps, [&] {
           Rng rng(3);
           net::Network<int> network(metric);
           Round now = 0;
           for (std::size_t i = 0; i < messages; ++i) {
             network.Send(static_cast<ShardId>(rng.NextBounded(64)),
                          static_cast<ShardId>(rng.NextBounded(64)), now,
                          static_cast<int>(i));
           }
           while (network.HasPending()) {
             g_sink += network.Deliver(++now).size();
           }
         })});

    const ShardId hierarchy_shards = smoke ? 64 : 256;
    net::LineMetric hierarchy_metric(hierarchy_shards);
    components.push_back(
        {"hierarchy_build_sparse_cover", hierarchy_shards, BestOf(reps, [&] {
           g_sink += cluster::Hierarchy::BuildSparseCover(hierarchy_metric)
                         .clusters()
                         .size();
         })});

    const ShardId buckets = 1024;
    adversary::TokenBucketArray bucket_array(buckets, 0.1, 100);
    components.push_back({"token_bucket_tick", buckets, BestOf(reps, [&] {
                            bucket_array.Tick();
                            g_sink += static_cast<std::uint64_t>(
                                bucket_array.MinTokens());
                          })});

    consensus::PbftConfig pbft;
    pbft.nodes = 13;
    components.push_back({"pbft_instance", pbft.nodes, BestOf(reps, [&] {
                            Rng rng(5);
                            g_sink +=
                                RunPbft(pbft, 0xfeed, 0, rng).decided ? 1 : 0;
                          })});
  }

  std::printf("micro_components: best of %d reps%s (g_sink=%llu)\n\n", reps,
              smoke ? ", smoke sizes" : "",
              static_cast<unsigned long long>(g_sink % 10));
  std::printf("%-20s %8s | %12s %12s %8s | %9s\n", "comparison", "n",
              "legacy_us", "new_us", "speedup", "identical");
  for (const ComparisonRow& row : comparisons) {
    std::printf("%-20s %8zu | %12.1f %12.1f %7.2fx | %9s\n",
                row.name.c_str(), row.n, 1e6 * row.legacy_seconds,
                1e6 * row.new_seconds, row.speedup,
                row.identical ? "yes" : "NO");
  }
  std::printf("\n%-28s %8s | %12s\n", "component", "n", "best_us");
  for (const ComponentRow& row : components) {
    std::printf("%-28s %8zu | %12.1f\n", row.name.c_str(), row.n,
                1e6 * row.seconds);
  }

  std::fprintf(json,
               "{\n  \"bench\": \"micro_components\",\n"
               "  \"smoke\": %s,\n  \"reps\": %d,\n"
               "  \"comparisons\": [\n",
               smoke ? "true" : "false", reps);
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const ComparisonRow& row = comparisons[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"n\": %zu,\n"
                 "     \"legacy_seconds\": %.9f, \"new_seconds\": %.9f,\n"
                 "     \"speedup\": %.4f, \"identical\": %s}%s\n",
                 row.name.c_str(), row.n, row.legacy_seconds,
                 row.new_seconds, row.speedup,
                 row.identical ? "true" : "false",
                 i + 1 < comparisons.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"components\": [\n");
  for (std::size_t i = 0; i < components.size(); ++i) {
    const ComponentRow& row = components[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"n\": %zu, \"seconds\": %.9f}%s\n",
                 row.name.c_str(), row.n, row.seconds,
                 i + 1 < components.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_identical &&
               "a rewritten hot-path component diverged from its legacy "
               "baseline");
  std::printf("\nall comparisons identical to their legacy baselines; "
              "table written to %s\n",
              json_path.c_str());
  return 0;
}
