// Vertex colorings of the conflict graph.
//
// Phase 2 needs a proper coloring with at most Delta+1 colors (Lemma 1's
// epoch-length argument only relies on the greedy Delta+1 guarantee). The
// paper's simulation uses "a simple greedy coloring"; Welsh-Powell
// (largest-degree-first greedy) is the alternative ordering — fewer colors
// shorten Phase 3 by 4 rounds per color saved.
//
// The schedulers run ColorShardCliques, which colors the shard-granularity
// conflict relation without building the graph. ColorGraph colors an
// explicit ConflictGraph; it is the reference the tests compare against
// and the only place DSATUR runs (the coloring ablation).
//
// Color tracking: DSATUR and the shard-clique coloring use uint64_t bitset
// words (saturation is a popcount; "smallest free color" is a word-wise OR
// plus a count of trailing ones instead of a per-color scan), while plain
// greedy keeps stamped mark stores sized by the greedy color bound
// (MaxDegree + 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "txn/conflict_graph.h"

namespace stableshard::txn {

enum class ColoringAlgorithm : std::uint8_t {
  kGreedy,       ///< vertices in input (txn id) order — the paper's choice
  kWelshPowell,  ///< vertices in decreasing degree order
  kDsatur,       ///< max saturation degree first (ColorGraph only)
};

const char* ToString(ColoringAlgorithm algorithm);

struct ColoringResult {
  std::vector<Color> color;   ///< per-vertex color, 0-based
  std::uint32_t num_colors = 0;
};

/// Colors `graph` with the chosen algorithm. The result is always a proper
/// coloring; kGreedy and kWelshPowell use at most MaxDegree()+1 colors,
/// kDsatur at most that as well (usually fewer).
ColoringResult ColorGraph(const ConflictGraph& graph,
                          ColoringAlgorithm algorithm);

/// Shard-granularity coloring without materializing the conflict graph.
///
/// The shard-granularity conflict graph is a union of per-shard cliques, so
/// a proper coloring only needs, per transaction, the smallest color unused
/// by any transaction sharing one of its destination shards — the first
/// zero bit in the OR of its destination shards' color bitsets. This
/// matters for the paper's burst workloads (b = 3000 preloads tens of
/// thousands of transactions; the explicit clique-union graph would have
/// ~10^8 edges).
///
/// kGreedy orders by input (id) order; kWelshPowell orders by decreasing
/// clique-degree proxy (sum over destinations of the shard's transaction
/// count). kDsatur needs the explicit graph and dies here (SSHARD_CHECK);
/// core::ConfigError rejects it before a scheduler is built. Colors used
/// <= Delta + 1 where Delta is the max vertex degree of the clique-union
/// graph (the greedy bound Lemma 1 relies on).
///
/// The `scratch` overload bump-allocates all internal scratch (ordering
/// arrays, shard color bitsets) from the caller's arena — the schedulers
/// pass their per-round arena so steady-state epochs allocate nothing.
/// The arena is used as-is (not Reset here); scratch is dead on return.
ColoringResult ColorShardCliques(std::span<const Transaction* const> txns,
                                 ColoringAlgorithm algorithm,
                                 common::Arena& scratch);
ColoringResult ColorShardCliques(std::span<const Transaction* const> txns,
                                 ColoringAlgorithm algorithm);

/// Proper-coloring check at shard granularity without a graph.
bool IsProperShardColoring(std::span<const Transaction* const> txns,
                           const std::vector<Color>& color);

/// Verification helper (tests, debug): proper iff no edge is monochromatic.
bool IsProperColoring(const ConflictGraph& graph,
                      const std::vector<Color>& color);

}  // namespace stableshard::txn
