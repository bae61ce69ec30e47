#include "txn/coloring.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/check.h"

namespace stableshard::txn {

namespace {

constexpr Color kUncolored = static_cast<Color>(-1);
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

/// Color bitset: one inline word for colors 0..63 (the common case — most
/// epochs need far fewer than 64 colors, so the fast path touches no heap)
/// plus spillover words for burst epochs. "Smallest free color" is a count
/// of trailing ones instead of a per-color scan.
class ColorSet {
 public:
  /// Sets the bit for `c`; returns true when it was newly set.
  bool insert(Color c) {
    std::uint64_t& word = WordFor(c);
    const std::uint64_t bit = std::uint64_t{1} << (c & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Number of distinct colors in the set (DSATUR saturation degree).
  std::size_t count() const { return count_; }

  /// Smallest color not in the set.
  Color FirstAbsent() const {
    if (word0_ != kAllOnes) {
      return static_cast<Color>(std::countr_one(word0_));
    }
    for (std::size_t w = 0; w < spill_.size(); ++w) {
      if (spill_[w] != kAllOnes) {
        return static_cast<Color>(64 * (w + 1) + std::countr_one(spill_[w]));
      }
    }
    return static_cast<Color>(64 * (spill_.size() + 1));
  }

  /// Empties the set but keeps spill capacity (scratch reuse).
  void clear() {
    word0_ = 0;
    std::fill(spill_.begin(), spill_.end(), 0);
    count_ = 0;
  }

 private:
  std::uint64_t& WordFor(Color c) {
    if (c < 64) return word0_;
    const std::size_t w = c / 64 - 1;
    if (w >= spill_.size()) spill_.resize(w + 1, 0);
    return spill_[w];
  }

  std::uint64_t word0_ = 0;
  std::vector<std::uint64_t> spill_;
  std::size_t count_ = 0;
};

/// Greedy coloring along `order`: each vertex takes the smallest color not
/// used by an already-colored neighbor.
///
/// Stamped marks, not bitsets: marking is then a pure store (mark[c] =
/// step) with no read-modify-write dependency on a shared word. Greedy
/// never uses more than MaxDegree+1 colors, so Delta+2 slots suffice.
ColoringResult GreedyInOrder(const ConflictGraph& graph,
                             const std::vector<std::uint32_t>& order) {
  const std::size_t n = graph.size();
  ColoringResult result;
  result.color.assign(n, kUncolored);
  std::vector<std::uint32_t> mark(graph.MaxDegree() + 2, UINT32_MAX);
  const Color* const color = result.color.data();
  for (std::uint32_t step = 0; step < order.size(); ++step) {
    const std::uint32_t v = order[step];
    for (const std::uint32_t u : graph.neighbors(v)) {
      const Color c = color[u];
      if (c != kUncolored) mark[c] = step;
    }
    Color chosen = 0;
    while (mark[chosen] == step) ++chosen;
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
  }
  return result;
}

ColoringResult Dsatur(const ConflictGraph& graph) {
  const std::size_t n = graph.size();
  ColoringResult result;
  result.color.assign(n, kUncolored);
  if (n == 0) return result;

  std::vector<ColorSet> neighbor_colors(n);
  // Priority: (saturation, degree, -v). std::set as a simple updatable heap;
  // DSATUR only runs in tests and the coloring ablation. Saturation is the
  // number of distinct neighbor colors.
  auto priority = [&](std::uint32_t v) {
    return std::tuple(neighbor_colors[v].count(), graph.degree(v),
                      ~static_cast<std::uint32_t>(v));
  };
  std::set<std::tuple<std::size_t, std::size_t, std::uint32_t>> queue;
  for (std::uint32_t v = 0; v < n; ++v) queue.insert(priority(v));

  for (std::size_t colored = 0; colored < n; ++colored) {
    const auto top = *queue.rbegin();
    queue.erase(std::prev(queue.end()));
    const std::uint32_t v = ~std::get<2>(top);
    const Color chosen = neighbor_colors[v].FirstAbsent();
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
    for (const std::uint32_t u : graph.neighbors(v)) {
      if (result.color[u] != kUncolored) continue;
      queue.erase(priority(u));
      neighbor_colors[u].insert(chosen);
      queue.insert(priority(u));
    }
  }
  return result;
}

/// Per-shard color marks for the clique coloring: a fixed word0 lane
/// (colors 0..63) allocated up front plus an on-demand spillover matrix,
/// all bump-allocated from the round arena. Rows a shard never spills into
/// read as zero, so the union loop needs no bounds bookkeeping.
class ShardColorMarks {
 public:
  ShardColorMarks(std::size_t shards, common::Arena& arena)
      : shards_(shards),
        arena_(arena),
        word0_(arena.AllocateArray<std::uint64_t>(shards)) {
    std::fill_n(word0_, shards_, std::uint64_t{0});
  }

  /// Word `w` of the shard's color bitset (w == 0 is the inline lane).
  std::uint64_t word(std::uint32_t shard, std::size_t w) const {
    if (w == 0) return word0_[shard];
    return (w - 1) < spill_words_ ? spill_[shard * spill_words_ + (w - 1)]
                                  : 0;
  }

  void set(std::uint32_t shard, Color color) {
    const std::uint64_t bit = std::uint64_t{1} << (color & 63);
    if (color < 64) {
      word0_[shard] |= bit;
      return;
    }
    const std::size_t w = color / 64 - 1;
    if (w >= spill_words_) Grow(w + 1);
    spill_[shard * spill_words_ + w] |= bit;
  }

 private:
  /// Doubles the spill matrix (arena garbage from the old rows is
  /// reclaimed wholesale at the next arena Reset).
  void Grow(std::size_t min_words) {
    const std::size_t grown =
        std::max(min_words, spill_words_ == 0 ? std::size_t{1}
                                              : spill_words_ * 2);
    std::uint64_t* fresh = arena_.AllocateArray<std::uint64_t>(shards_ * grown);
    std::fill_n(fresh, shards_ * grown, std::uint64_t{0});
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      std::copy_n(spill_ + shard * spill_words_, spill_words_,
                  fresh + shard * grown);
    }
    spill_ = fresh;
    spill_words_ = grown;
  }

  std::size_t shards_;
  common::Arena& arena_;
  std::uint64_t* word0_;
  std::uint64_t* spill_ = nullptr;
  std::size_t spill_words_ = 0;
};

}  // namespace

const char* ToString(ColoringAlgorithm algorithm) {
  switch (algorithm) {
    case ColoringAlgorithm::kGreedy:
      return "greedy";
    case ColoringAlgorithm::kWelshPowell:
      return "welsh-powell";
    case ColoringAlgorithm::kDsatur:
      return "dsatur";
  }
  return "?";
}

ColoringResult ColorGraph(const ConflictGraph& graph,
                          ColoringAlgorithm algorithm) {
  const std::size_t n = graph.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  ColoringResult result;
  switch (algorithm) {
    case ColoringAlgorithm::kGreedy:
      result = GreedyInOrder(graph, order);
      break;
    case ColoringAlgorithm::kWelshPowell:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return graph.degree(a) > graph.degree(b);
                       });
      result = GreedyInOrder(graph, order);
      break;
    case ColoringAlgorithm::kDsatur:
      result = Dsatur(graph);
      break;
    default:
      SSHARD_CHECK(false && "unknown coloring algorithm");
  }
  return result;
}

ColoringResult ColorShardCliques(std::span<const Transaction* const> txns,
                                 ColoringAlgorithm algorithm,
                                 common::Arena& scratch) {
  SSHARD_CHECK((algorithm == ColoringAlgorithm::kGreedy ||
                algorithm == ColoringAlgorithm::kWelshPowell) &&
               "the graph-free coloring runs greedy or Welsh-Powell only");
  const std::size_t n = txns.size();
  ColoringResult result;
  result.color.assign(n, kUncolored);
  if (n == 0) return result;

  // Destination shards appearing in this batch, remapped to dense indices.
  using ShardIndexMap =
      std::unordered_map<ShardId, std::uint32_t, std::hash<ShardId>,
                         std::equal_to<ShardId>,
                         common::ArenaAllocator<
                             std::pair<const ShardId, std::uint32_t>>>;
  ShardIndexMap shard_index(
      /*bucket_count=*/16, std::hash<ShardId>{}, std::equal_to<ShardId>{},
      common::ArenaAllocator<std::pair<const ShardId, std::uint32_t>>(
          &scratch));
  common::ArenaVector<std::uint64_t> shard_load{
      common::ArenaAllocator<std::uint64_t>(&scratch)};
  std::size_t total_dests = 0;
  for (const Transaction* txn : txns) {
    total_dests += txn->destinations().size();
    for (const ShardId shard : txn->destinations()) {
      const auto [it, inserted] =
          shard_index.try_emplace(shard, shard_index.size());
      if (inserted) shard_load.push_back(0);
      ++shard_load[it->second];
    }
  }

  // Per-transaction dense destination indices, CSR-style, so the inner
  // union loop walks a flat slice instead of re-hashing shard ids.
  std::uint32_t* dest_offsets = scratch.AllocateArray<std::uint32_t>(n + 1);
  std::uint32_t* dests = scratch.AllocateArray<std::uint32_t>(total_dests);
  dest_offsets[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    std::uint32_t cursor = dest_offsets[v];
    for (const ShardId shard : txns[v]->destinations()) {
      dests[cursor++] = shard_index.find(shard)->second;
    }
    dest_offsets[v + 1] = cursor;
  }

  std::uint32_t* order = scratch.AllocateArray<std::uint32_t>(n);
  std::iota(order, order + n, 0);
  if (algorithm == ColoringAlgorithm::kWelshPowell) {
    // Clique-degree proxy: a transaction conflicts with at most
    // sum(shard_load - 1) others; order descending (Welsh-Powell).
    std::uint64_t* proxy = scratch.AllocateArray<std::uint64_t>(n);
    for (std::size_t v = 0; v < n; ++v) {
      proxy[v] = 0;
      for (std::uint32_t d = dest_offsets[v]; d < dest_offsets[v + 1]; ++d) {
        proxy[v] += shard_load[dests[d]] - 1;
      }
    }
    std::stable_sort(order, order + n,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return proxy[a] > proxy[b];
                     });
  }

  // A color is free for a transaction iff no destination shard has used it:
  // the smallest such color is the first zero bit of the OR of the
  // destination shards' bitsets.
  ShardColorMarks marks(shard_load.size(), scratch);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = order[i];
    Color chosen = 0;
    for (std::size_t w = 0;; ++w) {
      std::uint64_t merged = 0;
      for (std::uint32_t d = dest_offsets[v]; d < dest_offsets[v + 1]; ++d) {
        merged |= marks.word(dests[d], w);
      }
      if (merged != kAllOnes) {
        chosen = static_cast<Color>(64 * w + std::countr_one(merged));
        break;
      }
    }
    result.color[v] = chosen;
    result.num_colors = std::max(result.num_colors, chosen + 1);
    for (std::uint32_t d = dest_offsets[v]; d < dest_offsets[v + 1]; ++d) {
      marks.set(dests[d], chosen);
    }
  }
  return result;
}

ColoringResult ColorShardCliques(std::span<const Transaction* const> txns,
                                 ColoringAlgorithm algorithm) {
  common::Arena scratch;
  return ColorShardCliques(txns, algorithm, scratch);
}

bool IsProperShardColoring(std::span<const Transaction* const> txns,
                           const std::vector<Color>& color) {
  if (color.size() != txns.size()) return false;
  std::unordered_map<ShardId, ColorSet> seen;  // shard -> colors taken
  for (std::size_t v = 0; v < txns.size(); ++v) {
    if (color[v] == kUncolored) return false;
    for (const ShardId shard : txns[v]->destinations()) {
      if (!seen[shard].insert(color[v])) return false;
    }
  }
  return true;
}

bool IsProperColoring(const ConflictGraph& graph,
                      const std::vector<Color>& color) {
  if (color.size() != graph.size()) return false;
  for (std::size_t v = 0; v < graph.size(); ++v) {
    if (color[v] == kUncolored) return false;
    for (const std::uint32_t u : graph.neighbors(v)) {
      if (color[u] == color[v]) return false;
    }
  }
  return true;
}

}  // namespace stableshard::txn
