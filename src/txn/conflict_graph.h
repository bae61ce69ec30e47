// Transaction conflict graph (paper Section 3).
//
// Vertices are transactions; an edge joins two transactions that access a
// common account with at least one write. The paper's Phase 2 colors this
// graph to produce a conflict-free commit schedule: same-color transactions
// are mutually non-conflicting and commit concurrently.
//
// The schedulers never build it: they color the shard-granularity graph
// without materializing it (ColorShardCliques in txn/coloring.h). This
// class is the explicit-graph reference for the tests and the coloring
// ablation. It is built from an account- (or shard-) indexed inverted list,
// O(sum over accounts of writers*accessors), not the naive O(n^2) pairwise
// scan; each row is then sorted and deduplicated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "txn/transaction.h"

namespace stableshard::txn {

/// Edge definition used when building the graph.
///
/// kAccount is the paper's Section-3 definition (shared account, >= 1
/// write) and captures *semantic* conflicts. kShard additionally treats any
/// two transactions sharing a destination shard as conflicting: since each
/// shard can process exactly one subtransaction per round, same-color
/// transactions must be shard-disjoint for the schedule to respect unit
/// shard capacity. With the paper's simulation setup (one account per
/// shard, write-only workload) the two definitions coincide; the schedulers
/// color the kShard relation, and kAccount is used for serializability
/// analysis and ablations.
enum class ConflictGranularity : std::uint8_t { kAccount, kShard };

class ConflictGraph {
 public:
  /// Builds the conflict graph of `txns`. Vertices are indexed by position
  /// in the input; the mapping to TxnIds is kept for callers.
  explicit ConflictGraph(const std::vector<const Transaction*>& txns,
                         ConflictGranularity granularity =
                             ConflictGranularity::kAccount);

  std::size_t size() const { return ids_.size(); }
  /// Neighbor vertex indices, sorted ascending and deduplicated (class
  /// invariant established at construction; HasEdge relies on it).
  std::span<const std::uint32_t> neighbors(std::size_t v) const {
    return rows_[v];
  }
  std::size_t degree(std::size_t v) const { return rows_[v].size(); }

  /// Maximum vertex degree Delta (epoch length driver in Lemma 1).
  std::size_t MaxDegree() const;

  std::uint64_t edge_count() const { return edge_count_; }

  TxnId txn_id(std::size_t v) const { return ids_[v]; }

  bool HasEdge(std::size_t a, std::size_t b) const;

 private:
  std::vector<std::vector<std::uint32_t>> rows_;
  std::vector<TxnId> ids_;
  std::uint64_t edge_count_ = 0;
};

}  // namespace stableshard::txn
