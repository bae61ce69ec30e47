#include "txn/conflict_graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace stableshard::txn {

ConflictGraph::ConflictGraph(const std::vector<const Transaction*>& txns,
                             ConflictGranularity granularity)
    : rows_(txns.size()) {
  const std::size_t n = txns.size();
  SSHARD_CHECK(n <= UINT32_MAX);
  ids_.reserve(n);
  for (const Transaction* txn : txns) ids_.push_back(txn->id());
  const auto link = [&](std::uint32_t a, std::uint32_t b) {
    rows_[a].push_back(b);
    rows_[b].push_back(a);
  };

  if (granularity == ConflictGranularity::kShard) {
    // Destination shard -> users: every same-shard pair conflicts.
    std::unordered_map<ShardId, std::vector<std::uint32_t>> users;
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const ShardId shard : txns[v]->destinations()) {
        users[shard].push_back(v);
      }
    }
    // lint:allow(unordered-iteration): rows are sorted/deduped below.
    for (const auto& [shard, list] : users) {
      (void)shard;
      for (std::size_t i = 0; i < list.size(); ++i) {
        for (std::size_t j = i + 1; j < list.size(); ++j) {
          link(list[i], list[j]);
        }
      }
    }
  } else {
    // Account -> (readers, writers): a shared account with >= 1 write
    // conflicts, so writer-writer and writer-reader pairs get an edge.
    struct AccountUsers {
      std::vector<std::uint32_t> readers;
      std::vector<std::uint32_t> writers;
    };
    std::unordered_map<AccountId, AccountUsers> users;
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const Transaction::Access& access : txns[v]->accesses()) {
        AccountUsers& u = users[access.account];
        (access.write ? u.writers : u.readers).push_back(v);
      }
    }
    // lint:allow(unordered-iteration): rows are sorted/deduped below.
    for (const auto& [account, u] : users) {
      (void)account;
      for (std::size_t i = 0; i < u.writers.size(); ++i) {
        for (std::size_t j = i + 1; j < u.writers.size(); ++j) {
          link(u.writers[i], u.writers[j]);
        }
        for (const std::uint32_t reader : u.readers) {
          link(u.writers[i], reader);
        }
      }
    }
  }

  // Two transactions sharing several accounts/shards are linked once per
  // share. Sorted rows are a class invariant: HasEdge binary-searches them.
  for (std::vector<std::uint32_t>& row : rows_) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    edge_count_ += row.size();
  }
  edge_count_ /= 2;
}

std::size_t ConflictGraph::MaxDegree() const {
  std::size_t max_degree = 0;
  for (const std::vector<std::uint32_t>& row : rows_) {
    max_degree = std::max(max_degree, row.size());
  }
  return max_degree;
}

bool ConflictGraph::HasEdge(std::size_t a, std::size_t b) const {
  const std::vector<std::uint32_t>& row = rows_[a];
  SSHARD_DCHECK(std::is_sorted(row.begin(), row.end()));
  return std::binary_search(row.begin(), row.end(),
                            static_cast<std::uint32_t>(b));
}

}  // namespace stableshard::txn
