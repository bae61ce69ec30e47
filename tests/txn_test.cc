// Unit tests for src/txn: transaction construction, read/write sets,
// conflict detection (account and shard granularity), the factory helpers,
// and conflict graph building.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chain/account_map.h"
#include "common/rng.h"
#include "txn/conflict_graph.h"
#include "txn/transaction.h"
#include "txn/txn_factory.h"

namespace stableshard::txn {
namespace {

chain::AccountMap MakeMap(ShardId shards = 8, AccountId accounts = 8) {
  return chain::AccountMap::RoundRobin(shards, accounts);
}

TEST(Transaction, FactoryGroupsAccessesByShard) {
  const auto map = MakeMap(4, 8);  // accounts 0..7, owner a % 4
  TxnFactory factory(map);
  // Accounts 0 and 4 share shard 0; account 1 is shard 1.
  const auto txn = factory.MakeTouch(0, 5, {0, 4, 1});
  EXPECT_EQ(txn.subs().size(), 2u);
  EXPECT_EQ(txn.destinations(), (std::vector<ShardId>{0, 1}));
  EXPECT_EQ(txn.shard_span(), 2u);
  EXPECT_EQ(txn.injected(), 5u);
}

TEST(Transaction, IdsIncrease) {
  const auto map = MakeMap();
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0});
  const auto t1 = factory.MakeTouch(0, 0, {1});
  EXPECT_EQ(t0.id(), 0u);
  EXPECT_EQ(t1.id(), 1u);
  EXPECT_EQ(factory.created(), 2u);
}

TEST(Transaction, AccessesAreWriteDominant) {
  const auto map = MakeMap(2, 2);
  TxnFactory factory(map);
  std::vector<AccessSpec> specs;
  AccessSpec read_then_write;
  read_then_write.account = 0;
  read_then_write.has_condition = true;
  read_then_write.condition = {0, chain::CmpOp::kGe, 1};
  read_then_write.action = {0, chain::ActionKind::kDeposit, 5};
  specs.push_back(read_then_write);
  const auto txn = factory.Make(0, 0, specs);
  ASSERT_EQ(txn.accesses().size(), 1u);
  EXPECT_TRUE(txn.accesses()[0].write);
}

TEST(Transaction, ConflictRequiresSharedAccountWithWrite) {
  const auto map = MakeMap(8, 8);
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0, 1});
  const auto t1 = factory.MakeTouch(0, 0, {1, 2});
  const auto t2 = factory.MakeTouch(0, 0, {3, 4});
  EXPECT_TRUE(t0.ConflictsWith(t1));
  EXPECT_TRUE(t1.ConflictsWith(t0));
  EXPECT_FALSE(t0.ConflictsWith(t2));
}

TEST(Transaction, ReadReadDoesNotConflict) {
  const auto map = MakeMap(2, 2);
  TxnFactory factory(map);
  auto make_reader = [&](AccountId account) {
    AccessSpec spec;
    spec.account = account;
    spec.write = false;
    spec.has_condition = true;
    spec.condition = {account, chain::CmpOp::kGe, 0};
    spec.action = {account, chain::ActionKind::kNone, 0};
    return factory.Make(0, 0, {spec});
  };
  const auto r1 = make_reader(0);
  const auto r2 = make_reader(0);
  EXPECT_FALSE(r1.ConflictsWith(r2));
}

TEST(Transaction, TransferShape) {
  const auto map = MakeMap(8, 8);
  TxnFactory factory(map);
  const auto txn = factory.MakeTransfer(/*home=*/2, /*injected=*/1,
                                        /*from=*/0, /*to=*/5, /*amount=*/100,
                                        /*min_balance=*/500);
  EXPECT_EQ(txn.subs().size(), 2u);
  EXPECT_EQ(txn.home(), 2u);
  // Find the "from" side and check condition + withdraw action.
  bool found_from = false;
  for (const auto& sub : txn.subs()) {
    if (sub.destination == map.OwnerOf(0)) {
      found_from = true;
      ASSERT_EQ(sub.conditions.size(), 1u);
      EXPECT_EQ(sub.conditions[0].value, 500);
      ASSERT_EQ(sub.actions.size(), 1u);
      EXPECT_EQ(sub.actions[0].kind, chain::ActionKind::kWithdraw);
    }
  }
  EXPECT_TRUE(found_from);
}

TEST(SubTransaction, ReadWriteSets) {
  SubTransaction sub;
  sub.destination = 0;
  sub.conditions.push_back({3, chain::CmpOp::kGe, 1});
  sub.actions.push_back({4, chain::ActionKind::kDeposit, 1});
  sub.actions.push_back({5, chain::ActionKind::kNone, 0});
  EXPECT_EQ(sub.ReadSet(), (std::vector<AccountId>{3, 5}));
  EXPECT_EQ(sub.WriteSet(), (std::vector<AccountId>{4}));
  EXPECT_TRUE(sub.HasWrite());
}

TEST(SubTransaction, DigestSensitivity) {
  SubTransaction a;
  a.destination = 0;
  a.actions.push_back({1, chain::ActionKind::kDeposit, 10});
  SubTransaction b = a;
  EXPECT_EQ(a.Digest(), b.Digest());
  b.actions[0].amount = 11;
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(ConflictGraph, AccountGranularityEdges) {
  const auto map = MakeMap(8, 8);
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0, 1});
  const auto t1 = factory.MakeTouch(0, 0, {1, 2});
  const auto t2 = factory.MakeTouch(0, 0, {3});
  const ConflictGraph graph({&t0, &t1, &t2},
                            ConflictGranularity::kAccount);
  EXPECT_EQ(graph.size(), 3u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_FALSE(graph.HasEdge(1, 2));
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.MaxDegree(), 1u);
}

TEST(ConflictGraph, ShardGranularityIsCoarser) {
  // 2 shards, 4 accounts: accounts 0,2 on shard 0; accounts 1,3 on shard 1.
  const auto map = MakeMap(2, 4);
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0});
  const auto t1 = factory.MakeTouch(0, 0, {2});  // same shard, diff account
  const ConflictGraph account_graph({&t0, &t1},
                                    ConflictGranularity::kAccount);
  EXPECT_EQ(account_graph.edge_count(), 0u);
  const ConflictGraph shard_graph({&t0, &t1}, ConflictGranularity::kShard);
  EXPECT_EQ(shard_graph.edge_count(), 1u);
}

TEST(ConflictGraph, NoSelfEdgesNoDuplicates) {
  const auto map = MakeMap(4, 4);
  TxnFactory factory(map);
  // Two transactions sharing two accounts: still one edge.
  const auto t0 = factory.MakeTouch(0, 0, {0, 1});
  const auto t1 = factory.MakeTouch(0, 0, {0, 1});
  const ConflictGraph graph({&t0, &t1});
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.degree(0), 1u);
}

TEST(ConflictGraph, EmptyGraph) {
  const ConflictGraph graph({});
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_EQ(graph.MaxDegree(), 0u);
}

TEST(ConflictGraph, AdjacencySortedForBinarySearch) {
  // Hub-and-spokes in deliberately shuffled input order: the hub's
  // adjacency must come out sorted/deduplicated (HasEdge binary-searches
  // it) and every HasEdge answer must match membership in neighbors().
  const auto map = MakeMap(8, 8);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  txns.push_back(factory.MakeTouch(0, 0, {5}));          // v0: spoke on 5
  txns.push_back(factory.MakeTouch(0, 0, {1}));          // v1: spoke on 1
  txns.push_back(factory.MakeTouch(0, 0, {1, 3, 5, 7})); // v2: the hub
  txns.push_back(factory.MakeTouch(0, 0, {7}));          // v3: spoke on 7
  txns.push_back(factory.MakeTouch(0, 0, {3}));          // v4: spoke on 3
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  const ConflictGraph graph(view, ConflictGranularity::kAccount);

  const auto& hub = graph.neighbors(2);
  EXPECT_TRUE(std::is_sorted(hub.begin(), hub.end()));
  EXPECT_EQ(hub.size(), 4u);
  for (std::size_t v = 0; v < graph.size(); ++v) {
    for (std::size_t u = 0; u < graph.size(); ++u) {
      const auto& adj = graph.neighbors(v);
      const bool in_list = std::find(adj.begin(), adj.end(),
                                     static_cast<std::uint32_t>(u)) !=
                           adj.end();
      EXPECT_EQ(graph.HasEdge(v, u), in_list) << v << " -> " << u;
      EXPECT_EQ(graph.HasEdge(v, u), graph.HasEdge(u, v)) << "symmetry";
    }
  }
  EXPECT_EQ(graph.MaxDegree(), 4u);
  EXPECT_EQ(graph.edge_count(), 4u);
}

/// The edge definitions themselves, pair by pair, sharing no code with
/// the builder's inverted index.
bool ReferenceEdge(const Transaction& a, const Transaction& b,
                   ConflictGranularity granularity) {
  if (granularity == ConflictGranularity::kAccount) {
    return a.ConflictsWith(b);
  }
  return std::any_of(a.destinations().begin(), a.destinations().end(),
                     [&](ShardId shard) {
                       return std::find(b.destinations().begin(),
                                        b.destinations().end(),
                                        shard) != b.destinations().end();
                     });
}

/// Checks every pair (u, v) of both granularities against ReferenceEdge,
/// and degree / MaxDegree / edge_count against the same pairwise count.
void ExpectMatchesPairwiseDefinition(
    const std::vector<const Transaction*>& view, const char* label) {
  for (const auto granularity :
       {ConflictGranularity::kAccount, ConflictGranularity::kShard}) {
    const ConflictGraph graph(view, granularity);
    ASSERT_EQ(graph.size(), view.size()) << label;
    std::uint64_t edge_ends = 0;
    std::size_t max_degree = 0;
    for (std::size_t u = 0; u < view.size(); ++u) {
      std::size_t degree = 0;
      for (std::size_t v = 0; v < view.size(); ++v) {
        const bool edge =
            u != v && ReferenceEdge(*view[u], *view[v], granularity);
        degree += edge ? 1 : 0;
        ASSERT_EQ(graph.HasEdge(u, v), edge)
            << label << " granularity " << static_cast<int>(granularity)
            << ": " << u << " -> " << v;
      }
      const auto row = graph.neighbors(u);
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << label;
      EXPECT_EQ(row.size(), degree) << label << " row " << u;
      EXPECT_EQ(graph.degree(u), degree) << label << " row " << u;
      edge_ends += degree;
      max_degree = std::max(max_degree, degree);
    }
    EXPECT_EQ(graph.edge_count(), edge_ends / 2) << label;
    EXPECT_EQ(graph.MaxDegree(), max_degree) << label;
  }
}

TEST(ConflictGraph, MatchesPairwiseDefinition) {
  // Random batches: sparse rows, dense rows (many transactions funnelled
  // through few accounts/shards, so rows collect many duplicate
  // candidates), near-cliques at both granularities, and a mix of
  // read-only and write accesses (writer-reader pairs conflict at
  // kAccount, reader-reader pairs do not).
  struct WorkloadCase {
    const char* label;
    ShardId shards;
    AccountId accounts;
    std::uint32_t k;
    std::size_t count;
    std::uint64_t seed;
    bool some_reads;
  };
  for (const WorkloadCase& wc :
       {WorkloadCase{"sparse", 32, 64, 4, 200, 1, false},
        WorkloadCase{"dense", 4, 8, 3, 120, 2, false},
        WorkloadCase{"near-clique", 2, 4, 2, 90, 3, false},
        WorkloadCase{"reads", 8, 16, 3, 150, 4, true}}) {
    const auto map = chain::AccountMap::RoundRobin(wc.shards, wc.accounts);
    Rng rng(wc.seed);
    TxnFactory factory(map);
    std::vector<Transaction> txns;
    for (std::size_t i = 0; i < wc.count; ++i) {
      const std::uint64_t span = 1 + rng.NextBounded(wc.k);
      std::vector<AccessSpec> accesses;
      for (const std::uint64_t pick :
           rng.SampleWithoutReplacement(wc.accounts, span)) {
        AccessSpec spec;
        spec.account = static_cast<AccountId>(pick);
        spec.write = !wc.some_reads || rng.NextBounded(2) == 0;
        if (spec.write) spec.action.kind = chain::ActionKind::kDeposit;
        accesses.push_back(spec);
      }
      txns.push_back(factory.Make(
          static_cast<ShardId>(rng.NextBounded(wc.shards)), 0, accesses));
    }
    std::vector<const Transaction*> view;
    for (const auto& txn : txns) view.push_back(&txn);
    ExpectMatchesPairwiseDefinition(view, wc.label);
  }

  // 40 transactions writing the same account: one clique, every row the
  // other 39 vertices.
  const auto map = MakeMap(4, 4);
  TxnFactory factory(map);
  std::vector<Transaction> txns;
  for (int i = 0; i < 40; ++i) txns.push_back(factory.MakeTouch(0, 0, {0}));
  std::vector<const Transaction*> view;
  for (const auto& txn : txns) view.push_back(&txn);
  ExpectMatchesPairwiseDefinition(view, "40 writers");
  const ConflictGraph graph(view, ConflictGranularity::kAccount);
  EXPECT_EQ(graph.MaxDegree(), 39u);
  EXPECT_EQ(graph.edge_count(), 40u * 39u / 2u);
}

TEST(ConflictGraph, TxnIdsPreserved) {
  const auto map = MakeMap(4, 4);
  TxnFactory factory(map);
  const auto t0 = factory.MakeTouch(0, 0, {0});
  const auto t1 = factory.MakeTouch(0, 0, {1});
  const ConflictGraph graph({&t1, &t0});
  EXPECT_EQ(graph.txn_id(0), t1.id());
  EXPECT_EQ(graph.txn_id(1), t0.id());
}

TEST(TransactionDeath, RejectsEmptySubList) {
  EXPECT_DEATH(Transaction(0, 0, 0, {}), "SSHARD_CHECK");
}

}  // namespace
}  // namespace stableshard::txn
