// Unit tests for the CommitLedger: vote evaluation, commit application,
// resolution tracking, latency accounting and the runtime safety invariants
// (unit shard capacity, stale-state commits).
#include <gtest/gtest.h>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "txn/txn_factory.h"

namespace stableshard::core {
namespace {

class CommitLedgerTest : public ::testing::Test {
 protected:
  CommitLedgerTest()
      : map_(chain::AccountMap::RoundRobin(4, 4)),
        ledger_(map_, /*initial_balance=*/1000),
        factory_(map_) {}

  chain::AccountMap map_;
  CommitLedger ledger_;
  txn::TxnFactory factory_;
};

TEST_F(CommitLedgerTest, EvaluateChecksConditionsAndValidity) {
  const auto good = factory_.MakeTransfer(0, 0, /*from=*/0, /*to=*/1,
                                          /*amount=*/100, /*min=*/500);
  for (const auto& sub : good.subs()) {
    EXPECT_TRUE(ledger_.EvaluateSub(sub));
  }
  const auto poor = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/100,
                                          /*min=*/5000);  // condition fails
  bool any_false = false;
  for (const auto& sub : poor.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
  const auto broke = factory_.MakeTransfer(0, 0, 0, 1, /*amount=*/5000,
                                           /*min=*/500);  // invalid action
  any_false = false;
  for (const auto& sub : broke.subs()) {
    if (!ledger_.EvaluateSub(sub)) any_false = true;
  }
  EXPECT_TRUE(any_false);
}

TEST_F(CommitLedgerTest, CommitAppliesActionsAndAppendsBlocks) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  Round round = 5;
  bool resolved = false;
  for (const auto& sub : txn.subs()) {
    resolved = ledger_.ApplyConfirm(txn.id(), sub, /*commit=*/true, round);
    ++round;  // different shards, different rounds allowed (kOrdered)
  }
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 900);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(1)).BalanceOf(1), 1100);
  std::size_t blocks = 0;
  for (const auto& chain : ledger_.chains()) blocks += chain.size();
  EXPECT_EQ(blocks, 2u);
}

TEST_F(CommitLedgerTest, AbortLeavesStateUntouched) {
  const auto txn = factory_.MakeTransfer(0, 0, 0, 1, 100, 500);
  ledger_.RegisterInjection(txn);
  for (const auto& sub : txn.subs()) {
    ledger_.ApplyConfirm(txn.id(), sub, /*commit=*/false, 3);
  }
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.store(map_.OwnerOf(0)).BalanceOf(0), 1000);
  for (const auto& chain : ledger_.chains()) EXPECT_TRUE(chain.empty());
}

TEST_F(CommitLedgerTest, PendingCountsUnresolved) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {1});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  EXPECT_EQ(ledger_.pending(), 2u);
  ledger_.ApplyConfirm(t0.id(), t0.subs()[0], true, 1);
  EXPECT_EQ(ledger_.pending(), 1u);
}

TEST_F(CommitLedgerTest, LatencyRecordedAtLastSub) {
  const auto txn = factory_.MakeTouch(0, /*injected=*/10, {0, 1});
  ledger_.RegisterInjection(txn);
  ledger_.ApplyConfirm(txn.id(), txn.subs()[0], true, 20);
  EXPECT_EQ(ledger_.latency().resolved(), 0u);
  ledger_.ApplyConfirm(txn.id(), txn.subs()[1], true, 31);
  EXPECT_EQ(ledger_.latency().resolved(), 1u);
  EXPECT_DOUBLE_EQ(ledger_.latency().average_latency(), 21.0);
}

/// The round epilogue's journal drain with `parts` partitions, applied
/// last partition first.
void DrainJournal(CommitLedger& ledger, Round round, std::uint32_t parts) {
  ledger.SealJournal(round, parts);
  for (std::uint32_t part = parts; part-- > 0;) {
    ledger.ResolveSealedPartition(part, round);
  }
  ledger.FinishSealedRound(round);
}

TEST_F(CommitLedgerTest, PartitionedJournalMatchesOnePartition) {
  // Two identical deferred-confirm rounds: one drained with a single
  // partition (what a serial round runs), the other with several
  // partitions applied out of order. Every counter and the
  // (order-sensitive) latency mean must agree bit-for-bit.
  CommitLedger one_part(map_, 1000);
  CommitLedger partitioned(map_, 1000);

  const auto a = factory_.MakeTouch(0, /*injected=*/0, {0, 1, 2});
  const auto b = factory_.MakeTouch(1, /*injected=*/1, {3});
  const auto c = factory_.MakeTouch(2, /*injected=*/1, {1, 3});
  const auto d = factory_.MakeTouch(3, /*injected=*/2, {3});
  for (CommitLedger* ledger : {&one_part, &partitioned}) {
    for (const auto* txn : {&a, &b, &c, &d}) {
      ledger->RegisterInjection(*txn);
    }
    // Round 4: a fully commits, b aborts, c resolves only its shard-3 sub
    // (with an abort vote) — c stays pending into round 5 — and d commits
    // on shard 3, which so far saw only aborts this round.
    for (const auto& sub : a.subs()) {
      ledger->ApplyConfirmDeferred(a.id(), sub, /*commit=*/true, 4);
    }
    ledger->ApplyConfirmDeferred(b.id(), b.subs()[0], /*commit=*/false, 4);
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[1], /*commit=*/false, 4);
    ledger->ApplyConfirmDeferred(d.id(), d.subs()[0], /*commit=*/true, 4);
  }
  DrainJournal(one_part, 4, 1);
  DrainJournal(partitioned, 4, 3);
  // Completions of one round interleave across the partitions: the merge
  // must restore journal order before the latency recorder sees them.
  EXPECT_EQ(one_part.resolved(), 3u);
  EXPECT_EQ(partitioned.resolved(), 3u);

  // Round 5: c's remaining sub arrives and completes the abort.
  for (CommitLedger* ledger : {&one_part, &partitioned}) {
    ledger->ApplyConfirmDeferred(c.id(), c.subs()[0], /*commit=*/false, 5);
  }
  DrainJournal(one_part, 5, 1);
  DrainJournal(partitioned, 5, 2);

  EXPECT_EQ(one_part.resolved(), partitioned.resolved());
  EXPECT_EQ(one_part.committed_txns(), partitioned.committed_txns());
  EXPECT_EQ(one_part.aborted_txns(), partitioned.aborted_txns());
  EXPECT_EQ(one_part.pending(), partitioned.pending());
  EXPECT_EQ(one_part.committed_txns(), 2u);
  EXPECT_EQ(one_part.aborted_txns(), 2u);
  for (const auto* txn : {&a, &b, &c, &d}) {
    EXPECT_TRUE(one_part.IsResolved(txn->id()));
    EXPECT_TRUE(partitioned.IsResolved(txn->id()));
  }
  EXPECT_DOUBLE_EQ(one_part.latency().average_latency(),
                   partitioned.latency().average_latency());
  EXPECT_DOUBLE_EQ(one_part.latency().max_latency(),
                   partitioned.latency().max_latency());
}

TEST_F(CommitLedgerTest, SealedJournalSupportsMorePartitionsThanEntries) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  ledger_.ApplyConfirmDeferred(txn.id(), txn.subs()[0], /*commit=*/true, 1);
  ledger_.SealJournal(/*round=*/1, /*parts=*/8);
  for (std::uint32_t part = 0; part < 8; ++part) {
    ledger_.ResolveSealedPartition(part, 1);
  }
  ledger_.FinishSealedRound(1);
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
}

TEST_F(CommitLedgerTest, MixedDecisionCountsAsAborted) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(txn);
  ledger_.ApplyConfirm(txn.id(), txn.subs()[0], false, 1);
  ledger_.ApplyConfirm(txn.id(), txn.subs()[1], false, 2);
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.committed_txns(), 0u);
}

using CommitLedgerDeathTest = CommitLedgerTest;

TEST_F(CommitLedgerDeathTest, DoubleRegisterAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  EXPECT_DEATH(ledger_.RegisterInjection(txn), "twice");
}

TEST_F(CommitLedgerDeathTest, UnitShardCapacityEnforced) {
  const auto t0 = factory_.MakeTouch(0, 0, {0});
  const auto t1 = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  ledger_.ApplyConfirm(t0.id(), t0.subs()[0], true, /*round=*/7);
  // Second commit on the same shard in the same round must abort.
  EXPECT_DEATH(ledger_.ApplyConfirm(t1.id(), t1.subs()[0], true, 7),
               "two commits");
}

TEST_F(CommitLedgerDeathTest, StaleCommitDetected) {
  // t0 drains the balance; committing t1 (whose withdraw was valid at vote
  // time but no longer is) must trip the stale-state check.
  const auto t0 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  const auto t1 = factory_.MakeTransfer(0, 0, 0, 1, 1000, 0);
  ledger_.RegisterInjection(t0);
  ledger_.RegisterInjection(t1);
  for (const auto& sub : t0.subs()) {
    ledger_.ApplyConfirm(t0.id(), sub, true, 1);
  }
  for (const auto& sub : t1.subs()) {
    if (sub.destination == map_.OwnerOf(0)) {
      EXPECT_DEATH(ledger_.ApplyConfirm(t1.id(), sub, true, 2), "stale");
    }
  }
}

TEST_F(CommitLedgerDeathTest, ConfirmForUnknownTxnAborts) {
  const auto txn = factory_.MakeTouch(0, 0, {0});
  EXPECT_DEATH(ledger_.ApplyConfirm(txn.id(), txn.subs()[0], true, 1),
               "unregistered");
}

}  // namespace
}  // namespace stableshard::core
