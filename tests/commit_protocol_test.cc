// Protocol-level tests for CommitProtocol, driving it directly (no
// scheduler): vote/confirm round trips, early aborts, pinned-mode retract
// handshake, pipelined-mode ordering with the height-stability gate, and
// reschedule height updates.
#include <gtest/gtest.h>

#include <vector>

#include "chain/account_map.h"
#include "core/commit_ledger.h"
#include "core/commit_protocol.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"
#include "txn/txn_factory.h"

namespace stableshard::core {
namespace {

class CommitProtocolTest : public ::testing::Test {
 protected:
  static constexpr ShardId kShards = 4;

  explicit CommitProtocolTest(CommitMode mode = CommitMode::kPinned)
      : map_(chain::AccountMap::RoundRobin(kShards, kShards)),
        metric_(kShards),
        network_(metric_),
        outbox_(kShards),
        ledger_(map_, 1000),
        protocol_(kShards, outbox_, ledger_,
                  [this](TxnId id, std::uint32_t cluster, bool committed) {
                    (void)cluster;
                    decided_.emplace_back(id, committed);
                  },
                  mode),
        factory_(map_) {}

  /// Run one synchronous round: deliver + vote + the one-partition round
  /// epilogue (the equivalent of BeginRound / StepShard* / EndRound).
  void Step() {
    for (auto& envelope : network_.Deliver(round_)) {
      ASSERT_TRUE(
          protocol_.HandleMessage(envelope.to, envelope.payload, round_));
    }
    protocol_.IssueVotes(round_);
    outbox_.Seal();
    network_.flush_cap.Acquire();  // annotation-only, no runtime effect
    outbox_.FlushSealedTo(network_, round_, 0, kShards);
    outbox_.FinishSealedFlush(network_);
    ledger_.SealJournal(round_, /*parts=*/1);
    ledger_.ResolveSealedPartition(0, round_);
    ledger_.FinishSealedRound(round_);
    ++round_;
  }

  void Schedule(const txn::Transaction& txn, Height height,
                ShardId coordinator) {
    protocol_.Coordinate(coordinator, txn, 0);
    for (const auto& sub : txn.subs()) {
      protocol_.SendSubTxn(coordinator, txn, sub, height, 0, false);
    }
  }

  void RunUntilIdle(Round cap = 200) {
    const Round limit = round_ + cap;
    while (!protocol_.Idle() && round_ < limit) Step();
  }

  chain::AccountMap map_;
  net::UniformMetric metric_;
  net::Network<Message> network_;
  net::OutboxSet<Message> outbox_;
  CommitLedger ledger_;
  CommitProtocol protocol_;
  txn::TxnFactory factory_;
  std::vector<std::pair<TxnId, bool>> decided_;
  Round round_ = 0;
};

class PinnedProtocolTest : public CommitProtocolTest {};

TEST_F(PinnedProtocolTest, SingleTxnCommits) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(txn);
  Schedule(txn, Height{0, 0, 0, 0, txn.id()}, /*coordinator=*/0);
  RunUntilIdle();
  EXPECT_TRUE(protocol_.Idle());
  EXPECT_TRUE(ledger_.IsResolved(txn.id()));
  EXPECT_EQ(ledger_.committed_txns(), 1u);
  ASSERT_EQ(decided_.size(), 1u);
  EXPECT_TRUE(decided_[0].second);
}

TEST_F(PinnedProtocolTest, FailingConditionAborts) {
  const auto txn = factory_.MakeTransfer(0, 0, /*from=*/0, /*to=*/1,
                                         /*amount=*/1, /*min=*/10'000'000);
  ledger_.RegisterInjection(txn);
  Schedule(txn, Height{0, 0, 0, 0, txn.id()}, 0);
  RunUntilIdle();
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.committed_txns(), 0u);
  ASSERT_EQ(decided_.size(), 1u);
  EXPECT_FALSE(decided_[0].second);
}

TEST_F(PinnedProtocolTest, ConflictingTxnsSerializeByHeight) {
  // Both touch accounts 0 and 1; lower height must commit first everywhere.
  const auto hi = factory_.MakeTouch(0, 0, {0, 1});
  const auto lo = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(hi);
  ledger_.RegisterInjection(lo);
  Schedule(hi, Height{10, 0, 0, 0, hi.id()}, 0);
  Schedule(lo, Height{5, 0, 0, 0, lo.id()}, 1);
  RunUntilIdle();
  EXPECT_EQ(ledger_.committed_txns(), 2u);
  // The per-shard chains must order lo before hi on both shards.
  for (const ShardId shard : {0u, 1u}) {
    const auto& blocks = ledger_.chains()[shard].blocks();
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].txn, lo.id());
    EXPECT_EQ(blocks[1].txn, hi.id());
  }
}

TEST_F(PinnedProtocolTest, RetractResolvesPriorityInversion) {
  // hi gets pinned first at both shards; then lo (smaller height) arrives
  // and must preempt via the retract handshake.
  const auto hi = factory_.MakeTouch(0, 0, {0, 1});
  const auto lo = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(hi);
  ledger_.RegisterInjection(lo);
  Schedule(hi, Height{10, 0, 0, 0, hi.id()}, 0);
  Step();  // hi arrives and is pinned at both destinations
  Step();
  EXPECT_EQ(protocol_.pinned_count(), 2u);
  Schedule(lo, Height{5, 0, 0, 0, lo.id()}, 1);
  RunUntilIdle();
  EXPECT_EQ(ledger_.committed_txns(), 2u);
  EXPECT_TRUE(protocol_.Idle());
}

class PipelinedProtocolTest : public CommitProtocolTest {
 protected:
  PipelinedProtocolTest() : CommitProtocolTest(CommitMode::kPipelined) {}
};

TEST_F(PipelinedProtocolTest, SingleTxnCommits) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1, 2});
  ledger_.RegisterInjection(txn);
  Schedule(txn, Height{0, 0, 0, 0, txn.id()}, 0);
  RunUntilIdle();
  EXPECT_TRUE(protocol_.Idle());
  EXPECT_EQ(ledger_.committed_txns(), 1u);
}

TEST_F(PipelinedProtocolTest, OneNewVotePerRoundPerShard) {
  // Three conflicting txns on one shard: votes go out one per round.
  std::vector<txn::Transaction> txns;
  for (int i = 0; i < 3; ++i) {
    txns.push_back(factory_.MakeTouch(0, 0, {0}));
    ledger_.RegisterInjection(txns.back());
    Schedule(txns.back(),
             Height{0, 0, 0, static_cast<Color>(i), txns.back().id()}, 0);
  }
  Step();  // arrivals
  const auto before = network_.stats().messages_sent;
  Step();  // exactly one vote leaves shard 0
  // one vote message (plus any confirms in flight from earlier rounds).
  EXPECT_GE(network_.stats().messages_sent, before + 1);
  RunUntilIdle();
  EXPECT_EQ(ledger_.committed_txns(), 3u);
  // Commit order == height (color) order on the shared shard.
  const auto& blocks = ledger_.chains()[0].blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].txn, txns[0].id());
  EXPECT_EQ(blocks[1].txn, txns[1].id());
  EXPECT_EQ(blocks[2].txn, txns[2].id());
}

TEST_F(PipelinedProtocolTest, HeightStabilityGateDelaysCommit) {
  // An entry with t_end = 20 must not commit before round 20 even if its
  // confirm arrives much earlier.
  const auto txn = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(txn);
  Schedule(txn, Height{20, 0, 0, 0, txn.id()}, 0);
  while (round_ < 20) {
    Step();
    EXPECT_EQ(ledger_.committed_txns(), 0u)
        << "committed before the t_end gate at round " << round_;
  }
  RunUntilIdle();
  EXPECT_EQ(ledger_.committed_txns(), 1u);
}

TEST_F(PipelinedProtocolTest, LateLowerHeightOrdersBeforeGatedCommit) {
  // fast is decided quickly but gated to t_end = 30; slow arrives later
  // with a smaller height and must commit first on the shared shard.
  const auto fast = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(fast);
  Schedule(fast, Height{30, 0, 0, 5, fast.id()}, 0);
  Step();
  Step();
  Step();
  const auto slow = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(slow);
  Schedule(slow, Height{30, 0, 0, 1, slow.id()}, 1);
  RunUntilIdle();
  EXPECT_EQ(ledger_.committed_txns(), 2u);
  const auto& blocks = ledger_.chains()[0].blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].txn, slow.id());
  EXPECT_EQ(blocks[1].txn, fast.id());
}

TEST_F(PipelinedProtocolTest, RescheduleUpdatesOrdering) {
  const auto a = factory_.MakeTouch(0, 0, {0});
  const auto b = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(a);
  ledger_.RegisterInjection(b);
  // Initially a < b. We reschedule a *behind* b before any vote resolves.
  Schedule(a, Height{40, 0, 0, 0, a.id()}, 0);
  Schedule(b, Height{40, 0, 0, 1, b.id()}, 0);
  Step();  // arrivals
  // Height update: a moves to color 2 (behind b).
  for (const auto& sub : a.subs()) {
    protocol_.SendSubTxn(0, a, sub, Height{40, 0, 0, 2, a.id()}, 0,
                         /*update=*/true);
  }
  RunUntilIdle(300);
  EXPECT_EQ(ledger_.committed_txns(), 2u);
  const auto& blocks = ledger_.chains()[0].blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].txn, b.id());
  EXPECT_EQ(blocks[1].txn, a.id());
}

TEST_F(PipelinedProtocolTest, AbortsPopWithoutBlockingQueue) {
  const auto bad = factory_.MakeTransfer(0, 0, 0, 1, 1, 10'000'000);
  const auto good = factory_.MakeTouch(0, 0, {0});
  ledger_.RegisterInjection(bad);
  ledger_.RegisterInjection(good);
  Schedule(bad, Height{0, 0, 0, 0, bad.id()}, 0);
  Schedule(good, Height{0, 0, 0, 1, good.id()}, 0);
  RunUntilIdle();
  EXPECT_EQ(ledger_.aborted_txns(), 1u);
  EXPECT_EQ(ledger_.committed_txns(), 1u);
  EXPECT_TRUE(protocol_.Idle());
}

TEST_F(PipelinedProtocolTest, QueueIntrospection) {
  const auto txn = factory_.MakeTouch(0, 0, {0, 1});
  ledger_.RegisterInjection(txn);
  Schedule(txn, Height{50, 0, 0, 0, txn.id()}, 0);
  Step();  // round 0: nothing in flight yet (unit delay)
  Step();  // round 1: arrivals
  EXPECT_EQ(protocol_.queued_subtxns(), 2u);
  EXPECT_EQ(protocol_.queue_size(0), 1u);
  EXPECT_EQ(protocol_.queue_size(1), 1u);
  EXPECT_EQ(protocol_.coordinated_unresolved(), 1u);
}

}  // namespace
}  // namespace stableshard::core
