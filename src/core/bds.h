// Algorithm 1: Basic Distributed Scheduler (BDS) for the uniform model.
//
// Time is divided into epochs. Each epoch processes exactly the
// transactions pending at its start and has three phases (Figure 1):
//
//   Phase 1 (1 round)   — every home shard sends its pending transactions
//                         to the epoch's leader shard (rotating:
//                         S_{epoch mod s}).
//   Phase 2 (1 round)   — the leader colors the conflict graph of the
//                         received transactions with at most Delta+1
//                         colors, sends the colors back to the home shards
//                         and broadcasts the color count (which fixes the
//                         epoch length 2 + 4*(#colors)). The graph is never
//                         built: the shard-granularity graph is a union of
//                         per-shard cliques, which txn::ColorShardCliques
//                         colors directly.
//   Phase 3 (4 rounds per color) — for color z (0-based), at offset
//                         2 + 4z the home shards send the subtransactions
//                         of color-z transactions to their destination
//                         shards; destinations vote (commit/abort) back to
//                         the home shard; the home shard confirms; the
//                         destinations commit or abort. Same-color
//                         transactions are shard-disjoint (the coloring is
//                         on the shard-granularity conflict graph), so each
//                         shard commits at most one subtransaction per
//                         round and all subtransactions of a transaction
//                         commit in the same round.
//
// Stability (Theorem 2): for rho <= max{1/(18k), 1/(18*ceil(sqrt(s)))} and
// b >= 1, pending transactions are at most 4bs and latency at most
// 36*b*min{k, ceil(sqrt(s))}.
//
// The implementation exchanges real messages through net::Network with the
// uniform metric (all distances 1), so the phase offsets above are exactly
// the delivery rounds; traffic is accounted per Section 3's O(bs) bound.
//
// Shard-parallel decomposition: every piece of epoch state is owned by one
// shard — injection queues, in-epoch 2PC records and per-color send lists
// by the *home* shard, the coloring inbox by the *leader*, schedule/commit
// residue by the *destination*. BeginRound runs the (serial) epoch
// transition and snapshots the round's phase action; StepShard drains the
// shard's deliveries and executes its slice of the phase; the shared round
// epilogue (core/messaging_scheduler.h) flushes the outbox lanes and the
// ledger journal. Home shards learn their colors from the leader's
// ColorAssignMsg (round offset 2) rather than by peeking at leader state,
// which is what makes Phase 3 shard-local.
//
// Sharded-leader mode (BdsConfig::color_leaders = L > 1): the epoch leader
// still receives every pending transaction and colors the conflict graph
// serially — the coloring is the one genuinely global decision, and keeping
// it on one shard keeps it bit-reproducible. What gets sharded is the
// *commit* role: instead of returning ColorAssignMsg to the home shards,
// the leader ships each whole color class to a deterministic co-leader
// shard (color c -> S_{(leader + 1 + c mod L) mod s}, see CoLeaderFor) via
// ColorClassMsg. The co-leader becomes the Phase-3 coordinator for its
// classes: it sends the subtransactions, collects the votes and confirms —
// so vote fan-in no longer funnels through per-home 2PC records that all
// drained through one epoch pipeline, and consecutive colors run on
// distinct shards. Timing is identical to the legacy path (the class ships
// at offset 1, arrives at offset 2 — exactly when color 0's sends are due,
// and deliveries are handled before phase actions), so commit rounds,
// latencies and counts match the single-leader run bit-for-bit; only the
// message endpoints/counts differ. Every co-leader structure is owned by
// the co-leader shard, so the Debug ownership checker proves the
// decomposition exactly like the legacy one.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/messages.h"
#include "core/messaging_scheduler.h"
#include "net/metric.h"
#include "txn/coloring.h"

namespace stableshard::core {

struct BdsConfig {
  txn::ColoringAlgorithm coloring = txn::ColoringAlgorithm::kGreedy;
  /// Number of co-leader shards the epoch's color classes are partitioned
  /// across (see the sharded-leader mode note above). 1 = the paper's
  /// single-leader Algorithm 1; values above the shard count are clamped.
  /// Must be >= 1 (the constructor dies otherwise).
  std::uint32_t color_leaders = 1;
};

class BdsScheduler final : public MessagingScheduler {
 public:
  BdsScheduler(const net::ShardMetric& metric, CommitLedger& ledger,
               const BdsConfig& config = {});

  void Inject(const txn::Transaction& txn) override;
  void BeginRound(Round round) override;
  std::uint64_t RoundWork(Round round) const override;
  void StepShard(ShardId shard, Round round) override;
  bool Idle() const override;
  common::ArenaMemoryStats ArenaMemory() const override {
    return step_arena_.memory();
  }
  double LeaderQueueMax() const override;
  const char* name() const override {
    return color_leaders_ > 1 ? "bds_sharded" : "bds";
  }

  /// The deterministic color-class -> co-leader mapping of the sharded
  /// mode: color c is coordinated by S_{(leader + 1 + c mod L) mod s}.
  /// Static so tests (ownership death tests included) can reproduce the
  /// ownership boundary without poking scheduler internals.
  static ShardId CoLeaderFor(ShardId leader, Color color,
                             std::uint32_t color_leaders, ShardId shards) {
    return static_cast<ShardId>(
        (static_cast<std::uint64_t>(leader) + 1 + color % color_leaders) %
        shards);
  }

  /// Introspection for tests / benches.
  std::uint64_t epoch_index() const { return epoch_index_; }
  ShardId current_leader() const { return leader_; }
  std::uint32_t color_leaders() const { return color_leaders_; }
  std::uint32_t last_epoch_colors() const { return num_colors_; }
  std::uint64_t max_epoch_length() const { return max_epoch_length_; }
  std::uint64_t pending_in_queues() const;

 private:
  struct InFlightTxn {
    txn::Transaction txn;
    Color color = 0;
    std::uint32_t commit_votes = 0;
    std::uint32_t abort_votes = 0;
  };

  /// Per-home-shard epoch state: the 2PC records the home shard drives plus
  /// its slice of the per-color send schedule (rebuilt each epoch from the
  /// leader's ColorAssignMsg). Unused in the sharded-leader mode, where the
  /// co-leaders coordinate instead of the homes.
  struct HomeState {
    std::unordered_map<TxnId, InFlightTxn> in_epoch;
    std::vector<std::vector<TxnId>> by_color;
  };

  /// Per-co-leader epoch state (sharded-leader mode only): the color
  /// classes received from the epoch leader and awaiting their Phase-3
  /// slot, plus the 2PC records of the classes currently in flight. Owned
  /// by the co-leader shard — only its StepShard may touch it.
  struct CoLeaderState {
    std::unordered_map<Color, std::vector<txn::Transaction>> by_color;
    std::unordered_map<TxnId, InFlightTxn> in_flight;
  };

  /// What this round does, decided serially in BeginRound.
  enum class Phase : std::uint8_t { kNone, kShipPending, kLeaderColor };

  void ShipPending(ShardId home);
  void LeaderColorAndReply(Round round);
  void SendSubTxnsForColor(ShardId home, Color color);
  void CoLeaderSendColor(ShardId shard, Color color);
  void CollectVote(std::unordered_map<TxnId, InFlightTxn>& records,
                   const VoteMsg& vote, ShardId shard);
  void HandleMessage(ShardId shard, ShardId from, Message& message,
                     Round round);

  const net::ShardMetric* metric_;
  BdsConfig config_;

  // Home-shard injection queues (new transactions awaiting the next epoch).
  std::vector<std::deque<txn::Transaction>> pending_;

  // Epoch state (written serially in BeginRound, except num_colors_ /
  // epoch_end_ / max_epoch_length_, which only the leader's StepShard
  // writes at offset 1 and only serial phases read afterwards).
  std::uint64_t epoch_index_ = 0;
  Round epoch_start_ = 0;
  Round epoch_end_ = kNoRound;  ///< known after Phase 2
  ShardId leader_ = 0;
  std::uint32_t num_colors_ = 0;
  std::uint64_t max_epoch_length_ = 0;

  // Round plan snapshot (BeginRound output, read-only during StepShard).
  Phase phase_ = Phase::kNone;
  std::optional<Color> send_color_;

  // Leader-side: transactions received in Phase 1 of the current epoch.
  std::vector<txn::Transaction> leader_inbox_;

  /// Phase-2 scratch arena: the coloring view and the coloring's internal
  /// bitsets/ordering are bump-allocated here and recycled wholesale.
  /// Only one shard (the epoch leader) colors per round, so a single arena
  /// reset at the top of LeaderColorAndReply respects the StepShard
  /// ownership contract — resets happen only on coloring rounds, so the
  /// high-water decay tracks epochs, not idle rounds.
  common::Arena step_arena_;

  // Home-shard side, indexed by home shard.
  std::vector<HomeState> home_;

  // Co-leader side, indexed by shard (sharded-leader mode only; the
  // vector is allocated either way so indexing is branch-free).
  std::vector<CoLeaderState> co_;
  std::uint32_t color_leaders_ = 1;  ///< effective L (clamped to s)

  // Destination-shard side: subtransactions received and awaiting confirm.
  std::vector<std::unordered_map<TxnId, txn::SubTransaction>> dest_pending_;
};

}  // namespace stableshard::core
