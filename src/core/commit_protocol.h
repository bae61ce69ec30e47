// Priority-ordered distributed commit protocol (Algorithm 2b, generalized).
//
// Destination shards keep a schedule queue (schqd) of subtransactions
// sorted by Height; every round each shard serves the head of its queue:
//
//   Step 1  the destination evaluates the head's conditions/validity and
//           sends a commit/abort vote to the transaction's coordinator
//           (cluster leader in FDS, home shard in Direct); the entry
//           becomes *pinned* — the shard serves nothing else until the
//           coordinator answers, which keeps the vote-time evaluation valid
//           (no other commit can intervene on this shard) and enforces the
//           one-subtransaction-per-shard-per-round capacity.
//   Step 2  the coordinator collects votes; with all commit votes it sends
//           confirmed-commit to every destination, on any abort vote it
//           sends confirmed-abort immediately, and removes the transaction
//           from its schedule queue (sch_ldr).
//   Step 3  destinations apply the decision, pop the entry, and unpin.
//
// Deadlock freedom — the retract handshake. Pinning introduces a hazard the
// paper leaves implicit: shard q1 may pin transaction T while shard q2 has
// already pinned a conflicting U with T < U in the global height order
// (possible when T's schedule message travels farther). Each coordinator
// then waits for the other shard's vote forever. We resolve it with an
// explicit handshake that mimics what a real system's lock-priority
// mechanism would do: when an entry with *smaller* height than the pinned
// one arrives, the destination sends RetractRequest to the pinned
// transaction's coordinator and keeps the pin until the answer arrives. If
// the coordinator has not yet decided, it discards the vote and grants
// RetractAck — the destination unpins and serves the smaller entry. If the
// coordinator already decided, the confirm is in flight and wins (the
// destination keeps the pin, so vote-time validity still holds). Because
// heights are a total order, the globally smallest pending transaction
// always makes progress, so the protocol is live.
//
// Shard-parallel rounds: all protocol state is partitioned by shard —
// destination queues by the destination shard, coordinator records
// (sch_ldr) by the coordinating shard — and every send goes through the
// acting shard's OutboxSet lane. HandleMessage(to, ...) and
// IssueVotesForShard(shard, ...) therefore touch only shard `to`/`shard`
// state (plus CommitLedger::ApplyConfirmDeferred, which is itself
// shard-local), so the embedding scheduler may run them concurrently for
// distinct shards inside StepShard.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/height.h"
#include "core/messages.h"
#include "net/outbox.h"
#include "txn/transaction.h"

namespace stableshard::core {

/// Destination-side commit discipline.
///
/// kPinned — a destination votes only for its queue head and serves nothing
/// else until the coordinator answers (vote-time evaluation stays valid for
/// arbitrary workloads; throughput 1 commit per ~2d+1 rounds per shard;
/// needs the retract handshake for liveness).
///
/// kPipelined — the paper's literal Algorithm 2b: every round each
/// destination votes for its first *unvoted* entry (one new vote per
/// round), decisions are recorded as they arrive, and entries are applied
/// strictly in queue order, at most one commit per shard per round. This
/// reaches ~1 commit per shard per round and is what Figure 3's stability
/// threshold requires. It is sound when a subtransaction's vote cannot be
/// changed by other transactions' commits (true for the paper's workload —
/// unconditional accesses — and for our figure/test strategies, whose only
/// conditions are self-referential constants); the ledger still re-checks
/// validity at apply time and aborts the simulation on a violation rather
/// than committing inconsistently.
enum class CommitMode : std::uint8_t { kPinned, kPipelined };

class CommitProtocol {
 public:
  /// `on_decided(txn_id, cluster, committed)` fires once per transaction
  /// when its coordinator decides (confirm messages sent) — the paper's
  /// moment of removal from sch_ldr; schedulers use it to drop the
  /// transaction from their scheduled sets. It runs in the coordinating
  /// shard's StepShard context, so it may only touch that shard's state.
  using DecidedCallback = std::function<void(TxnId, std::uint32_t, bool)>;

  CommitProtocol(ShardId shards, net::OutboxSet<Message>& outbox,
                 CommitLedger& ledger, DecidedCallback on_decided,
                 CommitMode mode = CommitMode::kPinned);

  /// Coordinator side: shard `coordinator` starts coordinating `txn`
  /// (idempotent per txn). `cluster` tags the coordinating context.
  void Coordinate(ShardId coordinator, const txn::Transaction& txn,
                  std::uint32_t cluster);

  /// Coordinator side: send one subtransaction to its destination (or, with
  /// `update` = true, refresh its height after an FDS reschedule).
  /// `coordinator` is the shard votes must return to.
  void SendSubTxn(ShardId coordinator, const txn::Transaction& txn,
                  const txn::SubTransaction& sub, Height height,
                  std::uint32_t cluster, bool update);

  /// Route one delivered protocol message (SubTxn/Vote/Confirm/Retract*)
  /// addressed to shard `to`. Returns true if the message type belonged to
  /// this protocol. Parallel-safe across distinct `to`.
  bool HandleMessage(ShardId to, Message& message, Round round);

  /// Per-round, per-destination driver: kPinned — vote for the head if
  /// unpinned; kPipelined — vote for the first unvoted entry and apply
  /// decided entries in queue order (<= 1 commit per shard). Call after all
  /// of the shard's deliveries of the round. Parallel-safe across shards.
  void IssueVotesForShard(ShardId dest, Round round);

  /// Serial convenience: IssueVotesForShard for every shard in order.
  void IssueVotes(Round round);

  CommitMode mode() const { return mode_; }

  /// Introspection (serial phases only — these aggregate across shards).
  std::uint64_t queued_subtxns() const;
  std::uint64_t pinned_count() const;
  std::uint64_t coordinated_unresolved() const;
  std::uint64_t retracts_sent() const;
  /// Destinations with a non-empty queue — the shards whose
  /// IssueVotesForShard has a vote or an in-order apply to consider.
  std::uint64_t busy_destinations() const;
  bool Idle() const;

  /// Queue length of one destination shard (tests).
  std::size_t queue_size(ShardId shard) const {
    return queues_[shard].entries.size();
  }

 private:
  struct Entry {
    TxnId txn = kInvalidTxn;
    std::uint32_t cluster = 0;
    ShardId coordinator = kInvalidShard;
    txn::SubTransaction sub;
    bool voted = false;                  // pipelined mode
    std::optional<bool> decision;        // pipelined mode: confirm received
  };

  struct DestinationQueue {
    std::map<Height, Entry> entries;
    std::unordered_map<TxnId, Height> index;  ///< txn -> current height
    // kPinned state:
    std::optional<TxnId> pinned;
    bool retract_outstanding = false;  ///< waiting for ack/confirm
    // kPipelined state: heights not yet voted, served one per round.
    std::set<Height> unvoted;
    // Shard-local counters, aggregated by the serial getters.
    std::uint64_t queued = 0;
    std::uint64_t retracts = 0;
  };

  struct PendingCommit {
    txn::Transaction txn;
    std::uint32_t cluster = 0;
    Height current_height;  ///< latest height assigned (reschedule-aware)
    std::unordered_map<ShardId, bool> votes;
    bool decided = false;
  };

  void Decide(ShardId coordinator, PendingCommit& pending, bool commit);
  void MaybeRequestRetract(ShardId dest);
  void ApplyDecidedInOrder(ShardId dest, Round round);

  net::OutboxSet<Message>* outbox_;
  CommitLedger* ledger_;
  DecidedCallback on_decided_;
  CommitMode mode_;
  std::vector<DestinationQueue> queues_;  // by destination shard
  // sch_ldr, partitioned by coordinating shard so vote/retract handling in
  // StepShard(coordinator) never races another shard's slice.
  std::vector<std::unordered_map<TxnId, PendingCommit>> coordinating_;
};

}  // namespace stableshard::core
