#include "core/commit_protocol.h"

#include "common/check.h"

namespace stableshard::core {

CommitProtocol::CommitProtocol(ShardId shards,
                               net::OutboxSet<Message>& outbox,
                               CommitLedger& ledger,
                               DecidedCallback on_decided, CommitMode mode)
    : outbox_(&outbox),
      ledger_(&ledger),
      on_decided_(std::move(on_decided)),
      mode_(mode),
      queues_(shards),
      coordinating_(shards) {}

bool CommitProtocol::Idle() const {
  for (const auto& slice : coordinating_) {
    if (!slice.empty()) return false;
  }
  for (const DestinationQueue& queue : queues_) {
    if (!queue.entries.empty()) return false;
  }
  return true;
}

std::uint64_t CommitProtocol::queued_subtxns() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) count += queue.queued;
  return count;
}

std::uint64_t CommitProtocol::busy_destinations() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) {
    if (!queue.entries.empty()) ++count;
  }
  return count;
}

std::uint64_t CommitProtocol::pinned_count() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) {
    if (queue.pinned.has_value()) ++count;
  }
  return count;
}

std::uint64_t CommitProtocol::coordinated_unresolved() const {
  std::uint64_t count = 0;
  for (const auto& slice : coordinating_) count += slice.size();
  return count;
}

std::uint64_t CommitProtocol::retracts_sent() const {
  std::uint64_t count = 0;
  for (const DestinationQueue& queue : queues_) count += queue.retracts;
  return count;
}

void CommitProtocol::Coordinate(ShardId coordinator,
                                const txn::Transaction& txn,
                                std::uint32_t cluster) {
  PendingCommit pending;
  pending.txn = txn;
  pending.cluster = cluster;
  coordinating_[coordinator].emplace(txn.id(), std::move(pending));
}

void CommitProtocol::SendSubTxn(ShardId coordinator,
                                const txn::Transaction& txn,
                                const txn::SubTransaction& sub, Height height,
                                std::uint32_t cluster, bool update) {
  auto& slice = coordinating_[coordinator];
  const auto it = slice.find(txn.id());
  if (it != slice.end()) it->second.current_height = height;
  SubTxnMsg msg;
  msg.txn = txn.id();
  msg.cluster = cluster;
  msg.coordinator = coordinator;
  msg.height = height;
  msg.update = update;
  msg.sub = sub;
  outbox_->Send(coordinator, sub.destination, Message{std::move(msg)});
}

void CommitProtocol::Decide(ShardId coordinator, PendingCommit& pending,
                            bool commit) {
  pending.decided = true;
  for (const txn::SubTransaction& sub : pending.txn.subs()) {
    ConfirmMsg confirm;
    confirm.txn = pending.txn.id();
    confirm.cluster = pending.cluster;
    confirm.commit = commit;
    confirm.height = pending.current_height;
    outbox_->Send(coordinator, sub.destination, Message{confirm});
  }
  if (on_decided_) on_decided_(pending.txn.id(), pending.cluster, commit);
}

void CommitProtocol::MaybeRequestRetract(ShardId dest) {
  DestinationQueue& queue = queues_[dest];
  if (!queue.pinned.has_value() || queue.retract_outstanding) return;
  const auto pinned_it = queue.index.find(*queue.pinned);
  SSHARD_CHECK(pinned_it != queue.index.end());
  const Height& head = queue.entries.begin()->first;
  if (head < pinned_it->second) {
    // A higher-priority subtransaction overtook the pinned one: ask its
    // coordinator for permission to withdraw our vote.
    const Entry& pinned_entry = queue.entries.at(pinned_it->second);
    RetractRequestMsg request;
    request.txn = *queue.pinned;
    request.cluster = pinned_entry.cluster;
    request.dest = dest;
    outbox_->Send(dest, pinned_entry.coordinator, Message{request});
    queue.retract_outstanding = true;
    ++queue.retracts;
  }
}

bool CommitProtocol::HandleMessage(ShardId to, Message& message,
                                   Round round) {
  if (auto* sub_msg = std::get_if<SubTxnMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    auto index_it = queue.index.find(sub_msg->txn);
    if (sub_msg->update) {
      // FDS reschedule: refresh the height of a still-queued entry. Entries
      // already confirmed (popped) simply ignore the update.
      if (index_it != queue.index.end() &&
          index_it->second != sub_msg->height) {
        auto node = queue.entries.extract(index_it->second);
        const bool was_unvoted = queue.unvoted.erase(index_it->second) > 0;
        node.key() = sub_msg->height;
        queue.entries.insert(std::move(node));
        if (was_unvoted) queue.unvoted.insert(sub_msg->height);
        index_it->second = sub_msg->height;
      }
    } else {
      SSHARD_CHECK(index_it == queue.index.end() &&
                   "duplicate schedule of a subtransaction");
      Entry entry;
      entry.txn = sub_msg->txn;
      entry.cluster = sub_msg->cluster;
      entry.coordinator = sub_msg->coordinator;
      entry.sub = std::move(sub_msg->sub);
      queue.entries.emplace(sub_msg->height, std::move(entry));
      queue.index.emplace(sub_msg->txn, sub_msg->height);
      if (mode_ == CommitMode::kPipelined) {
        queue.unvoted.insert(sub_msg->height);
      }
      ++queue.queued;
    }
    if (mode_ == CommitMode::kPinned) MaybeRequestRetract(to);
    return true;
  }

  if (auto* vote = std::get_if<VoteMsg>(&message)) {
    auto& slice = coordinating_[to];
    auto it = slice.find(vote->txn);
    if (it == slice.end() || it->second.decided) {
      return true;  // stale vote after decision — ignore
    }
    PendingCommit& pending = it->second;
    pending.votes[vote->dest] = vote->commit;
    if (!vote->commit) {
      // Early abort: one abort vote settles the outcome.
      Decide(to, pending, /*commit=*/false);
      slice.erase(it);
    } else if (pending.votes.size() == pending.txn.destinations().size()) {
      Decide(to, pending, /*commit=*/true);
      slice.erase(it);
    }
    return true;
  }

  if (auto* confirm = std::get_if<ConfirmMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    const auto index_it = queue.index.find(confirm->txn);
    SSHARD_CHECK(index_it != queue.index.end() &&
                 "confirm for an unknown queue entry");
    const auto entry_it = queue.entries.find(index_it->second);
    SSHARD_CHECK(entry_it != queue.entries.end());
    if (mode_ == CommitMode::kPipelined) {
      // Aborts write nothing: their position is irrelevant, pop at once.
      if (!confirm->commit) {
        queue.unvoted.erase(index_it->second);
        ledger_->ApplyConfirmDeferred(confirm->txn, entry_it->second.sub,
                                      /*commit=*/false, round);
        queue.entries.erase(entry_it);
        queue.index.erase(index_it);
        --queue.queued;
        return true;
      }
      // Commits: re-key the entry to the coordinator's final height so all
      // shards agree on its position, then let ApplyDecidedInOrder pop it
      // in queue order (one commit per shard per round).
      if (index_it->second != confirm->height) {
        auto node = queue.entries.extract(index_it->second);
        node.key() = confirm->height;
        queue.entries.insert(std::move(node));
        index_it->second = confirm->height;
      }
      queue.entries.at(confirm->height).decision = true;
      return true;
    }
    if (confirm->commit) {
      // Commit confirms only reach shards that voted and are still pinned
      // (the retract handshake never releases a pin that has a decision in
      // flight), so the vote-time evaluation is still valid.
      SSHARD_CHECK(queue.pinned.has_value() &&
                   *queue.pinned == confirm->txn &&
                   "commit confirm for unpinned entry");
    }
    ledger_->ApplyConfirmDeferred(confirm->txn, entry_it->second.sub,
                                  confirm->commit, round);
    queue.entries.erase(entry_it);
    queue.index.erase(index_it);
    --queue.queued;
    if (queue.pinned.has_value() && *queue.pinned == confirm->txn) {
      queue.pinned.reset();
      queue.retract_outstanding = false;
    }
    return true;
  }

  if (auto* request = std::get_if<RetractRequestMsg>(&message)) {
    auto& slice = coordinating_[to];
    auto it = slice.find(request->txn);
    if (it == slice.end() || it->second.decided) {
      return true;  // decision already in flight; the confirm wins
    }
    it->second.votes.erase(request->dest);
    RetractAckMsg ack;
    ack.txn = request->txn;
    ack.cluster = request->cluster;
    outbox_->Send(to, request->dest, Message{ack});
    return true;
  }

  if (auto* ack = std::get_if<RetractAckMsg>(&message)) {
    DestinationQueue& queue = queues_[to];
    // Only honor the ack if we are still pinned on that transaction (a
    // racing confirm may already have cleared the pin).
    if (queue.pinned.has_value() && *queue.pinned == ack->txn) {
      queue.pinned.reset();
      queue.retract_outstanding = false;
    }
    return true;
  }

  return false;
}

void CommitProtocol::ApplyDecidedInOrder(ShardId dest, Round round) {
  DestinationQueue& queue = queues_[dest];
  if (queue.entries.empty()) return;
  auto head = queue.entries.begin();
  Entry& entry = head->second;
  if (!entry.decision.has_value()) return;
  SSHARD_DCHECK(*entry.decision);  // aborts were popped on confirm arrival
  // Height-stability gate: schedule messages for an epoch always arrive
  // before the epoch's end (t_end), so from round t_end onward no entry
  // with a smaller-or-equal t_end — and hence no smaller height — can still
  // arrive. Applying only after the gate keeps the per-shard apply order
  // identical to the global height order (cross-shard serializability).
  if (round < head->first.t_end) return;
  ledger_->ApplyConfirmDeferred(entry.txn, entry.sub, /*commit=*/true, round);
  queue.unvoted.erase(head->first);
  queue.index.erase(entry.txn);
  queue.entries.erase(head);
  --queue.queued;
}

void CommitProtocol::IssueVotesForShard(ShardId dest, Round round) {
  DestinationQueue& queue = queues_[dest];
  if (mode_ == CommitMode::kPipelined) {
    // Algorithm 2b Step 1: pick one subtransaction per round and vote.
    if (!queue.unvoted.empty()) {
      const Height height = *queue.unvoted.begin();
      queue.unvoted.erase(queue.unvoted.begin());
      auto it = queue.entries.find(height);
      SSHARD_CHECK(it != queue.entries.end());
      Entry& entry = it->second;
      entry.voted = true;
      VoteMsg vote;
      vote.txn = entry.txn;
      vote.cluster = entry.cluster;
      vote.dest = dest;
      vote.commit = ledger_->EvaluateSub(entry.sub);
      outbox_->Send(dest, entry.coordinator, Message{vote});
    }
    ApplyDecidedInOrder(dest, round);
    return;
  }

  if (queue.pinned.has_value() || queue.entries.empty()) return;
  const auto head = queue.entries.begin();
  const Entry& entry = head->second;
  VoteMsg vote;
  vote.txn = entry.txn;
  vote.cluster = entry.cluster;
  vote.dest = dest;
  vote.commit = ledger_->EvaluateSub(entry.sub);
  outbox_->Send(dest, entry.coordinator, Message{vote});
  queue.pinned = entry.txn;
}

void CommitProtocol::IssueVotes(Round round) {
  for (ShardId dest = 0; dest < queues_.size(); ++dest) {
    IssueVotesForShard(dest, round);
  }
}

}  // namespace stableshard::core
