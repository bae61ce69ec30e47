#include "core/commit_ledger.h"

#include "common/check.h"

namespace stableshard::core {

CommitLedger::CommitLedger(const chain::AccountMap& map,
                           chain::Balance initial_balance)
    : map_(&map),
      initial_balance_(initial_balance),
      last_commit_round_(map.shard_count(), kNoRound),
      journal_(map.shard_count()) {
  stores_.reserve(map.shard_count());
  chains_.reserve(map.shard_count());
  for (ShardId shard = 0; shard < map.shard_count(); ++shard) {
    stores_.emplace_back(initial_balance);
    chains_.emplace_back(shard);
  }
}

void CommitLedger::AttachWal(durability::WalManager* wal) {
  SSHARD_CHECK(wal != nullptr);
  SSHARD_CHECK(wal->shard_count() == stores_.size() &&
               "WAL shard count mismatch");
  SSHARD_CHECK(wal_ == nullptr && "WAL already attached");
  wal_ = wal;
}

void CommitLedger::ResetShardForRecovery(ShardId shard) {
  SSHARD_CHECK(shard < stores_.size());
  SSHARD_CHECK(journal_[shard].empty() &&
               "crash with an undrained journal: crash points are round "
               "boundaries");
  stores_[shard] = chain::AccountStore(initial_balance_);
  chains_[shard] = chain::LocalChain(shard);
  last_commit_round_[shard] = kNoRound;
}

void CommitLedger::RegisterInjection(const txn::Transaction& txn) {
  TxnRecord record;
  record.injected = txn.injected();
  record.remaining = static_cast<std::uint32_t>(txn.subs().size());
  const auto [it, inserted] = records_.emplace(txn.id(), record);
  (void)it;
  SSHARD_CHECK(inserted && "transaction registered twice");
  ++registered_;
}

bool CommitLedger::EvaluateSub(const txn::SubTransaction& sub) const {
  SSHARD_DCHECK(sub.destination < stores_.size());
  const chain::AccountStore& store = stores_[sub.destination];
  for (const chain::Condition& condition : sub.conditions) {
    SSHARD_DCHECK(map_->OwnerOf(condition.account) == sub.destination);
    if (!store.Check(condition)) return false;
  }
  for (const chain::Action& action : sub.actions) {
    SSHARD_DCHECK(map_->OwnerOf(action.account) == sub.destination);
    if (!store.IsValid(action)) return false;
  }
  return true;
}

bool CommitLedger::ApplyConfirm(TxnId txn, const txn::SubTransaction& sub,
                                bool commit, Round round) {
  const auto it = records_.find(txn);
  SSHARD_CHECK(it != records_.end() && "confirm for unregistered txn");
  SSHARD_CHECK(it->second.remaining > 0 && "confirm after txn resolved");
  if (commit) {
    // Unit shard capacity: one committed subtransaction per shard per round.
    SSHARD_CHECK(last_commit_round_[sub.destination] != round &&
                 "two commits on one shard in one round");
    last_commit_round_[sub.destination] = round;
    // The pin discipline means the vote-time evaluation still holds.
    SSHARD_CHECK(EvaluateSub(sub) && "commit applied to stale state");
    chain::AccountStore& store = stores_[sub.destination];
    for (const chain::Action& action : sub.actions) {
      store.Apply(action);
    }
    const std::uint64_t digest = sub.Digest();
    chains_[sub.destination].Append(txn, round, digest);
    if (wal_ != nullptr) {
      wal_->StageCommit(sub.destination, txn, round, digest, sub.actions);
    }
  } else if (wal_ != nullptr) {
    wal_->StageAbort(sub.destination, txn, round);
  }
  const std::uint64_t resolved_before = resolved_;
  ResolveConfirm(txn, commit, round);
  return resolved_ != resolved_before;
}

void CommitLedger::ApplyConfirmDeferred(TxnId txn,
                                        const txn::SubTransaction& sub,
                                        bool commit, Round round) {
  // Shard-local half only: store/chain effects for the destination shard
  // plus a journal entry. Runs inside StepShard(sub.destination, round).
  if (commit) {
    SSHARD_CHECK(last_commit_round_[sub.destination] != round &&
                 "two commits on one shard in one round");
    last_commit_round_[sub.destination] = round;
    SSHARD_CHECK(EvaluateSub(sub) && "commit applied to stale state");
    chain::AccountStore& store = stores_[sub.destination];
    for (const chain::Action& action : sub.actions) {
      store.Apply(action);
    }
    const std::uint64_t digest = sub.Digest();
    chains_[sub.destination].Append(txn, round, digest);
    // WAL staging is shard-owned like the store/chain writes above, so it
    // inherits StepShard's concurrency safety for distinct destinations.
    if (wal_ != nullptr) {
      wal_->StageCommit(sub.destination, txn, round, digest, sub.actions);
    }
  } else if (wal_ != nullptr) {
    wal_->StageAbort(sub.destination, txn, round);
  }
  journal_[sub.destination].push_back(JournalEntry{txn, commit});
}

void CommitLedger::SealJournal(Round round, std::uint32_t parts) {
  journal_cap.Acquire();  // annotation-only, no runtime effect
  SSHARD_CHECK(parts >= 1);
  if (wal_ != nullptr) wal_->Seal(round, parts);
#ifndef NDEBUG
  for (const std::vector<JournalEntry>& shard_journal : sealed_journal_) {
    SSHARD_DCHECK(shard_journal.empty() &&
                  "sealing over an undrained journal");
  }
#endif
  if (sealed_journal_.empty()) sealed_journal_.resize(journal_.size());
  journal_.swap(sealed_journal_);
  if (completions_.size() < parts) completions_.resize(parts);
  sealed_parts_ = parts;
}

void CommitLedger::ResolveSealedPartition(std::uint32_t part, Round round) {
  (void)round;
  SSHARD_DCHECK(part < sealed_parts_);
  // Persist this partition's WAL chunk first: the encode overlaps the
  // resolution work on the same pool pass (disjoint data — the WAL
  // partitions by destination-shard range, the resolution by txn residue).
  if (wal_ != nullptr) wal_->PersistSealedPartition(part);
  std::vector<Completion>& out = completions_[part];
  out.clear();
  std::uint64_t base = 0;  // global journal index of entries[0]
  for (std::size_t dest = 0; dest < sealed_journal_.size(); ++dest) {
    const std::vector<JournalEntry>& entries = sealed_journal_[dest];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const JournalEntry& entry = entries[i];
      if (entry.txn % sealed_parts_ != part) continue;
      // Concurrent find()s never mutate the map structure (no insertion may
      // overlap the drain window) and each record belongs to one partition.
      const auto it = records_.find(entry.txn);
      SSHARD_CHECK(it != records_.end() && "confirm for unregistered txn");
      TxnRecord& record = it->second;
      SSHARD_CHECK(record.remaining > 0 && "confirm after txn resolved");
      if (!entry.commit) record.any_abort = true;
      if (--record.remaining == 0) {
        out.push_back(
            Completion{base + i, record.injected, !record.any_abort});
      }
    }
    base += entries.size();
  }
}

void CommitLedger::FinishSealedRound(Round round) {
  // Merge the partitions' completion buffers (each ascending by journal
  // index) back into global journal order: the latency recorder must see
  // the same sequence whatever the partition count.
  std::vector<std::size_t>& cursor = merge_cursor_;
  cursor.assign(sealed_parts_, 0);
  for (;;) {
    std::uint32_t best = sealed_parts_;
    std::uint64_t best_index = 0;
    for (std::uint32_t part = 0; part < sealed_parts_; ++part) {
      if (cursor[part] >= completions_[part].size()) continue;
      const std::uint64_t index =
          completions_[part][cursor[part]].journal_index;
      if (best == sealed_parts_ || index < best_index) {
        best = part;
        best_index = index;
      }
    }
    if (best == sealed_parts_) break;
    const Completion& completion = completions_[best][cursor[best]++];
    ++resolved_;
    if (completion.committed) {
      ++committed_txns_;
    } else {
      ++aborted_txns_;
    }
    latency_.Record(completion.injected, round, completion.committed);
  }
  for (std::vector<JournalEntry>& shard_journal : sealed_journal_) {
    shard_journal.clear();
  }
  sealed_parts_ = 0;
  if (wal_ != nullptr) wal_->FinishSealedRound();
  journal_cap.Release();  // annotation-only, no runtime effect
}

void CommitLedger::ResolveConfirm(TxnId txn, bool commit, Round round) {
  auto it = records_.find(txn);
  SSHARD_CHECK(it != records_.end() && "confirm for unregistered txn");
  TxnRecord& record = it->second;
  SSHARD_CHECK(record.remaining > 0 && "confirm after txn resolved");
  if (!commit) record.any_abort = true;
  if (--record.remaining > 0) return;

  // Whole transaction resolved.
  ++resolved_;
  if (record.any_abort) {
    ++aborted_txns_;
  } else {
    ++committed_txns_;
  }
  latency_.Record(record.injected, round, !record.any_abort);
}

bool CommitLedger::IsResolved(TxnId txn) const {
  const auto it = records_.find(txn);
  if (it == records_.end()) return false;
  return it->second.remaining == 0;
}

}  // namespace stableshard::core
