#include "durability/recovery.h"

#include <utility>

#include "chain/account_store.h"
#include "chain/local_chain.h"
#include "common/check.h"
#include "core/commit_ledger.h"

namespace stableshard::durability {

namespace {

/// Hash the next appended block links to.
chain::BlockHash TipHash(const chain::LocalChain& chain) {
  return chain.empty() ? chain::kGenesisParent : chain.back().hash;
}

void CaptureAccounts(const core::CommitLedger& ledger, ShardId shard,
                     std::uint64_t wal_seq, ShardAccounts* out) {
  out->shard = shard;
  out->wal_seq = wal_seq;
  out->last_commit_round = ledger.last_commit_round(shard);
  const chain::AccountStore& store = ledger.store(shard);
  out->default_balance = store.default_balance();
  out->balances = store.SortedBalances();
}

/// Next complete WAL record; false at the end of the log or at a torn
/// tail (the consistent prefix ends there).
bool NextRecord(WalReader& reader, WalRecord* record) {
  const WalReader::Status status = reader.Next(record);
  SSHARD_CHECK(status != WalReader::Status::kCorrupt &&
               "WAL record checksum mismatch: unrecoverable corruption");
  return status == WalReader::Status::kRecord;
}

}  // namespace

ShardImage CaptureShardImage(const core::CommitLedger& ledger, ShardId shard,
                             std::uint64_t wal_seq) {
  ShardImage image;
  CaptureAccounts(ledger, shard, wal_seq, &image);
  const chain::LocalChain& chain = ledger.chains()[shard];
  image.blocks.reserve(chain.size());
  for (const chain::Block& block : chain.blocks()) {
    image.blocks.push_back(ShardImage::BlockBody{
        block.txn, block.commit_round, block.payload_digest});
  }
  return image;
}

RecoveryStats RecoverShard(core::CommitLedger& ledger, ShardId shard,
                           const MemoryStorage& storage) {
  RecoveryStats stats;
  ledger.ResetShardForRecovery(shard);

  // Step 1: the newest checkpoint whose section for this shard survives;
  // damaged sections fall back to older blobs, ultimately to genesis (the
  // default section: empty chain, horizon 0).
  CheckpointSection section;
  for (std::size_t i = storage.checkpoints.size(); i > 0; --i) {
    CheckpointSection candidate;
    if (DecodeCheckpointShard(storage.checkpoints[i - 1], shard,
                              &candidate) != SectionStatus::kOk) {
      continue;
    }
    section = std::move(candidate);
    stats.used_checkpoint = true;
    break;
  }
  chain::AccountStore& store = ledger.mutable_store(shard);
  if (stats.used_checkpoint) {
    store = chain::AccountStore(section.default_balance);
    for (const auto& [account, balance] : section.balances) {
      store.SetBalance(account, balance);
    }
    ledger.RestoreLastCommitRound(shard, section.last_commit_round);
  }

  // Step 2: records inside the section's horizon only rebuild the chain;
  // the replay window starts at the first record past it.
  chain::LocalChain& chain = ledger.mutable_chain(shard);
  WalReader reader(storage.wal[shard]);
  WalRecord record;
  std::size_t replay_start = 0;
  bool more = NextRecord(reader, &record);
  for (; more && record.seq <= section.wal_seq;
       more = NextRecord(reader, &record)) {
    if (record.type == WalRecordType::kCommit) {
      chain.Append(record.txn, record.round, record.payload_digest);
    }
    replay_start = reader.offset();
  }

  // Step 3: the rebuilt prefix must be the chain the section was taken
  // over.
  SSHARD_CHECK(chain.size() == section.chain_size &&
               TipHash(chain) == section.chain_tip &&
               "checkpoint chain tip disagrees with the WAL prefix: "
               "unrecoverable corruption");

  // Step 4: replay the suffix.
  for (; more; more = NextRecord(reader, &record)) {
    if (record.type == WalRecordType::kCommit) {
      for (const chain::Action& action : record.actions) {
        store.Apply(action);
      }
      chain.Append(record.txn, record.round, record.payload_digest);
      ledger.RestoreLastCommitRound(shard, record.round);
    }
    // Aborts carry no state; they are logged for audit/sequence coverage.
    ++stats.replayed_records;
  }
  stats.replayed_bytes =
      static_cast<std::uint64_t>(reader.offset() - replay_start);
  return stats;
}

std::uint64_t WriteCheckpoint(const core::CommitLedger& ledger,
                              const WalManager& wal, MemoryStorage& storage,
                              Round round) {
  const ShardId shards = wal.shard_count();
  std::vector<CheckpointSection> sections(shards);
  for (ShardId shard = 0; shard < shards; ++shard) {
    CheckpointSection& section = sections[shard];
    CaptureAccounts(ledger, shard, wal.durable_seq(shard), &section);
    const chain::LocalChain& chain = ledger.chains()[shard];
    section.chain_size = chain.size();
    section.chain_tip = TipHash(chain);
  }
  Blob blob = EncodeCheckpoint(round, sections);
  const std::uint64_t size = blob.size();
  storage.checkpoints.push_back(std::move(blob));
  return size;
}

}  // namespace stableshard::durability
