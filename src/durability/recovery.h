// Crash recovery: restore one shard's ledger slice (account store, local
// chain, unit-capacity round marker) to bit-identical equality with its
// pre-crash state, from the newest usable checkpoint section plus the WAL.
//
// Recovery runs in four steps over one pass of the shard's WAL lane:
//   1. install the balances and last_commit_round of the newest section
//      that decodes cleanly (genesis if none does);
//   2. rebuild the chain prefix by replaying LocalChain::Append over the
//      commit records with seq <= the section's wal_seq — the WAL commit
//      records are the block bodies, so checkpoints do not carry them;
//   3. check that the rebuilt chain's size and tip hash equal the
//      section's. A mismatch means a checksum-valid section disagrees with
//      the log it was taken over (e.g. a lane shorter than its wal_seq):
//      like a corrupt complete WAL record, that is unrecoverable and
//      aborts the process;
//   4. replay the suffix (seq > wal_seq): apply actions, append blocks,
//      advance the round marker.
//
// Determinism argument: the WAL records commits in the exact order the
// shard applied them (per-shard staging lanes preserve StepShard order,
// which the ownership discipline makes deterministic), the checkpoint
// serializes the unordered store in sorted-account order, and every chain
// block — prefix and suffix alike — is rebuilt by LocalChain::Append,
// which recomputes each hash from the same (txn, round, digest) inputs.
// No step consults wall clocks, iteration order of unordered containers,
// or pointer values (tools/lint_determinism.py's durability rule pack
// enforces the same at the source level), so replay of the same bytes
// always reconstructs the same bits.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"

namespace stableshard::core {
class CommitLedger;
}  // namespace stableshard::core

namespace stableshard::durability {

struct RecoveryStats {
  bool used_checkpoint = false;
  std::uint64_t replayed_records = 0;
  std::uint64_t replayed_bytes = 0;  ///< WAL bytes past the section horizon
};

/// Snapshot shard `shard`'s full ledger slice, chain bodies included —
/// the crash oracle's canonical form. `wal_seq` tags the image with the
/// WAL horizon it reflects (callers pass the shard's durable seq).
ShardImage CaptureShardImage(const core::CommitLedger& ledger, ShardId shard,
                             std::uint64_t wal_seq);

/// Restore shard `shard` from `storage` (the four steps in the file
/// comment). A damaged checkpoint section only costs replay time: the
/// walk falls back to older checkpoints, ultimately to genesis, since the
/// WAL is never truncated. A torn WAL tail stops the replay at the last
/// complete record — by the synchronous-round crash model that is always
/// the full committed prefix. A checksum failure on a *complete* WAL
/// record, or a section whose chain size or tip disagrees with the WAL
/// prefix, is unrecoverable corruption and aborts the process.
RecoveryStats RecoverShard(core::CommitLedger& ledger, ShardId shard,
                           const MemoryStorage& storage);

/// Capture every shard's checkpoint section (accounts, chain size and tip;
/// no block bodies) at `round` and append the encoded blob to
/// `storage.checkpoints`. Returns the blob size in bytes, which depends on
/// the materialized accounts, not on how many blocks were committed.
std::uint64_t WriteCheckpoint(const core::CommitLedger& ledger,
                              const WalManager& wal, MemoryStorage& storage,
                              Round round);

}  // namespace stableshard::durability
