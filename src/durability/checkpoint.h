// Checkpoint blobs: periodic per-shard images that bound replay time.
//
// The WAL commit records *are* the block bodies: each one carries the
// (txn, round, payload_digest) that LocalChain::Append hashes into the
// next block, and recovery decodes a shard's whole lane from genesis
// anyway to find its replay window. A checkpoint therefore stores only
// what the WAL cannot give back without applying actions — the balances
// and the unit-capacity round marker — plus the chain's size and tip hash
// so recovery can prove the chain prefix it rebuilds from the WAL is the
// one the image was taken over.
//
// A checkpoint is one blob per cadence tick covering every shard:
//
//   header:  u64 magic, u64 round, u32 shard_count
//   then shard_count framed sections, in shard order:
//     u32 payload_size, u64 fnv1a(payload), payload:
//       u32 shard, u64 wal_seq (WAL records with seq <= wal_seq are
//       reflected in this section), u64 last_commit_round, i64
//       default_balance, u32 n_balances x { u64 account, i64 balance }
//       (ascending account id — the deterministic serialization of the
//       unordered store), u64 chain_size, u64 chain_tip (hash of the last
//       block; chain::kGenesisParent for an empty chain).
//
// Cost: a section is O(accounts), not O(history). A section that carried
// every block body committed so far made a run's checkpoint bytes grow
// quadratically in its length (MemoryStorage keeps every blob). On the
// flash-crowd durable workload (64 shards, 82 checkpoints, serial, 4-vCPU
// VM) dropping the bodies cut checkpoint time from about 24 ms to under
// 1 ms of a ~90 ms loop, and peak RSS from about 44.5 MB to 19.5 MB.
//
// Sections are independently framed so a torn checkpoint write degrades
// per shard: a shard whose section is truncated or corrupt simply falls
// back to the previous checkpoint or, ultimately, to a full WAL replay
// from genesis — the WAL is never truncated, so every checkpoint is a
// pure replay-time optimization, not a durability dependency.
//
// ShardImage is the other encoding here: the *full* shard state, chain
// bodies included. It is never written to the medium; it is the canonical
// form the crash oracle compares before and after recovery.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chain/block.h"
#include "chain/ops.h"
#include "common/types.h"
#include "durability/encoding.h"

namespace stableshard::durability {

inline constexpr std::uint64_t kCheckpointMagic = 0x53534844'434b5031ULL;

/// The account side of one shard's state, tagged with the WAL horizon it
/// reflects. Shared head of ShardImage and CheckpointSection.
struct ShardAccounts {
  ShardId shard = 0;
  std::uint64_t wal_seq = 0;
  Round last_commit_round = kNoRound;
  chain::Balance default_balance = 0;
  std::vector<std::pair<AccountId, chain::Balance>> balances;  // sorted
};

/// One shard's full state, in canonical (sorted, fixed-width) form. Two
/// images encode byte-identically iff the shard states are bit-identical —
/// the crash oracle and the recovery tests compare encoded images.
struct ShardImage : ShardAccounts {
  struct BlockBody {
    TxnId txn = 0;
    Round commit_round = 0;
    std::uint64_t payload_digest = 0;
  };

  std::vector<BlockBody> blocks;
};

/// One shard's checkpoint section: the accounts plus the chain's size and
/// tip, which the chain prefix rebuilt from the WAL must reproduce.
struct CheckpointSection : ShardAccounts {
  std::uint64_t chain_size = 0;
  chain::BlockHash chain_tip = chain::kGenesisParent;
};

/// Append `image` as one framed full image (balances and chain bodies).
void AppendShardImage(Blob& out, const ShardImage& image);

/// Encode a checkpoint blob for `round`. `sections` must be in shard
/// order (sections[i].shard == i).
Blob EncodeCheckpoint(Round round,
                      const std::vector<CheckpointSection>& sections);

enum class SectionStatus {
  kOk,         ///< section decoded and checksum-verified
  kTruncated,  ///< blob ends before this shard's section completes
  kCorrupt,    ///< bad magic, or the section's checksum/decode fails
};

/// Decode shard `shard`'s section out of a checkpoint blob. Returns
/// kTruncated/kCorrupt instead of aborting: damaged checkpoints are an
/// expected input (recovery falls back to older checkpoints / the WAL).
SectionStatus DecodeCheckpointShard(const Blob& blob, ShardId shard,
                                    CheckpointSection* out);

/// The round a checkpoint blob covers (header only; kNoRound if the blob
/// is too short or mis-tagged).
Round CheckpointRound(const Blob& blob);

}  // namespace stableshard::durability
