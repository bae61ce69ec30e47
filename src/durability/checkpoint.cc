#include "durability/checkpoint.h"

#include "common/check.h"

namespace stableshard::durability {

namespace {

/// Encoded size of one balance entry: u64 account, i64 balance.
constexpr std::size_t kBalanceBytes = 8 + 8;

void EncodeAccounts(Blob& out, const ShardAccounts& accounts) {
  AppendU32(out, accounts.shard);
  AppendU64(out, accounts.wal_seq);
  AppendU64(out, accounts.last_commit_round);
  AppendI64(out, accounts.default_balance);
  AppendU32(out, static_cast<std::uint32_t>(accounts.balances.size()));
  for (const auto& [account, balance] : accounts.balances) {
    AppendU64(out, account);
    AppendI64(out, balance);
  }
}

bool DecodeSectionPayload(const std::uint8_t* data, std::size_t size,
                          CheckpointSection* out) {
  ByteReader reader(data, size);
  if (!reader.ReadU32(&out->shard)) return false;
  if (!reader.ReadU64(&out->wal_seq)) return false;
  if (!reader.ReadU64(&out->last_commit_round)) return false;
  if (!reader.ReadI64(&out->default_balance)) return false;
  std::uint32_t n_balances = 0;
  if (!reader.ReadCount(&n_balances, kBalanceBytes)) return false;
  out->balances.clear();
  out->balances.reserve(n_balances);
  for (std::uint32_t i = 0; i < n_balances; ++i) {
    AccountId account = 0;
    chain::Balance balance = 0;
    if (!reader.ReadU64(&account)) return false;
    if (!reader.ReadI64(&balance)) return false;
    out->balances.emplace_back(account, balance);
  }
  if (!reader.ReadU64(&out->chain_size)) return false;
  if (!reader.ReadU64(&out->chain_tip)) return false;
  return reader.remaining() == 0;
}

void AppendFramed(Blob& out, const Blob& payload) {
  AppendU32(out, static_cast<std::uint32_t>(payload.size()));
  AppendU64(out, Fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

void AppendShardImage(Blob& out, const ShardImage& image) {
  Blob payload;
  EncodeAccounts(payload, image);
  AppendU32(payload, static_cast<std::uint32_t>(image.blocks.size()));
  for (const ShardImage::BlockBody& block : image.blocks) {
    AppendU64(payload, block.txn);
    AppendU64(payload, block.commit_round);
    AppendU64(payload, block.payload_digest);
  }
  AppendFramed(out, payload);
}

Blob EncodeCheckpoint(Round round,
                      const std::vector<CheckpointSection>& sections) {
  Blob blob;
  AppendU64(blob, kCheckpointMagic);
  AppendU64(blob, round);
  AppendU32(blob, static_cast<std::uint32_t>(sections.size()));
  Blob payload;
  for (std::size_t shard = 0; shard < sections.size(); ++shard) {
    const CheckpointSection& section = sections[shard];
    SSHARD_CHECK(section.shard == shard &&
                 "checkpoint sections out of shard order");
    payload.clear();
    EncodeAccounts(payload, section);
    AppendU64(payload, section.chain_size);
    AppendU64(payload, section.chain_tip);
    AppendFramed(blob, payload);
  }
  return blob;
}

SectionStatus DecodeCheckpointShard(const Blob& blob, ShardId shard,
                                    CheckpointSection* out) {
  ByteReader reader(blob.data(), blob.size());
  std::uint64_t magic = 0;
  std::uint64_t round = 0;
  std::uint32_t shard_count = 0;
  if (!reader.ReadU64(&magic)) return SectionStatus::kTruncated;
  if (magic != kCheckpointMagic) return SectionStatus::kCorrupt;
  if (!reader.ReadU64(&round)) return SectionStatus::kTruncated;
  if (!reader.ReadU32(&shard_count)) return SectionStatus::kTruncated;
  if (shard >= shard_count) return SectionStatus::kCorrupt;
  for (ShardId current = 0; current <= shard; ++current) {
    std::uint32_t size = 0;
    std::uint64_t checksum = 0;
    if (!reader.ReadU32(&size)) return SectionStatus::kTruncated;
    if (!reader.ReadU64(&checksum)) return SectionStatus::kTruncated;
    if (current < shard) {
      // Skip a section we don't need without verifying it: its damage is
      // its own shard's problem.
      if (!reader.Skip(size)) return SectionStatus::kTruncated;
      continue;
    }
    const std::uint8_t* payload = reader.ReadSpan(size);
    if (payload == nullptr) return SectionStatus::kTruncated;
    if (Fnv1a(payload, size) != checksum) return SectionStatus::kCorrupt;
    if (!DecodeSectionPayload(payload, size, out)) {
      return SectionStatus::kCorrupt;
    }
    if (out->shard != shard) return SectionStatus::kCorrupt;
    return SectionStatus::kOk;
  }
  return SectionStatus::kTruncated;  // unreachable
}

Round CheckpointRound(const Blob& blob) {
  ByteReader reader(blob.data(), blob.size());
  std::uint64_t magic = 0;
  std::uint64_t round = 0;
  if (!reader.ReadU64(&magic)) return kNoRound;
  if (magic != kCheckpointMagic) return kNoRound;
  if (!reader.ReadU64(&round)) return kNoRound;
  return round;
}

}  // namespace stableshard::durability
