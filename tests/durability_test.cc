// Durability subsystem tests: WAL record framing and torn-write semantics,
// hostile counts in both decoders, checkpoint sections and their per-shard
// damage fallback, the chain-tip check against the WAL prefix, a seeded
// mutation suite over checkpoint blobs, WAL frames and fault-plan specs,
// the liveness state machine, the fault-plan grammar, and the end-to-end
// crash/recovery (churn) goldens — restored state bit-identical,
// accounting identity intact, churn commits exactly the fault-free counts,
// and everything bit-identical between workers 1 and pooled 4/8-worker
// runs (the *Hammer suite, also the TSan CI target).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chain/account_map.h"
#include "common/rng.h"
#include "core/commit_ledger.h"
#include "durability/checkpoint.h"
#include "durability/encoding.h"
#include "durability/fault_plan.h"
#include "durability/liveness.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "sim_test_util.h"
#include "txn/txn_factory.h"

namespace stableshard::durability {
namespace {

chain::Action Deposit(AccountId account, chain::Balance amount) {
  return chain::Action{account, chain::ActionKind::kDeposit, amount};
}

WalRecord CommitRecord(std::uint64_t seq, TxnId txn, Round round) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.seq = seq;
  record.txn = txn;
  record.round = round;
  record.payload_digest = 0x1234'5678'9abc'def0ULL + seq;
  record.actions = {Deposit(7, 100), {11, chain::ActionKind::kWithdraw, 40}};
  return record;
}

/// Frame `payload` the way both codecs do (u32 size, u64 FNV-1a), so a
/// test can hand a decoder a checksum-valid frame of arbitrary content.
void AppendFrame(Blob& out, const Blob& payload) {
  AppendU32(out, static_cast<std::uint32_t>(payload.size()));
  AppendU64(out, Fnv1a(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// [begin, end) byte ranges of the frames in a well-formed WAL lane
/// (`header_bytes` = 0) or checkpoint blob (`header_bytes` = 20).
std::vector<std::pair<std::size_t, std::size_t>> FrameSpans(
    const Blob& bytes, std::size_t header_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_TRUE(reader.Skip(header_bytes));
  while (reader.remaining() > 0) {
    const std::size_t begin = reader.offset();
    std::uint32_t size = 0;
    std::uint64_t checksum = 0;
    if (!reader.ReadU32(&size) || !reader.ReadU64(&checksum) ||
        !reader.Skip(size)) {
      ADD_FAILURE() << "malformed frame at byte " << begin;
      break;
    }
    spans.emplace_back(begin, reader.offset());
  }
  return spans;
}

constexpr std::size_t kFrameHeaderBytes = 4 + 8;
constexpr std::size_t kCheckpointHeaderBytes = 8 + 8 + 4;

TEST(WalRecordTest, CommitAndAbortRoundtrip) {
  Blob wal;
  const WalRecord commit = CommitRecord(1, 42, 9);
  AppendWalRecord(wal, commit);
  WalRecord abort;
  abort.type = WalRecordType::kAbort;
  abort.seq = 2;
  abort.txn = 43;
  abort.round = 10;
  AppendWalRecord(wal, abort);

  WalReader reader(wal);
  WalRecord out;
  ASSERT_EQ(reader.Next(&out), WalReader::Status::kRecord);
  EXPECT_EQ(out.type, WalRecordType::kCommit);
  EXPECT_EQ(out.seq, 1u);
  EXPECT_EQ(out.txn, 42u);
  EXPECT_EQ(out.round, 9u);
  EXPECT_EQ(out.payload_digest, commit.payload_digest);
  ASSERT_EQ(out.actions.size(), 2u);
  EXPECT_EQ(out.actions[0].account, 7u);
  EXPECT_EQ(out.actions[0].kind, chain::ActionKind::kDeposit);
  EXPECT_EQ(out.actions[0].amount, 100);
  EXPECT_EQ(out.actions[1].kind, chain::ActionKind::kWithdraw);

  ASSERT_EQ(reader.Next(&out), WalReader::Status::kRecord);
  EXPECT_EQ(out.type, WalRecordType::kAbort);
  EXPECT_EQ(out.seq, 2u);
  EXPECT_TRUE(out.actions.empty());
  EXPECT_EQ(out.payload_digest, 0u);
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kEndOfLog);
  EXPECT_EQ(reader.offset(), wal.size());
}

TEST(WalRecordTest, TornTailStopsAtLastCompleteRecord) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  AppendWalRecord(wal, CommitRecord(2, 11, 2));
  const std::size_t two_records = wal.size();
  AppendWalRecord(wal, CommitRecord(3, 12, 3));

  // Every possible torn length of the third record — from "frame header
  // cut mid-u32" to "one payload byte missing" — must yield exactly the
  // two complete records and a kTornTail at their boundary. (cut ==
  // two_records would be a clean kEndOfLog: no torn bytes at all.)
  for (std::size_t cut = two_records + 1; cut < wal.size(); ++cut) {
    Blob torn(wal.begin(), wal.begin() + cut);
    WalReader reader(torn);
    WalRecord out;
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kRecord);
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kRecord);
    EXPECT_EQ(out.seq, 2u);
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kTornTail);
    EXPECT_EQ(reader.offset(), two_records);
    // Torn is sticky: re-polling must not advance or reclassify.
    EXPECT_EQ(reader.Next(&out), WalReader::Status::kTornTail);
  }
}

TEST(WalRecordTest, CorruptPayloadDetected) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  // Flip one payload byte: the frame is complete, so this is corruption,
  // never a torn tail.
  wal.back() ^= 0x40;
  WalReader reader(wal);
  WalRecord out;
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kCorrupt);
  EXPECT_EQ(reader.offset(), 0u);
}

TEST(WalRecordTest, CorruptChecksumDetected) {
  Blob wal;
  AppendWalRecord(wal, CommitRecord(1, 10, 1));
  // Flip a checksum byte (frame bytes 4..11): payload intact, checksum
  // mismatched — still corruption, not a tail.
  wal[6] ^= 0x01;
  WalReader reader(wal);
  WalRecord out;
  EXPECT_EQ(reader.Next(&out), WalReader::Status::kCorrupt);
}

/// A commit payload with one action whose count and kind bytes the caller
/// picks (the real encoder cannot produce hostile values).
Blob CommitPayload(std::uint32_t n_actions, std::uint8_t kind) {
  Blob payload;
  AppendU8(payload, static_cast<std::uint8_t>(WalRecordType::kCommit));
  AppendU64(payload, /*seq=*/1);
  AppendU64(payload, /*txn=*/10);
  AppendU64(payload, /*round=*/1);
  AppendU64(payload, /*payload_digest=*/0);
  AppendU32(payload, n_actions);
  AppendU64(payload, /*account=*/7);
  AppendU8(payload, kind);
  AppendI64(payload, /*amount=*/5);
  return payload;
}

TEST(WalRecordTest, HostileCountsAndKindsAreCorrupt) {
  const auto status_of = [](std::uint32_t n_actions, std::uint8_t kind) {
    Blob wal;
    AppendFrame(wal, CommitPayload(n_actions, kind));
    WalReader reader(wal);
    WalRecord out;
    return reader.Next(&out);
  };
  const auto deposit = static_cast<std::uint8_t>(chain::ActionKind::kDeposit);
  EXPECT_EQ(status_of(1, deposit), WalReader::Status::kRecord);
  // A checksum-valid frame claiming 2^32 - 1 actions used to reach
  // `reserve` and die with std::bad_alloc.
  EXPECT_EQ(status_of(0xFFFFFFFFu, deposit), WalReader::Status::kCorrupt);
  EXPECT_EQ(status_of(2, deposit), WalReader::Status::kCorrupt);
  // An action kind outside the enum.
  const auto past_last =
      static_cast<std::uint8_t>(chain::ActionKind::kSet) + 1;
  EXPECT_EQ(status_of(1, static_cast<std::uint8_t>(past_last)),
            WalReader::Status::kCorrupt);
  EXPECT_EQ(status_of(1, 0xFF), WalReader::Status::kCorrupt);
}

TEST(WalManagerTest, PartitionedPersistMatchesOnePartition) {
  // The same staged records persisted with one partition (what a serial
  // round runs) and with three partitions applied out of order must
  // produce byte-identical lanes and the same durable sequence numbers.
  MemoryStorage one_part_storage(5);
  MemoryStorage partitioned_storage(5);
  WalManager one_part(5, &one_part_storage);
  WalManager partitioned(5, &partitioned_storage);
  for (WalManager* wal : {&one_part, &partitioned}) {
    for (ShardId shard = 0; shard < 5; ++shard) {
      wal->StageCommit(shard, /*txn=*/100 + shard, /*round=*/3,
                       /*payload_digest=*/777, {Deposit(shard, 5)});
      if (shard % 2 == 0) wal->StageAbort(shard, 200 + shard, 3);
    }
  }

  std::vector<ShardId> durable_order;
  partitioned.set_on_durable(
      [&durable_order](ShardId shard, std::uint64_t seq, Round round) {
        durable_order.push_back(shard);
        EXPECT_EQ(round, 3u);
        EXPECT_GE(seq, 1u);
      });

  one_part.Seal(3, /*parts=*/1);
  one_part.PersistSealedPartition(0);
  one_part.FinishSealedRound();
  partitioned.Seal(3, /*parts=*/3);
  partitioned.PersistSealedPartition(2);
  partitioned.PersistSealedPartition(0);
  partitioned.PersistSealedPartition(1);
  partitioned.FinishSealedRound();

  for (ShardId shard = 0; shard < 5; ++shard) {
    EXPECT_FALSE(one_part_storage.wal[shard].empty());
    EXPECT_EQ(one_part_storage.wal[shard], partitioned_storage.wal[shard]);
    EXPECT_EQ(one_part.durable_seq(shard), partitioned.durable_seq(shard));
  }
  EXPECT_EQ(one_part.records_persisted(), partitioned.records_persisted());
  // Callbacks fire serially in shard order whatever the partition order.
  EXPECT_EQ(durable_order, (std::vector<ShardId>{0, 1, 2, 3, 4}));
}

TEST(CheckpointTest, SectionRoundtrip) {
  std::vector<CheckpointSection> sections(3);
  for (ShardId shard = 0; shard < 3; ++shard) {
    sections[shard].shard = shard;
    sections[shard].wal_seq = 10 + shard;
    sections[shard].last_commit_round = 7 + shard;
    sections[shard].default_balance = 1000 - shard;
    sections[shard].balances = {{shard, 900}, {shard + 3, -1100}};
    sections[shard].chain_size = 50 + shard;
    sections[shard].chain_tip = 0xabcdef0123456789ULL ^ shard;
  }
  const Blob blob = EncodeCheckpoint(/*round=*/7, sections);
  EXPECT_EQ(CheckpointRound(blob), 7u);

  for (ShardId shard = 0; shard < 3; ++shard) {
    CheckpointSection out;
    ASSERT_EQ(DecodeCheckpointShard(blob, shard, &out), SectionStatus::kOk);
    EXPECT_EQ(out.shard, shard);
    EXPECT_EQ(out.wal_seq, 10u + shard);
    EXPECT_EQ(out.last_commit_round, 7u + shard);
    EXPECT_EQ(out.default_balance, 1000 - static_cast<chain::Balance>(shard));
    EXPECT_EQ(out.balances, sections[shard].balances);
    EXPECT_EQ(out.chain_size, 50u + shard);
    EXPECT_EQ(out.chain_tip, 0xabcdef0123456789ULL ^ shard);
  }
}

TEST(CheckpointTest, LostTrailingPartitionDegradesPerShard) {
  std::vector<CheckpointSection> sections(3);
  for (ShardId shard = 0; shard < 3; ++shard) {
    sections[shard].shard = shard;
    sections[shard].balances = {{shard, 42}};
  }
  Blob blob = EncodeCheckpoint(/*round=*/5, sections);
  // Tear off the last shard's section mid-frame: a checkpoint write that
  // died before the trailing partition hit the medium.
  blob.resize(blob.size() - 9);

  CheckpointSection out;
  EXPECT_EQ(DecodeCheckpointShard(blob, 0, &out), SectionStatus::kOk);
  EXPECT_EQ(DecodeCheckpointShard(blob, 1, &out), SectionStatus::kOk);
  EXPECT_EQ(DecodeCheckpointShard(blob, 2, &out), SectionStatus::kTruncated);
}

TEST(CheckpointTest, BadMagicAndFlippedSectionAreCorrupt) {
  std::vector<CheckpointSection> sections(2);
  sections[0].shard = 0;
  sections[1].shard = 1;
  Blob blob = EncodeCheckpoint(/*round=*/5, sections);

  Blob bad_magic = blob;
  bad_magic[0] ^= 0xff;
  CheckpointSection out;
  EXPECT_EQ(DecodeCheckpointShard(bad_magic, 0, &out),
            SectionStatus::kCorrupt);
  EXPECT_EQ(CheckpointRound(bad_magic), kNoRound);

  Blob flipped = blob;
  flipped.back() ^= 0x01;  // inside the last shard's payload
  EXPECT_EQ(DecodeCheckpointShard(flipped, 1, &out), SectionStatus::kCorrupt);
  // Earlier sections are independently framed and stay readable.
  EXPECT_EQ(DecodeCheckpointShard(flipped, 0, &out), SectionStatus::kOk);
}

TEST(CheckpointTest, HostileBalanceCountIsCorrupt) {
  // A section whose checksum is valid but whose n_balances claims far
  // more entries than the payload holds must be rejected, not reserved.
  Blob payload;
  AppendU32(payload, /*shard=*/0);
  AppendU64(payload, /*wal_seq=*/1);
  AppendU64(payload, /*last_commit_round=*/1);
  AppendI64(payload, /*default_balance=*/0);
  AppendU32(payload, /*n_balances=*/0xFFFFFFFFu);
  AppendU64(payload, /*chain_size=*/0);
  AppendU64(payload, /*chain_tip=*/0);
  Blob blob;
  AppendU64(blob, kCheckpointMagic);
  AppendU64(blob, /*round=*/1);
  AppendU32(blob, /*shard_count=*/1);
  AppendFrame(blob, payload);

  CheckpointSection out;
  EXPECT_EQ(DecodeCheckpointShard(blob, 0, &out), SectionStatus::kCorrupt);
}

TEST(LivenessTest, FullCycleAndCounters) {
  LivenessTracker tracker(4);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.online_count(), 4u);

  tracker.Crash(2);
  EXPECT_FALSE(tracker.AllOnline());
  EXPECT_EQ(tracker.online_count(), 3u);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kCrashed);
  EXPECT_EQ(tracker.state(0), ShardLiveness::kOnline);

  tracker.BeginRecovery(2);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kRecovering);
  tracker.BeginCatchUp(2);
  EXPECT_EQ(tracker.state(2), ShardLiveness::kCatchUp);
  tracker.Rejoin(2);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.crash_count(), 1u);

  // Rejoin is also legal straight from kRecovering.
  tracker.Crash(0);
  tracker.BeginRecovery(0);
  tracker.Rejoin(0);
  EXPECT_TRUE(tracker.AllOnline());
  EXPECT_EQ(tracker.crash_count(), 2u);

  EXPECT_STREQ(ToString(ShardLiveness::kOnline), "online");
  EXPECT_STREQ(ToString(ShardLiveness::kCrashed), "crashed");
  EXPECT_STREQ(ToString(ShardLiveness::kRecovering), "recovering");
  EXPECT_STREQ(ToString(ShardLiveness::kCatchUp), "catch-up");
}

TEST(LivenessDeathTest, IllegalTransitionsAbort) {
  LivenessTracker tracker(2);
  EXPECT_DEATH(tracker.BeginRecovery(0), "illegal liveness transition");
  EXPECT_DEATH(tracker.Rejoin(0), "illegal liveness transition");
  tracker.Crash(1);
  EXPECT_DEATH(tracker.Crash(1), "illegal liveness transition");
  EXPECT_DEATH(tracker.BeginCatchUp(1), "illegal liveness transition");
}

TEST(FaultPlanTest, ParsesWellFormedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan("", &plan, &error));
  EXPECT_TRUE(plan.empty());

  EXPECT_TRUE(ParseFaultPlan("5@50+12,23@110+20", &plan, &error));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events[0].shard, 5u);
  EXPECT_EQ(plan.events[0].crash_round, 50u);
  EXPECT_EQ(plan.events[0].down_rounds, 12u);
  EXPECT_EQ(plan.events[1].shard, 23u);
  EXPECT_EQ(plan.events[1].crash_round, 110u);
  EXPECT_EQ(plan.events[1].down_rounds, 20u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  const char* bad[] = {
      "banana",       // no shard number
      "5",            // missing '@'
      "5@",           // missing round
      "5@50",         // missing '+'
      "5@50+",        // missing down count
      "5@50+0",       // down must be >= 1
      "5@50+3,4@50+3",  // crash rounds not strictly increasing
      "5@60+3,4@50+3",  // decreasing
      "5@50+3,",      // trailing separator
      "5@50+3;6@60+3",  // wrong separator
      "99999999999999999999@1+1",  // overflow
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---------------------------------------------------------------------------
// Ledger-level recovery: drive a CommitLedger with an attached WAL, crash a
// shard, replay, and compare canonical images.

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : map_(chain::AccountMap::RoundRobin(4, 8)),
        ledger_(map_, /*initial_balance=*/1000),
        storage_(4),
        wal_(4, &storage_),
        factory_(map_) {
    ledger_.AttachWal(&wal_);
  }

  /// Commit one round's worth of transfers and persist it.
  void CommitRound(Round round) {
    CommitTransfer(round, round % 8, (round + 1) % 8);
  }

  /// Commit one transfer in `round` and persist it through the
  /// one-partition round epilogue.
  void CommitTransfer(Round round, AccountId from, AccountId to) {
    const auto txn = factory_.MakeTransfer(
        /*home=*/static_cast<ShardId>(round % 4), /*injected=*/round, from,
        to, /*amount=*/10, /*min_balance=*/0);
    ledger_.RegisterInjection(txn);
    for (const auto& sub : txn.subs()) {
      ledger_.ApplyConfirmDeferred(txn.id(), sub, /*commit=*/true, round);
    }
    ledger_.SealJournal(round, /*parts=*/1);
    ledger_.ResolveSealedPartition(0, round);
    ledger_.FinishSealedRound(round);
  }

  Blob ImageOf(ShardId shard) {
    Blob blob;
    AppendShardImage(blob,
                     CaptureShardImage(ledger_, shard, wal_.durable_seq(shard)));
    return blob;
  }

  chain::AccountMap map_;
  core::CommitLedger ledger_;
  MemoryStorage storage_;
  WalManager wal_;
  txn::TxnFactory factory_;
};

TEST_F(RecoveryTest, ReplayFromGenesisRestoresBitIdenticalState) {
  for (Round round = 1; round <= 12; ++round) CommitRound(round);
  for (ShardId shard = 0; shard < 4; ++shard) {
    const Blob before = ImageOf(shard);
    const RecoveryStats stats = RecoverShard(ledger_, shard, storage_);
    EXPECT_FALSE(stats.used_checkpoint);
    EXPECT_GT(stats.replayed_records, 0u);
    EXPECT_GT(stats.replayed_bytes, 0u);
    EXPECT_EQ(ImageOf(shard), before);
    EXPECT_TRUE(ledger_.chains()[shard].Verify());
  }
}

TEST_F(RecoveryTest, CheckpointBoundsReplayAndStateStillMatches) {
  for (Round round = 1; round <= 6; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, /*round=*/6);
  for (Round round = 7; round <= 12; ++round) CommitRound(round);

  const Blob full_wal_bytes = ImageOf(1);
  RecoveryStats stats = RecoverShard(ledger_, 1, storage_);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(ImageOf(1), full_wal_bytes);

  // The checkpoint horizon really bounds the window: replaying with the
  // checkpoint must touch strictly fewer bytes than genesis replay.
  storage_.checkpoints.clear();
  const RecoveryStats genesis = RecoverShard(ledger_, 1, storage_);
  EXPECT_GT(genesis.replayed_bytes, stats.replayed_bytes);
  EXPECT_EQ(ImageOf(1), full_wal_bytes);
}

TEST_F(RecoveryTest, DamagedNewestCheckpointFallsBackToOlder) {
  for (Round round = 1; round <= 4; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 4);
  for (Round round = 5; round <= 8; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 8);
  // The newest checkpoint lost its trailing bytes — every shard section
  // past the tear degrades to the older checkpoint, transparently.
  storage_.checkpoints.back().resize(storage_.checkpoints.back().size() / 4);

  const Blob before = ImageOf(3);
  const RecoveryStats stats = RecoverShard(ledger_, 3, storage_);
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(ImageOf(3), before);
  EXPECT_TRUE(ledger_.chains()[3].Verify());
}

TEST_F(RecoveryTest, TornWalTailReplaysTheConsistentPrefix) {
  for (Round round = 1; round <= 8; ++round) CommitRound(round);
  // Ledger state includes the torn suffix, so capture the oracle by
  // replaying the untorn log into a twin ledger first.
  Blob& lane = storage_.wal[2];
  ASSERT_GT(lane.size(), 6u);
  lane.resize(lane.size() - 5);  // tear the final record mid-frame

  const RecoveryStats stats = RecoverShard(ledger_, 2, storage_);
  // The replayed prefix must itself be a fully consistent shard state:
  // the chain verifies even though the tail was lost.
  EXPECT_GT(stats.replayed_records, 0u);
  EXPECT_TRUE(ledger_.chains()[2].Verify());
  // And a second recovery over the same torn log is a fixed point.
  const Blob once = ImageOf(2);
  RecoverShard(ledger_, 2, storage_);
  EXPECT_EQ(ImageOf(2), once);
}

TEST_F(RecoveryTest, CheckpointSizeIsIndependentOfHistory) {
  // Transfers 2r -> 2r+1 (mod 8): every account is materialized by round
  // 4, so both checkpoints cover the same accounts.
  const auto commit = [this](Round round) {
    CommitTransfer(round, (2 * round) % 8, (2 * round + 1) % 8);
  };
  for (Round round = 1; round <= 6; ++round) commit(round);
  const std::uint64_t early = WriteCheckpoint(ledger_, wal_, storage_, 6);
  const std::size_t early_blocks = ledger_.chains()[1].size();
  for (Round round = 7; round <= 12; ++round) commit(round);
  const std::uint64_t late = WriteCheckpoint(ledger_, wal_, storage_, 12);
  ASSERT_GT(ledger_.chains()[1].size(), early_blocks);
  // Same materialized accounts, twice the committed blocks: a section
  // that carried chain bodies would have grown.
  EXPECT_EQ(late, early);
}

using RecoveryDeathTest = RecoveryTest;

TEST_F(RecoveryDeathTest, CorruptWalRecordIsUnrecoverable) {
  for (Round round = 1; round <= 4; ++round) CommitRound(round);
  Blob& lane = storage_.wal[1];
  ASSERT_FALSE(lane.empty());
  lane.back() ^= 0x20;  // complete frame, flipped payload bit
  EXPECT_DEATH(RecoverShard(ledger_, 1, storage_),
               "unrecoverable corruption");
}

TEST_F(RecoveryDeathTest, WalLaneShorterThanSectionHorizonIsUnrecoverable) {
  for (Round round = 1; round <= 8; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 8);
  // Cut lane 1 at its last record boundary: a clean end of log, one
  // commit short of the section's wal_seq, so the rebuilt chain prefix is
  // one block shorter than the section says.
  Blob& lane = storage_.wal[1];
  lane.resize(FrameSpans(lane, 0).back().first);
  EXPECT_DEATH(RecoverShard(ledger_, 1, storage_),
               "checkpoint chain tip disagrees with the WAL prefix");
}

TEST_F(RecoveryDeathTest, SectionTipOrSizeDisagreeingWithWalIsUnrecoverable) {
  for (Round round = 1; round <= 8; ++round) CommitRound(round);
  WriteCheckpoint(ledger_, wal_, storage_, 8);
  // Re-encode the checkpoint with valid checksums but a wrong tip on
  // shard 2 and a wrong size on shard 3.
  std::vector<CheckpointSection> sections(4);
  for (ShardId shard = 0; shard < 4; ++shard) {
    ASSERT_EQ(DecodeCheckpointShard(storage_.checkpoints.back(), shard,
                                    &sections[shard]),
              SectionStatus::kOk);
  }
  sections[2].chain_tip ^= 1;
  sections[3].chain_size += 1;
  storage_.checkpoints.back() = EncodeCheckpoint(8, sections);
  const Blob untouched = ImageOf(0);
  RecoverShard(ledger_, 0, storage_);
  EXPECT_EQ(ImageOf(0), untouched);
  EXPECT_DEATH(RecoverShard(ledger_, 2, storage_),
               "checkpoint chain tip disagrees with the WAL prefix");
  EXPECT_DEATH(RecoverShard(ledger_, 3, storage_),
               "checkpoint chain tip disagrees with the WAL prefix");
}

TEST_F(RecoveryDeathTest, AttachWalTwiceAborts) {
  EXPECT_DEATH(ledger_.AttachWal(&wal_), "already");
}

// ---------------------------------------------------------------------------
// Seeded mutation: flips, truncations and cross-blob section splices on
// checkpoint blobs, and re-checksummed frame mutations on WAL lanes. The
// decoders must only ever return a status, and with the WAL intact
// recovery must reproduce the pre-crash image whatever happened to the
// checkpoints.

using DurabilityMutationTest = RecoveryTest;

constexpr std::uint64_t kMutationSeed = 0x5eed'd00d'0013ULL;

TEST_F(DurabilityMutationTest, CheckpointDamageNeverChangesRecoveredState) {
  for (Round round = 1; round <= 12; ++round) {
    CommitRound(round);
    if (round % 3 == 0) WriteCheckpoint(ledger_, wal_, storage_, round);
  }
  std::vector<Blob> oracle;
  for (ShardId shard = 0; shard < 4; ++shard) oracle.push_back(ImageOf(shard));
  const std::vector<Blob> pristine = storage_.checkpoints;
  const std::size_t blobs = pristine.size();

  Rng rng(kMutationSeed);
  std::array<std::uint64_t, 3> statuses{};  // indexed by SectionStatus
  std::uint64_t from_checkpoint = 0;
  for (int trial = 0; trial < 400; ++trial) {
    storage_.checkpoints = pristine;
    // Splices first, while every blob is still well framed: replace one
    // section frame with any frame of any pristine blob (another shard's,
    // an older or newer horizon of the same shard).
    const std::uint64_t splices = rng() % 3;
    for (std::uint64_t i = 0; i < splices; ++i) {
      const Blob& donor = pristine[rng() % blobs];
      const auto donor_spans = FrameSpans(donor, kCheckpointHeaderBytes);
      const auto [from_begin, from_end] =
          donor_spans[rng() % donor_spans.size()];
      Blob& target = storage_.checkpoints[rng() % blobs];
      const auto spans = FrameSpans(target, kCheckpointHeaderBytes);
      const auto [to_begin, to_end] = spans[rng() % spans.size()];
      Blob spliced(target.begin(), target.begin() + to_begin);
      spliced.insert(spliced.end(), donor.begin() + from_begin,
                     donor.begin() + from_end);
      spliced.insert(spliced.end(), target.begin() + to_end, target.end());
      target = std::move(spliced);
    }
    // Then bit flips and truncations anywhere, header included.
    const std::uint64_t damages = rng() % 4;
    for (std::uint64_t i = 0; i < damages; ++i) {
      Blob& target = storage_.checkpoints[rng() % blobs];
      if (target.empty()) continue;
      if (rng() % 2 == 0) {
        target[rng() % target.size()] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
      } else {
        target.resize(rng() % target.size());
      }
    }

    for (const Blob& blob : storage_.checkpoints) {
      CheckpointRound(blob);
      for (ShardId shard = 0; shard < 5; ++shard) {
        CheckpointSection out;
        const SectionStatus status = DecodeCheckpointShard(blob, shard, &out);
        ++statuses[static_cast<std::size_t>(status)];
        if (status == SectionStatus::kOk) {
          EXPECT_EQ(out.shard, shard);
        }
      }
    }
    for (ShardId shard = 0; shard < 4; ++shard) {
      const RecoveryStats stats = RecoverShard(ledger_, shard, storage_);
      if (stats.used_checkpoint) ++from_checkpoint;
      ASSERT_EQ(ImageOf(shard), oracle[shard])
          << "trial " << trial << " shard " << shard;
    }
  }
  // The seed must reach every outcome, or the test proves nothing.
  EXPECT_GT(statuses[static_cast<std::size_t>(SectionStatus::kOk)], 0u);
  EXPECT_GT(statuses[static_cast<std::size_t>(SectionStatus::kCorrupt)], 0u);
  EXPECT_GT(statuses[static_cast<std::size_t>(SectionStatus::kTruncated)],
            0u);
  EXPECT_GT(from_checkpoint, 0u);
}

TEST_F(DurabilityMutationTest, WalFrameMutationsOnlyYieldStatuses) {
  for (Round round = 1; round <= 12; ++round) CommitRound(round);
  const std::vector<Blob> pristine = storage_.wal;

  Rng rng(kMutationSeed);
  std::array<std::uint64_t, 4> outcomes{};  // indexed by WalReader::Status
  for (int trial = 0; trial < 2000; ++trial) {
    const Blob& source = pristine[rng() % pristine.size()];
    const auto spans = FrameSpans(source, 0);
    ASSERT_FALSE(spans.empty());
    const auto [begin, end] = spans[rng() % spans.size()];
    Blob payload(source.begin() + begin + kFrameHeaderBytes,
                 source.begin() + end);
    switch (rng() % 4) {
      case 0:  // flip one payload byte
        payload[rng() % payload.size()] ^=
            static_cast<std::uint8_t>(1 + rng() % 255);
        break;
      case 1:  // cut the payload short
        payload.resize(rng() % payload.size());
        break;
      case 2: {  // splice another frame's payload bytes in
        const auto [other_begin, other_end] = spans[rng() % spans.size()];
        const std::size_t at = rng() % payload.size();
        payload.resize(at);
        payload.insert(payload.end(),
                       source.begin() + other_begin + kFrameHeaderBytes,
                       source.begin() + other_end);
        break;
      }
      default: {  // a hostile u32 (count, kind, type) at any offset
        const std::size_t at = rng() % payload.size();
        for (std::size_t i = at; i < payload.size() && i < at + 4; ++i) {
          payload[i] = 0xFF;
        }
        break;
      }
    }
    // Re-frame with a valid checksum, so the decoder itself must reject.
    Blob lane(source.begin(), source.begin() + begin);
    AppendFrame(lane, payload);
    lane.insert(lane.end(), source.begin() + end, source.end());
    // Every few trials also tear the lane, unframed.
    if (trial % 5 == 0) lane.resize(rng() % (lane.size() + 1));

    WalReader reader(lane);
    WalRecord record;
    WalReader::Status status = WalReader::Status::kRecord;
    for (std::size_t i = 0; i <= spans.size(); ++i) {
      status = reader.Next(&record);
      if (status != WalReader::Status::kRecord) break;
    }
    ASSERT_NE(status, WalReader::Status::kRecord);
    EXPECT_LE(reader.offset(), lane.size());
    ++outcomes[static_cast<std::size_t>(status)];
  }
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalReader::Status::kCorrupt)],
            0u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalReader::Status::kEndOfLog)],
            0u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(WalReader::Status::kTornTail)],
            0u);
}

TEST(FaultPlanMutationTest, MutatedSpecsParseOrReject) {
  // Seeded flips, truncations and splices of well-formed plans: the parser
  // must either accept a plan that keeps the grammar's invariants (crash
  // rounds strictly increasing, down >= 1) or reject it with a reason.
  const std::vector<std::string> pristine = {
      "5@50+12,23@110+20", "0@1+1", "3@850+10,11@1250+15",
      "5@350+12,23@520+18", "7@9+3,7@10+1,2@300+44"};
  // The grammar's bytes plus a few it does not use, so flips both keep
  // and break the structure.
  const std::string alphabet = "0123456789@+,;- x";
  Rng rng(kMutationSeed);
  std::uint64_t parsed_events = 0;
  std::set<std::string> reasons;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string spec = pristine[rng() % pristine.size()];
    const std::uint64_t edits = 1 + rng() % 3;
    for (std::uint64_t i = 0; i < edits; ++i) {
      switch (rng() % 3) {
        case 0:  // overwrite one byte with a grammar byte or any byte
          if (spec.empty()) break;
          spec[rng() % spec.size()] =
              rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                             : alphabet[rng() % alphabet.size()];
          break;
        case 1:  // truncate
          spec.resize(rng() % (spec.size() + 1));
          break;
        default: {  // splice a slice of any pristine plan in anywhere
          const std::string& donor = pristine[rng() % pristine.size()];
          const std::size_t from = rng() % donor.size();
          const std::size_t length = rng() % (donor.size() - from + 1);
          spec.insert(rng() % (spec.size() + 1), donor, from, length);
          break;
        }
      }
    }
    FaultPlan plan;
    std::string error;
    if (ParseFaultPlan(spec, &plan, &error)) {
      parsed_events += plan.size();
      for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_GE(plan.events[i].down_rounds, 1u) << spec;
        if (i > 0) {
          EXPECT_GT(plan.events[i].crash_round,
                    plan.events[i - 1].crash_round)
              << spec;
        }
      }
    } else {
      EXPECT_FALSE(error.empty()) << spec;
      reasons.insert(error);
    }
  }
  // The seed must reach accepted plans and the invariant rejections, or
  // the test proves nothing.
  EXPECT_GT(parsed_events, 0u);
  EXPECT_EQ(reasons.count("down rounds must be >= 1"), 1u);
  EXPECT_EQ(reasons.count("crash rounds must be strictly increasing"), 1u);
  EXPECT_GE(reasons.size(), 6u);
}

}  // namespace
}  // namespace stableshard::durability

// ---------------------------------------------------------------------------
// Engine-level churn goldens (full simulations; the `sim` ctest label).

namespace stableshard {
namespace {

/// Durability-enabled variant of test::SmallConfig: WAL + checkpoint
/// cadence on. Fault specs are added per test.
core::SimConfig DurableConfig(const std::string& scheduler) {
  core::SimConfig config = test::SmallConfig(scheduler);
  config.wal = true;
  config.checkpoint_interval = 200;
  return config;
}

/// The two-event churn schedule used by the goldens. Crash rounds sit past
/// the commit-latency knee of both schedulers on the SmallConfig grid AND
/// off the checkpoint cadence (a crash at a multiple of
/// checkpoint_interval finds an image taken at that very boundary, so the
/// replay window is empty and the vacuity assertions below would trip).
const char* kChurnPlan = "3@850+10,11@1250+15";

class ChurnGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnGoldenTest, RecoveryPreservesEveryProtocolOutcome) {
  const std::string scheduler = GetParam();
  const bool same_round = scheduler == "bds";

  core::SimConfig fault_free = DurableConfig(scheduler);
  core::SimConfig churn = fault_free;
  churn.faults = kChurnPlan;

  // Fault-free WAL-on baseline (serial).
  core::Simulation clean_sim(fault_free);
  const core::SimResult clean = clean_sim.Run();
  test::ExpectDrainedRunInvariants(clean_sim, clean, same_round);

  // Churn run: the engine SSHARD_CHECKs the restored image bit-identical
  // to the pre-crash snapshot and re-verifies the chain inside
  // ExecuteFault — reaching the end of Run() already proves the
  // bit-identity golden. On top: the run must drain with every invariant,
  // commit exactly the fault-free counts, and account every wall round.
  core::Simulation churn_sim(churn);
  const core::SimResult faulted = churn_sim.Run();
  test::ExpectDrainedRunInvariants(churn_sim, faulted, same_round);
  EXPECT_TRUE(churn_sim.liveness().AllOnline());
  EXPECT_EQ(churn_sim.liveness().crash_count(), 2u);

  EXPECT_EQ(faulted.injected, clean.injected);
  EXPECT_EQ(faulted.committed, clean.committed);
  EXPECT_EQ(faulted.aborted, clean.aborted);
  EXPECT_DOUBLE_EQ(faulted.avg_latency, clean.avg_latency);
  EXPECT_DOUBLE_EQ(faulted.p99_latency, clean.p99_latency);
  EXPECT_GT(faulted.recovery_rounds, 0u);
  EXPECT_GT(faulted.replay_bytes, 0u);
  EXPECT_GT(faulted.checkpoint_count, 0u);
  EXPECT_EQ(faulted.rounds_executed,
            clean.rounds_executed + faulted.recovery_rounds);
}

TEST_P(ChurnGoldenTest, WalIsTransparentWithoutFaults) {
  // WAL on, no faults: the protocol outcome must not move a bit relative
  // to the WAL-off run of the same config.
  core::SimConfig off = test::SmallConfig(GetParam());
  const core::SimResult without = test::RunWithWorkers(off, 1);
  const core::SimResult with =
      test::RunWithWorkers(DurableConfig(GetParam()), 1);
  test::ExpectBitIdenticalProtocol(without, with);
  EXPECT_EQ(without.wal_bytes, 0u);
  EXPECT_GT(with.wal_bytes, 0u);
  EXPECT_GT(with.checkpoint_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ChurnGoldenTest,
                         ::testing::Values("bds", "fds"));

/// The churn under 4- and 8-worker pools with every round pooled must
/// match the serial run bit for bit. Also the TSan CI target: any data
/// race between the crash/replay machinery (serial, between rounds) and
/// the pooled step/flush/persist paths shows up here.
class DurabilityChurnHammer : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityChurnHammer, PooledChurnMatchesSerial) {
  core::SimConfig churn = DurableConfig(GetParam());
  churn.faults = kChurnPlan;
  const core::SimResult serial = test::RunWithWorkers(churn, 1);
  EXPECT_GT(serial.replay_bytes, 0u);
  for (const std::uint32_t workers : {4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    test::ExpectBitIdenticalResults(serial,
                                    test::RunWithWorkers(churn, workers));
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, DurabilityChurnHammer,
                         ::testing::Values("bds", "fds"));

}  // namespace
}  // namespace stableshard
