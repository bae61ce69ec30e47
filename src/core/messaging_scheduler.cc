#include "core/messaging_scheduler.h"

namespace stableshard::core {

MessagingScheduler::MessagingScheduler(const net::ShardMetric& metric,
                                       CommitLedger& ledger)
    : ledger_(&ledger),
      network_(metric),
      outbox_(metric.shard_count()),
      ownership_(metric.shard_count()),
      inbox_(metric.shard_count()) {}

void MessagingScheduler::SealRound(Round round, std::uint32_t parts) {
  ownership_.BeginFlushPhase();
  outbox_.Seal();
  network_.flush_cap.Acquire();  // annotation-only, no runtime effect
  ledger_->SealJournal(round, parts);
}

void MessagingScheduler::FlushRoundPartition(Round round, std::uint32_t part,
                                             std::uint32_t parts) {
  const auto [begin, end] = FlushShardRange(shard_count(), part, parts);
  const OwnershipRegistry::RangeClaim claim(ownership_, begin, end);
  outbox_.FlushSealedTo(network_, round, begin, end);
  ledger_->ResolveSealedPartition(part, round);
}

void MessagingScheduler::FinishRound(Round round) {
  ownership_.EndParallelPhase();
  outbox_.FinishSealedFlush(network_);
  ledger_->FinishSealedRound(round);
}

}  // namespace stableshard::core
