#include "core/direct.h"

#include <memory>

#include "common/check.h"
#include "core/scheduler_registry.h"

namespace stableshard::core {

DirectScheduler::DirectScheduler(const net::ShardMetric& metric,
                                 CommitLedger& ledger)
    : ledger_(&ledger),
      network_(metric),
      outbox_(metric.shard_count()),
      ownership_(metric.shard_count()),
      protocol_(metric.shard_count(), outbox_, ledger,
                /*on_decided=*/nullptr),
      inject_by_home_(metric.shard_count()),
      inbox_(metric.shard_count()) {}

void DirectScheduler::Inject(const txn::Transaction& txn) {
  SSHARD_SERIAL_PHASE(ownership_);
  SSHARD_CHECK(txn.home() < inject_by_home_.size());
  inject_by_home_[txn.home()].push_back(txn);
  ++injected_waiting_;
  subs_waiting_ += txn.subs().size();
}

void DirectScheduler::BeginRound(Round round) {
  (void)round;
  ownership_.BeginStepPhase();
}

std::uint64_t DirectScheduler::RoundWork(Round round) const {
  // Each message due and each waiting subtransaction is one 2PC step on a
  // destination's ordered queue, about three gate units of serial time;
  // a destination parked on a pinned head does nothing and is not
  // counted. Measured in docs/ARCHITECTURE.md (per-round pool gate).
  constexpr std::uint64_t kUnitsPerStep = 3;
  return kUnitsPerStep * (network_.DueCount(round) + subs_waiting_);
}

void DirectScheduler::StepShard(ShardId shard, Round round) {
  const OwnershipRegistry::ShardClaim claim(ownership_, shard);
  SSHARD_OWNED(ownership_, shard);  // inbox_ and inject_by_home_ are
                                    // shard-owned
  network_.DeliverTo(shard, round, inbox_[shard]);
  for (auto& envelope : inbox_[shard]) {
    const bool handled =
        protocol_.HandleMessage(shard, envelope.payload, round);
    SSHARD_CHECK(handled && "unexpected message type in Direct");
  }

  // Ship this round's injections straight to the destinations, ordered by
  // injection id (heights use only the txn id, a total order).
  for (const txn::Transaction& txn : inject_by_home_[shard]) {
    protocol_.Coordinate(shard, txn, 0);
    const Height height{0, 0, 0, 0, txn.id()};
    for (const txn::SubTransaction& sub : txn.subs()) {
      protocol_.SendSubTxn(shard, txn, sub, height, 0, /*update=*/false);
    }
  }
  inject_by_home_[shard].clear();

  protocol_.IssueVotesForShard(shard, round);
}

void DirectScheduler::EndRound(Round round) {
  ownership_.EndParallelPhase();
  injected_waiting_ = 0;
  subs_waiting_ = 0;
  outbox_.Flush(network_, round);
  ledger_->FlushRound(round);
}

void DirectScheduler::SealRound(Round round, std::uint32_t parts) {
  ownership_.BeginFlushPhase();
  outbox_.Seal();
  network_.flush_cap.Acquire();  // annotation-only, no runtime effect
  ledger_->SealJournal(round, parts);
}

void DirectScheduler::FlushRoundPartition(Round round, std::uint32_t part,
                                          std::uint32_t parts) {
  const auto [begin, end] = FlushShardRange(shard_count(), part, parts);
  const OwnershipRegistry::RangeClaim claim(ownership_, begin, end);
  outbox_.FlushSealedTo(network_, round, begin, end);
  ledger_->ResolveSealedPartition(part, round);
}

void DirectScheduler::FinishRound(Round round) {
  ownership_.EndParallelPhase();
  injected_waiting_ = 0;
  subs_waiting_ = 0;
  outbox_.FinishSealedFlush(network_);
  ledger_->FinishSealedRound(round);
}

bool DirectScheduler::Idle() const {
  return injected_waiting_ == 0 && !network_.HasPending() &&
         protocol_.Idle();
}

namespace {
const SchedulerRegistrar kDirectRegistrar{
    "direct", [](const SimConfig& config, SchedulerDeps& deps) {
      (void)config;
      return std::unique_ptr<Scheduler>(
          std::make_unique<DirectScheduler>(deps.metric, deps.ledger));
    }};
}  // namespace

}  // namespace stableshard::core
