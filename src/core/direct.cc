#include "core/direct.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "core/scheduler_registry.h"

namespace stableshard::core {

DirectScheduler::DirectScheduler(const net::ShardMetric& metric,
                                 CommitLedger& ledger)
    : MessagingScheduler(metric, ledger),
      protocol_(metric.shard_count(), outbox_, ledger,
                /*on_decided=*/nullptr),
      inject_by_home_(metric.shard_count()) {}

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
  // Every waiting injection ships in this round's StepShard fan-out.
  injected_waiting_ = 0;
  subs_this_round_ = std::exchange(subs_waiting_, 0);
}

std::uint64_t DirectScheduler::RoundWork(Round round) const {
  // Each message due and each waiting subtransaction is one 2PC step on a
  // destination's ordered queue, about three gate units of serial time;
  // a destination parked on a pinned head does nothing and is not
  // counted. Measured in docs/ARCHITECTURE.md (per-round pool gate).
  constexpr std::uint64_t kUnitsPerStep = 3;
  return kUnitsPerStep * (network_.DueCount(round) + subs_this_round_);
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
