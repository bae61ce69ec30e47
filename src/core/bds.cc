#include "core/bds.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "core/scheduler_registry.h"

namespace stableshard::core {

BdsScheduler::BdsScheduler(const net::ShardMetric& metric,
                           CommitLedger& ledger, const BdsConfig& config)
    : MessagingScheduler(metric, ledger),
      metric_(&metric),
      config_(config),
      pending_(metric.shard_count()),
      home_(metric.shard_count()),
      co_(metric.shard_count()),
      dest_pending_(metric.shard_count()) {
  SSHARD_CHECK(config.color_leaders >= 1 &&
               "bds color_leaders must be positive");
  color_leaders_ = std::min<std::uint32_t>(config.color_leaders,
                                           metric.shard_count());
  // BDS is specified for the uniform model: Phase offsets assume
  // unit-distance delivery everywhere.
  for (ShardId a = 0; a < metric.shard_count(); ++a) {
    for (ShardId b = a + 1; b < metric.shard_count(); ++b) {
      SSHARD_CHECK(metric.distance(a, b) == 1 &&
                   "BDS requires the uniform communication model");
    }
  }
}

void BdsScheduler::Inject(const txn::Transaction& txn) {
  SSHARD_SERIAL_PHASE(ownership_);
  SSHARD_CHECK(txn.home() < pending_.size());
  pending_[txn.home()].push_back(txn);
}

std::uint64_t BdsScheduler::pending_in_queues() const {
  std::uint64_t total = 0;
  for (const auto& queue : pending_) total += queue.size();
  return total;
}

bool BdsScheduler::Idle() const {
  if (network_.HasPending() || !leader_inbox_.empty()) return false;
  for (const HomeState& home : home_) {
    if (!home.in_epoch.empty()) return false;
  }
  for (const CoLeaderState& co : co_) {
    if (!co.by_color.empty() || !co.in_flight.empty()) return false;
  }
  return pending_in_queues() == 0;
}

double BdsScheduler::LeaderQueueMax() const {
  // The hottest coordination queue right now: the leader's coloring inbox
  // plus, per shard, the 2PC records it is driving (home records in the
  // legacy mode, co-leader records and parked color classes in the sharded
  // one). Sizes only — deterministic whatever the worker count.
  std::uint64_t max_load = 0;
  for (ShardId shard = 0; shard < shard_count(); ++shard) {
    std::uint64_t load = home_[shard].in_epoch.size();
    if (shard == leader_) load += leader_inbox_.size();
    const CoLeaderState& co = co_[shard];
    load += co.in_flight.size();
    // lint:allow(unordered-iteration): order-independent sum of sizes.
    for (const auto& [color, txns] : co.by_color) load += txns.size();
    max_load = std::max(max_load, load);
  }
  return static_cast<double>(max_load);
}

void BdsScheduler::BeginRound(Round round) {
  // The serial prologue itself may touch any shard; arm the step-phase
  // guards for the StepShard fan-out that follows (core/ownership.h).
  ownership_.BeginStepPhase();
  phase_ = Phase::kNone;
  send_color_.reset();

  // Epoch transition: the epoch ends exactly at epoch_start + 2 + 4*colors
  // (all color-commit confirms arrived in the previous round).
  if (round == 0 || (epoch_end_ != kNoRound && round == epoch_end_)) {
    if (round != 0) {
      for (const HomeState& home : home_) {
        SSHARD_CHECK(home.in_epoch.empty() &&
                     "epoch ended with unresolved transactions");
      }
      for (const CoLeaderState& co : co_) {
        SSHARD_CHECK(co.by_color.empty() && co.in_flight.empty() &&
                     "epoch ended with unresolved co-leader state");
      }
      ++epoch_index_;
    }
    epoch_start_ = round;
    epoch_end_ = kNoRound;
    num_colors_ = 0;
    // The leader rotates every epoch (the paper's load-balancing rule).
    leader_ = static_cast<ShardId>(epoch_index_ % metric_->shard_count());
    phase_ = Phase::kShipPending;
    return;
  }

  if (round == epoch_start_ + 1) {
    phase_ = Phase::kLeaderColor;
    return;
  }

  if (epoch_end_ != kNoRound && round >= epoch_start_ + 2 &&
      round < epoch_end_) {
    const Round offset = round - epoch_start_ - 2;
    if (offset % 4 == 0) {
      const Color color = static_cast<Color>(offset / 4);
      if (color < num_colors_) send_color_ = color;
    }
  }
}

std::uint64_t BdsScheduler::RoundWork(Round round) const {
  // Uniform metric: every message is delivered the round after it was
  // sent, so everything in flight is due now — an O(1) DueCount.
  std::uint64_t work = network_.in_flight();
  SSHARD_DCHECK(work == network_.DueCount(round));
  switch (phase_) {
    case Phase::kShipPending:
      // Every home ships its own queue: the one BDS round whose work
      // scales with the backlog and splits across shards.
      work += pending_in_queues();
      break;
    case Phase::kLeaderColor:
      // The batches all land at the leader, which colors them alone.
      work -= network_.DueCountFor(leader_, round);
      break;
    case Phase::kNone:
      break;
  }
  return work;
}

void BdsScheduler::StepShard(ShardId shard, Round round) {
  const OwnershipRegistry::ShardClaim claim(ownership_, shard);
  network_.DeliverTo(shard, round, inbox_[shard]);
  for (auto& envelope : inbox_[shard]) {
    HandleMessage(shard, envelope.from, envelope.payload, round);
  }
  switch (phase_) {
    case Phase::kShipPending:
      ShipPending(shard);
      break;
    case Phase::kLeaderColor:
      if (shard == leader_) LeaderColorAndReply(round);
      break;
    case Phase::kNone:
      break;
  }
  if (send_color_.has_value()) {
    if (color_leaders_ > 1) {
      CoLeaderSendColor(shard, *send_color_);
    } else {
      SendSubTxnsForColor(shard, *send_color_);
    }
  }
}

void BdsScheduler::ShipPending(ShardId home) {
  // Phase 1: the home shard ships its whole pending queue to the leader.
  // Also resets the home's per-color schedule from the finished epoch.
  // In the sharded-leader mode the home keeps no 2PC record — the
  // co-leader the color class lands on coordinates instead.
  SSHARD_OWNED(ownership_, home);
  HomeState& state = home_[home];
  state.by_color.clear();
  auto& queue = pending_[home];
  if (queue.empty()) return;
  TxnBatchMsg batch;
  batch.epoch = epoch_index_;
  batch.txns.reserve(queue.size());
  while (!queue.empty()) {
    txn::Transaction txn = std::move(queue.front());
    queue.pop_front();
    if (color_leaders_ <= 1) {
      InFlightTxn in_flight;
      in_flight.txn = txn;
      state.in_epoch.emplace(txn.id(), std::move(in_flight));
    }
    batch.txns.push_back(std::move(txn));
  }
  const std::uint64_t units = batch.txns.size();
  outbox_.Send(home, leader_, Message{std::move(batch)}, units);
}

void BdsScheduler::LeaderColorAndReply(Round round) {
  // Phase 2: color the shard-granularity conflict graph with <= Delta+1
  // colors and return the assignment; the color count fixes the epoch end.
  // The view and the coloring's internal scratch live in the step arena:
  // one Reset here recycles the previous epoch's allocations, so steady
  // state epochs touch no heap.
  SSHARD_OWNED(ownership_, leader_);
  step_arena_.Reset();
  common::ArenaVector<const txn::Transaction*> view{
      common::ArenaAllocator<const txn::Transaction*>(&step_arena_)};
  view.reserve(leader_inbox_.size());
  for (const auto& txn : leader_inbox_) view.push_back(&txn);
  const txn::ColoringResult coloring =
      ColorShardCliques(view, config_.coloring, step_arena_);
  SSHARD_DCHECK(IsProperShardColoring(view, coloring.color));

  num_colors_ = coloring.num_colors;
  epoch_end_ = epoch_start_ + 2 + 4ull * num_colors_;
  max_epoch_length_ = std::max(max_epoch_length_, epoch_end_ - epoch_start_);
  (void)round;

  if (color_leaders_ > 1) {
    // Sharded-leader mode: ship each whole color class to its co-leader,
    // which coordinates Phase 3 for the class. The class arrives at offset
    // 2 — exactly when color 0's sends are due, and deliveries are handled
    // before phase actions, so the schedule matches the legacy path
    // round-for-round.
    std::vector<ColorClassMsg> per_color(num_colors_);
    for (std::size_t v = 0; v < view.size(); ++v) {
      per_color[coloring.color[v]].txns.push_back(*view[v]);
    }
    for (Color color = 0; color < num_colors_; ++color) {
      ColorClassMsg& msg = per_color[color];
      if (msg.txns.empty()) continue;
      msg.epoch = epoch_index_;
      msg.color = color;
      const ShardId co_leader = CoLeaderFor(leader_, color, color_leaders_,
                                            metric_->shard_count());
      const std::uint64_t units = msg.txns.size();
      outbox_.Send(leader_, co_leader, Message{std::move(msg)}, units);
    }
  } else {
    // Group assignments by home shard and reply. Home shards rebuild their
    // by_color schedule from the reply — the leader keeps nothing.
    std::vector<ColorAssignMsg> per_home(metric_->shard_count());
    for (std::size_t v = 0; v < view.size(); ++v) {
      per_home[view[v]->home()].colors.emplace_back(view[v]->id(),
                                                    coloring.color[v]);
    }
    for (ShardId home = 0; home < per_home.size(); ++home) {
      if (per_home[home].colors.empty()) continue;
      per_home[home].epoch = epoch_index_;
      const std::uint64_t units = per_home[home].colors.size();
      outbox_.Send(leader_, home, Message{std::move(per_home[home])}, units);
    }
  }
  // Broadcast the plan so every shard knows the epoch length.
  for (ShardId shard = 0; shard < metric_->shard_count(); ++shard) {
    EpochPlanMsg plan;
    plan.epoch = epoch_index_;
    plan.num_colors = num_colors_;
    outbox_.Send(leader_, shard, Message{plan});
  }
  leader_inbox_.clear();
}

void BdsScheduler::SendSubTxnsForColor(ShardId home, Color color) {
  // Phase 3, per-color round 1: the home shard splits its color-`color`
  // transactions into subtransactions sent to the destination shards.
  SSHARD_OWNED(ownership_, home);
  HomeState& state = home_[home];
  if (color >= state.by_color.size()) return;
  for (const TxnId id : state.by_color[color]) {
    const auto it = state.in_epoch.find(id);
    SSHARD_CHECK(it != state.in_epoch.end());
    const txn::Transaction& txn = it->second.txn;
    for (const txn::SubTransaction& sub : txn.subs()) {
      SubTxnMsg msg;
      msg.txn = id;
      msg.coordinator = txn.home();
      msg.height = Height{0, 0, 0, color, id};
      msg.sub = sub;
      outbox_.Send(home, sub.destination, Message{std::move(msg)});
    }
  }
}

void BdsScheduler::CoLeaderSendColor(ShardId shard, Color color) {
  // Phase 3, per-color round 1 (sharded-leader mode): the color's
  // co-leader splits its whole class into subtransactions and opens the
  // 2PC records it will drive. Only the mapped co-leader has the class.
  SSHARD_OWNED(ownership_, shard);
  if (shard != CoLeaderFor(leader_, color, color_leaders_,
                           metric_->shard_count())) {
    return;
  }
  CoLeaderState& state = co_[shard];
  const auto it = state.by_color.find(color);
  if (it == state.by_color.end()) return;
  for (txn::Transaction& txn : it->second) {
    const TxnId id = txn.id();
    for (const txn::SubTransaction& sub : txn.subs()) {
      SubTxnMsg msg;
      msg.txn = id;
      msg.coordinator = shard;
      msg.height = Height{0, 0, 0, color, id};
      msg.sub = sub;
      outbox_.Send(shard, sub.destination, Message{std::move(msg)});
    }
    InFlightTxn in_flight;
    in_flight.color = color;
    in_flight.txn = std::move(txn);
    state.in_flight.emplace(id, std::move(in_flight));
  }
  state.by_color.erase(it);
}

void BdsScheduler::CollectVote(
    std::unordered_map<TxnId, InFlightTxn>& records, const VoteMsg& vote,
    ShardId shard) {
  // Phase 3 round 3: the coordinator (home shard in the legacy mode,
  // co-leader in the sharded one) collects votes; once complete it
  // confirms and drops the 2PC record (the outcome is sealed here).
  auto it = records.find(vote.txn);
  SSHARD_CHECK(it != records.end());
  InFlightTxn& in_flight = it->second;
  if (vote.commit) {
    ++in_flight.commit_votes;
  } else {
    ++in_flight.abort_votes;
  }
  const auto expected =
      static_cast<std::uint32_t>(in_flight.txn.subs().size());
  if (in_flight.commit_votes + in_flight.abort_votes == expected) {
    const bool commit = in_flight.abort_votes == 0;
    for (const txn::SubTransaction& sub : in_flight.txn.subs()) {
      ConfirmMsg confirm;
      confirm.txn = vote.txn;
      confirm.commit = commit;
      outbox_.Send(shard, sub.destination, Message{confirm});
    }
    records.erase(it);
  }
}

void BdsScheduler::HandleMessage(ShardId shard, ShardId from,
                                 Message& message, Round round) {
  // Every branch mutates state owned by `shard` (leader inbox, home 2PC
  // records, destination residue) — reject deliveries routed to a shard
  // the calling worker does not own.
  SSHARD_OWNED(ownership_, shard);
  (void)from;
  if (auto* batch = std::get_if<TxnBatchMsg>(&message)) {
    // Phase 1 arrival at the leader.
    SSHARD_CHECK(shard == leader_);
    for (auto& txn : batch->txns) leader_inbox_.push_back(std::move(txn));
  } else if (auto* assign = std::get_if<ColorAssignMsg>(&message)) {
    // Phase 2 arrival at a home shard: record colors and rebuild the
    // per-color send schedule for this epoch.
    HomeState& state = home_[shard];
    for (const auto& [id, color] : assign->colors) {
      const auto it = state.in_epoch.find(id);
      SSHARD_CHECK(it != state.in_epoch.end() &&
                   "color assigned to unknown transaction");
      it->second.color = color;
      if (state.by_color.size() <= color) state.by_color.resize(color + 1);
      state.by_color[color].push_back(id);
    }
  } else if (auto* color_class = std::get_if<ColorClassMsg>(&message)) {
    // Sharded-leader mode, Phase 2 arrival at a co-leader: park the whole
    // color class until its Phase-3 slot.
    SSHARD_CHECK(color_leaders_ > 1 &&
                 "ColorClassMsg outside the sharded-leader mode");
    auto& slot = co_[shard].by_color[color_class->color];
    SSHARD_CHECK(slot.empty() && "color class delivered twice");
    slot = std::move(color_class->txns);
  } else if (std::get_if<EpochPlanMsg>(&message) != nullptr) {
    // Epoch plan broadcast: models the communication; the round plan is
    // derived serially in BeginRound from the same data.
  } else if (auto* sub_msg = std::get_if<SubTxnMsg>(&message)) {
    // Phase 3 round 2: destination evaluates and votes.
    const bool vote = ledger_->EvaluateSub(sub_msg->sub);
    dest_pending_[shard].emplace(sub_msg->txn, sub_msg->sub);
    VoteMsg vote_msg;
    vote_msg.txn = sub_msg->txn;
    vote_msg.dest = shard;
    vote_msg.commit = vote;
    outbox_.Send(shard, sub_msg->coordinator, Message{vote_msg});
  } else if (auto* vote_msg = std::get_if<VoteMsg>(&message)) {
    // Votes arrive at whichever shard coordinates the transaction: the
    // home shard in the legacy mode, the color's co-leader in the sharded
    // one (the destination replied to SubTxnMsg::coordinator either way).
    CollectVote(color_leaders_ > 1 ? co_[shard].in_flight
                                   : home_[shard].in_epoch,
                *vote_msg, shard);
  } else if (auto* confirm = std::get_if<ConfirmMsg>(&message)) {
    // Phase 3 round 4: destination commits/aborts and clears state.
    auto it = dest_pending_[shard].find(confirm->txn);
    SSHARD_CHECK(it != dest_pending_[shard].end());
    ledger_->ApplyConfirmDeferred(confirm->txn, it->second, confirm->commit,
                                  round);
    dest_pending_[shard].erase(it);
  } else {
    SSHARD_CHECK(false && "unexpected message type in BDS");
  }
}

namespace {
// "bds": the paper's single-leader Algorithm 1 at the default
// SimConfig::bds_color_leaders = 1; above 1 the epoch's color classes are
// committed across that many co-leader shards (reported as "bds_sharded").
const SchedulerRegistrar kBdsRegistrar{
    "bds", [](const SimConfig& config, SchedulerDeps& deps) {
      BdsConfig bds;
      bds.coloring = config.coloring;
      bds.color_leaders = config.bds_color_leaders;
      return std::unique_ptr<Scheduler>(
          std::make_unique<BdsScheduler>(deps.metric, deps.ledger, bds));
    }};
}  // namespace

}  // namespace stableshard::core
