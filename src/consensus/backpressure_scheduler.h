// Backpressure scheduler: traffic-aware load shedding on hot destinations.
//
// The paper's stability argument assumes cluster leaders keep pace with
// adversarial injection; the s = 1024 sweeps and the `hot_destination`
// Zipf workload show what happens when they do not — one destination
// saturates its leader queue (sch_ldr grows without bound for the hot
// cluster) while the rest of the system idles. This scheduler wraps the
// FDS commit protocol with *injection-side admission control* driven by
// the per-shard traffic stats the network already keeps:
//
//   * Every BeginRound it reads, for each destination shard d, a
//     congestion signal: the messages that arrived for d during the
//     previous round (net::ShardTraffic::InflowSinceSnapshot over the
//     wrapped FDS network — a cheap O(s) readout, no per-send cost)
//     joined by max with d's standing backlog (Scheduler::QueueDepth:
//     undelivered messages plus the sch_ldr of the clusters d leads).
//     Inflow catches arrival spikes; the backlog catches slow
//     saturation that per-round inflow alone hides between FDS's bursty
//     epoch-boundary colorings.
//   * A destination whose signal reaches `high_watermark` is marked
//     hot. While a shard is hot, Inject parks transactions homed on it in
//     that shard's spill queue instead of admitting them into the FDS
//     protocol (the ledger has already registered them, so they stay
//     visible as pending — the accounting identity is untouched).
//   * Once the hot shard's signal falls back to `low_watermark`, the mark
//     clears and the spill queue re-enters in injection order — *paced*,
//     at most the headroom under the high watermark per round (floored at
//     one), so re-admission cannot recreate the very spike it absorbed.
//     The high/low gap is classic hysteresis: it stops the admission gate
//     from flapping when the signal hovers at the threshold.
//
// Drain guarantee: Idle() reports busy while any spill queue is
// non-empty, and once injection stops, inflow decays to zero, every hot
// mark clears, and the spill re-enters — so a run that would drain under
// plain FDS still drains under backpressure (asserted by
// tests/backpressure_test.cc and the matrix harness, which picks the
// registered "backpressure" name up automatically).
//
// Determinism: all decisions (watermark crossings, re-admission) happen
// in serial phases and branch only on counters that the pipelined
// epilogue folds back bit-identically, so workers 1 vs N and pipeline
// on/off produce bit-identical results — the same contract every other
// scheduler honours (see core/scheduler.h).
//
// This is the consensus-layer view of the classic bounded-queue admission
// controller: shedding happens before the transaction enters the commit
// protocol, which is the only point where load can be rejected without
// violating the protocol's agreement guarantees mid-flight.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/fds.h"
#include "core/scheduler.h"

namespace stableshard::consensus {

/// Admission-control knobs (SimConfig::backpressure_high / _low; the
/// registry builder always copies the validated config in, and direct
/// construction shares the same core::kDefaultBackpressure* constants).
struct BackpressureConfig {
  /// Congestion signal (max of round inflow and standing backlog, see
  /// the class comment) at which a destination is marked hot.
  std::uint64_t high_watermark = core::kDefaultBackpressureHigh;
  /// Signal at which a hot destination clears; must be <= high.
  std::uint64_t low_watermark = core::kDefaultBackpressureLow;
};

class BackpressureScheduler final : public core::Scheduler {
 public:
  /// Wraps a fresh FdsScheduler over the same metric/hierarchy/ledger.
  /// Dies (SSHARD_CHECK) when low_watermark > high_watermark.
  BackpressureScheduler(const net::ShardMetric& metric,
                        const cluster::Hierarchy& hierarchy,
                        core::CommitLedger& ledger,
                        const core::FdsConfig& fds_config,
                        const BackpressureConfig& config);

  /// Parks the transaction when its home shard is hot; admits otherwise.
  void Inject(const txn::Transaction& txn) override;

  /// Serial prologue: read last round's per-destination inflow, update the
  /// hot marks (hysteresis), re-admit spill queues whose shard cleared,
  /// re-baseline the inflow snapshot, then delegate to FDS.
  void BeginRound(Round round) override;

  // The round body and the epilogue triple delegate unchanged — admission
  // control never touches in-round state, which is what keeps the
  // shard-parallel and pipelined paths bit-identical for free.
  std::uint64_t RoundWork(Round round) const override {
    return inner_->RoundWork(round);
  }
  void StepShard(ShardId shard, Round round) override;
  void SealRound(Round round, std::uint32_t parts) override;
  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t parts) override;
  void FinishRound(Round round) override;

  ShardId shard_count() const override { return inner_->shard_count(); }
  /// Busy while the wrapped FDS is busy *or* any spill queue holds parked
  /// transactions (they are pending in the ledger and must re-enter).
  bool Idle() const override;
  double LeaderQueueMean() const override {
    return inner_->LeaderQueueMean();
  }
  double LeaderQueueMax() const override {
    return inner_->LeaderQueueMax();
  }
  std::uint64_t MessagesSent() const override {
    return inner_->MessagesSent();
  }
  std::uint64_t PayloadUnits() const override {
    return inner_->PayloadUnits();
  }
  net::RingMemory NetworkMemory() const override {
    return inner_->NetworkMemory();
  }
  net::LaneMemory OutboxMemory() const override {
    return inner_->OutboxMemory();
  }
  common::ArenaMemoryStats ArenaMemory() const override {
    return inner_->ArenaMemory();
  }
  net::ShardTraffic ShardTrafficFor(ShardId shard) const override {
    return inner_->ShardTrafficFor(shard);
  }
  std::uint64_t QueueDepth(ShardId shard) const override {
    return inner_->QueueDepth(shard);
  }
  std::uint64_t SpilledTxns() const override { return spilled_now_; }
  void OnShardLiveness(ShardId shard,
                       durability::ShardLiveness state) override {
    inner_->OnShardLiveness(shard, state);
  }
  const char* name() const override { return "backpressure"; }

  /// Introspection (tests and the head-to-head bench).
  bool IsHot(ShardId shard) const { return hot_[shard] != 0; }
  std::uint64_t hot_shard_count() const;
  std::uint64_t deferred_total() const { return deferred_total_; }
  std::uint64_t readmitted_total() const { return readmitted_total_; }
  std::uint64_t hot_transitions() const { return hot_transitions_; }
  const core::FdsScheduler& inner() const { return *inner_; }

 private:
  std::unique_ptr<core::FdsScheduler> inner_;
  BackpressureConfig config_;
  /// hot_[d] != 0: destination d crossed the high watermark and has not
  /// yet fallen back to the low one (std::uint8_t — vector<bool> has no
  /// per-element addresses and its proxies pessimize the serial scan).
  std::vector<std::uint8_t> hot_;
  /// spill_[home]: transactions deferred at Inject, in injection order.
  /// Entries before spill_head_[home] were already re-admitted — a head
  /// cursor instead of erase-from-front keeps paced drain O(admitted)
  /// per round; the vector's capacity is released (swap-to-empty) once
  /// everything re-entered, so a hot burst never pins peak memory.
  std::vector<std::vector<txn::Transaction>> spill_;
  std::vector<std::size_t> spill_head_;
  std::uint64_t spilled_now_ = 0;      ///< total parked right now
  std::uint64_t deferred_total_ = 0;   ///< Inject calls that parked
  std::uint64_t readmitted_total_ = 0; ///< parked txns re-admitted
  std::uint64_t hot_transitions_ = 0;  ///< cold->hot watermark crossings
};

}  // namespace stableshard::consensus
