// Direct scheduler — the uncoordinated baseline.
//
// No epochs, no leader, no coloring: the home shard of each transaction
// immediately ships the subtransactions to their destination shards, where
// they queue in global transaction-id order (a total order, so all shards
// serialize conflicting transactions identically) and commit through the
// same vote/confirm protocol as FDS, coordinated by the home shard.
//
// This is the natural "do nothing clever" comparator for both algorithms:
// it has minimal scheduling latency at low load, but under conflicts every
// transaction pays a full vote round-trip per queue position instead of
// committing color-parallel batches, and under bursts the id-ordered queue
// is oblivious to the conflict structure.
//
// Shard-parallel decomposition: injections are bucketed by home shard and
// shipped from that shard's StepShard; all protocol state is already
// partitioned per shard inside CommitProtocol.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/commit_protocol.h"
#include "core/messages.h"
#include "core/ownership.h"
#include "core/scheduler.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"

namespace stableshard::core {

class DirectScheduler final : public Scheduler {
 public:
  DirectScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  void Inject(const txn::Transaction& txn) override;
  void BeginRound(Round round) override;
  std::uint64_t RoundWork(Round round) const override;
  void StepShard(ShardId shard, Round round) override;
  void EndRound(Round round) override
      SSHARD_EXCLUDES(outbox_.sealed_cap, ledger_->journal_cap);
  void SealRound(Round round, std::uint32_t parts) override
      SSHARD_ACQUIRE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);
  void FlushRoundPartition(Round round, std::uint32_t part,
                           std::uint32_t parts) override
      SSHARD_REQUIRES(outbox_.sealed_cap, network_.flush_cap,
                      ledger_->journal_cap);
  void FinishRound(Round round) override
      SSHARD_RELEASE(outbox_.sealed_cap, network_.flush_cap,
                     ledger_->journal_cap);
  ShardId shard_count() const override {
    return network_.metric().shard_count();
  }
  bool Idle() const override;
  std::uint64_t MessagesSent() const override {
    return network_.stats().messages_sent;
  }
  std::uint64_t PayloadUnits() const override {
    return network_.stats().payload_units;
  }
  net::RingMemory NetworkMemory() const override {
    return network_.ring_memory();
  }
  net::LaneMemory OutboxMemory() const override {
    return outbox_.lane_memory();
  }
  net::ShardTraffic ShardTrafficFor(ShardId shard) const override {
    return network_.shard_traffic(shard);
  }
  std::uint64_t QueueDepth(ShardId shard) const override {
    return network_.pending_for(shard);
  }
  const char* name() const override { return "direct"; }

 private:
  CommitLedger* ledger_;
  net::Network<Message> network_;
  net::OutboxSet<Message> outbox_;
  /// Debug-build shard-ownership checker (see core/ownership.h). Empty in
  /// Release.
  OwnershipRegistry ownership_;
  CommitProtocol protocol_;
  std::vector<std::vector<txn::Transaction>> inject_by_home_;
  /// Per-shard delivery buffers: DeliverTo swaps the due ring slot with the
  /// shard's buffer, recycling envelope capacity across rounds (shard-owned,
  /// so concurrent StepShard calls never share one).
  std::vector<std::vector<net::Network<Message>::Envelope>> inbox_;
  std::uint64_t injected_waiting_ = 0;
  /// Subtransactions of the waiting injections: what StepShard ships.
  std::uint64_t subs_waiting_ = 0;
};

}  // namespace stableshard::core
