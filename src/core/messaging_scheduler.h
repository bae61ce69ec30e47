// Shared base of the message-passing schedulers (BDS, FDS, Direct).
//
// All three exchange core::Message over one net::Network, queue the sends
// of StepShard on one net::OutboxSet (lane == sending shard), journal
// confirms through the CommitLedger, and guard shard-owned state with an
// OwnershipRegistry. The round epilogue over those pieces is therefore the
// same for each of them and is implemented here once:
//
//   SealRound(r, parts)            swap the outbox lanes and the ledger
//                                  journal (and its WAL lanes) into their
//                                  sealed buffers; arm the flush-phase
//                                  ownership guards.
//   FlushRoundPartition(r, p, n)   claim destination range p of n
//                                  (FlushShardRange), deposit the sealed
//                                  sends addressed to it, resolve the
//                                  journal entries partition p owns.
//   FinishRound(r)                 fold the sender-side traffic, network
//                                  counters and completions serially;
//                                  retire the sealed buffers.
//
// Scheduler::EndRound runs the same triple with one partition, so a serial
// round and a pooled round differ only in how many partitions drain the
// sealed buffers — never in what they produce.
//
// The base also owns the per-shard delivery buffers (`inbox_`: DeliverTo
// swaps the due ring slot with the shard's buffer, recycling envelope
// capacity across rounds; shard-owned, so concurrent StepShard calls never
// share one) and answers the network/outbox introspection of the Scheduler
// interface.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/messages.h"
#include "core/ownership.h"
#include "core/scheduler.h"
#include "net/metric.h"
#include "net/network.h"
#include "net/outbox.h"

namespace stableshard::core {

class MessagingScheduler : public Scheduler {
 public:
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

  ShardId shard_count() const override { return outbox_.shard_count(); }
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

  /// The shard-ownership checker, exposed so wrappers (backpressure) can
  /// guard their own serial-only state against the same phase machine.
  const OwnershipRegistry& ownership() const { return ownership_; }

 protected:
  MessagingScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  CommitLedger* ledger_;
  net::Network<Message> network_;
  net::OutboxSet<Message> outbox_;
  /// Debug-build shard-ownership checker (see core/ownership.h): StepShard
  /// claims its shard, FlushRoundPartition its destination range, and
  /// shard-owned helpers guard with SSHARD_OWNED. Empty in Release.
  OwnershipRegistry ownership_;
  std::vector<std::vector<net::Network<Message>::Envelope>> inbox_;
};

}  // namespace stableshard::core
