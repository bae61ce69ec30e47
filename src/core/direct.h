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

#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/commit_protocol.h"
#include "core/messaging_scheduler.h"
#include "net/metric.h"

namespace stableshard::core {

class DirectScheduler final : public MessagingScheduler {
 public:
  DirectScheduler(const net::ShardMetric& metric, CommitLedger& ledger);

  void Inject(const txn::Transaction& txn) override;
  void BeginRound(Round round) override;
  std::uint64_t RoundWork(Round round) const override;
  void StepShard(ShardId shard, Round round) override;
  bool Idle() const override;
  const char* name() const override { return "direct"; }

 private:
  CommitProtocol protocol_;
  std::vector<std::vector<txn::Transaction>> inject_by_home_;
  std::uint64_t injected_waiting_ = 0;
  /// Subtransactions of the waiting injections. BeginRound moves the count
  /// to subs_this_round_: the round's StepShard fan-out ships them all.
  std::uint64_t subs_waiting_ = 0;
  /// What RoundWork counts: the subtransactions this round ships.
  std::uint64_t subs_this_round_ = 0;
};

}  // namespace stableshard::core
