// Scheduler interface.
//
// A Scheduler consumes injected transactions and drives the per-round
// protocol that eventually commits (or aborts) each one through the
// CommitLedger. The engine calls Inject() for every transaction generated
// by the adversary at the start of a round, then executes the round in
// three phases:
//
//   BeginRound(round)        serial — epoch transitions, leader selection,
//                            per-round work planning; no message traffic.
//   StepShard(shard, round)  parallel-safe — runs shard `shard`'s slice of
//                            the round: drains Network::DeliverTo(shard),
//                            executes phase logic that touches only
//                            shard-owned state, and queues sends on the
//                            shard's OutboxSet lane. The engine may invoke
//                            StepShard for distinct shards concurrently;
//                            implementations must not touch shared mutable
//                            state here (ledger bookkeeping goes through
//                            CommitLedger::ApplyConfirmDeferred).
//   the round epilogue       publishes the round's queued sends and ledger
//                            bookkeeping at the round boundary.
//
// The epilogue is one triple, whether the round ran serially or pooled:
//
//   SealRound(round, parts)             serial, cheap — swap the outbox and
//                                       ledger-journal double buffers.
//   FlushRoundPartition(round, p, parts) parallel-safe for distinct p —
//                                       drain partition p of the sealed
//                                       buffers: deposit outbox items whose
//                                       *destination* falls in the
//                                       partition's shard range (each
//                                       destination ring touched by exactly
//                                       one worker, per-destination order
//                                       preserved by construction) and
//                                       resolve the journal entries the
//                                       partition owns.
//   FinishRound(round)                  serial epilogue — fold global
//                                       counters/latency, retire buffers.
//
// EndRound(round) is that triple with a single partition, run on the
// calling thread; the engine's pooled driver instead fans the partitions
// out across its workers. The partition count never shows in the results
// (see FlushShardRange), so `worker_threads = 1` and `worker_threads = N`
// produce bit-identical results (asserted by tests/parallel_engine_test
// and `parallel_rounds --check`): StepShard bodies are pairwise
// independent and all cross-shard effects funnel through the
// shard-ordered flush. Step(round) is the serial convenience driver for
// tests and examples. Between SealRound and FinishRound the engine may run
// the adversary's next-round generation on the driving thread — scheduler
// state is not touched during that window, and Inject/BeginRound of the
// next round happen strictly after FinishRound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/arena.h"
#include "common/types.h"
#include "durability/liveness.h"
#include "net/network.h"
#include "net/outbox.h"
#include "txn/transaction.h"

namespace stableshard::core {

/// Contiguous destination-shard range owned by flush partition `part` of
/// `parts`: ranges cover [0, shards) disjointly, so per-destination state is
/// touched by exactly one partition whatever `parts` is — which is why the
/// partition count never shows in the results.
inline std::pair<ShardId, ShardId> FlushShardRange(ShardId shards,
                                                   std::uint32_t part,
                                                   std::uint32_t parts) {
  const ShardId chunk = (shards + parts - 1) / parts;
  const ShardId begin = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(chunk) * part,
                              shards));
  const ShardId end = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(begin) + chunk,
                              shards));
  return {begin, end};
}

// Call-order contract (the engine, and any conforming driver, guarantees
// it): per round r the sequence is
//
//   Inject* -> BeginRound(r) [-> RoundWork(r)] -> StepShard(shard, r)
//           for every shard -> SealRound(r) -> FlushRoundPartition* ->
//           FinishRound(r)
//
// (EndRound(r) being the one-partition instance of the epilogue), with
// Inject only ever called between rounds (after the previous round's
// FinishRound, before BeginRound). Thread ownership: everything
// except StepShard and FlushRoundPartition runs on the driving thread;
// StepShard may run concurrently for distinct shards, FlushRoundPartition
// for distinct partitions. Determinism obligation: any state a scheduler
// branches on in a serial phase (including the traffic/queue introspection
// below) must be bit-identical whatever worker_threads, pooled or serial
// round — which every counter folded through the serial epilogue is.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// A transaction arrives at its home shard's injection queue (serial,
  /// between rounds — never during a round's phases). Admission-control
  /// wrappers may defer the transaction instead of enqueueing it, but the
  /// ledger has already registered it: a deferred transaction still counts
  /// as pending and must eventually be admitted or the run cannot drain.
  virtual void Inject(const txn::Transaction& txn) = 0;

  /// Serial prologue of one synchronous round. Rounds are strictly
  /// increasing, starting at 0.
  virtual void BeginRound(Round round) = 0;

  /// Shard `shard`'s slice of the round (see the contract above). Called
  /// exactly once per shard per round, possibly concurrently across shards.
  virtual void StepShard(ShardId shard, Round round) = 0;

  /// The round epilogue (see the class comment).
  virtual void SealRound(Round round, std::uint32_t parts) = 0;
  virtual void FlushRoundPartition(Round round, std::uint32_t part,
                                   std::uint32_t parts) = 0;
  virtual void FinishRound(Round round) = 0;

  /// The epilogue on the calling thread: the triple with one partition.
  void EndRound(Round round) {
    SealRound(round, 1);
    FlushRoundPartition(round, 0, 1);
    FinishRound(round);
  }

  /// Deterministic size of this round's splittable StepShard work, in
  /// roughly per-message units: messages due plus whatever per-shard work
  /// the round's plan adds. Called serially after BeginRound(round); the
  /// engine fans the round out across its pool only when the share of this
  /// work that leaves the driving thread pays for waking the pool. Work
  /// that sits on one shard and cannot be split must not be counted.
  /// Wall-clock only — results never depend on it. The default 0 keeps
  /// every round serial.
  virtual std::uint64_t RoundWork(Round round) const {
    (void)round;
    return 0;
  }

  /// Number of shards this scheduler operates (== StepShard fan-out).
  virtual ShardId shard_count() const = 0;

  /// Serial convenience driver: one full round on the calling thread.
  void Step(Round round) {
    BeginRound(round);
    const ShardId shards = shard_count();
    for (ShardId shard = 0; shard < shards; ++shard) {
      StepShard(shard, round);
    }
    EndRound(round);
  }

  /// No pending work anywhere (used by drain-mode liveness tests). Serial.
  virtual bool Idle() const = 0;

  /// Scheduler-specific "queue size at the coordinating shards" metric:
  /// BDS reports 0 (its figure metric is home-shard pending, tracked by the
  /// engine); FDS reports the mean scheduled-but-uncommitted queue length
  /// per active cluster leader (Figure 3's left panel).
  virtual double LeaderQueueMean() const { return 0.0; }

  /// Peak variant of LeaderQueueMean: the single largest coordinator queue
  /// right now (FDS: max sch_ldr over led clusters; sharded BDS: max
  /// in-flight coordination load over leader/co-leader shards). The mean
  /// dilutes one overloaded leader across every active cluster — this is
  /// the undiluted signal the single-leader-degeneration fix is measured
  /// by. Serial phases only; same determinism obligation as the mean.
  virtual double LeaderQueueMax() const { return 0.0; }

  virtual std::uint64_t MessagesSent() const = 0;
  virtual std::uint64_t PayloadUnits() const = 0;

  /// Footprint of the scheduler's lazy network ring (serial phases only).
  /// Benches use it to report the O(live destinations) memory claim;
  /// schedulers without a network report an empty footprint.
  virtual net::RingMemory NetworkMemory() const { return {}; }

  /// Footprint of the scheduler's outbox lanes (serial phases only) — the
  /// double-buffered send lanes decay after bursts like the network rings;
  /// benches report both. Schedulers without an outbox report zeroes.
  virtual net::LaneMemory OutboxMemory() const { return {}; }

  /// Footprint of the scheduler's per-round scratch arenas (serial phases
  /// only) — the bump allocators backing the Phase-2 view/coloring scratch.
  /// Aggregated across shards for schedulers with per-shard arenas; zeroes
  /// for schedulers that keep no arena-backed scratch.
  virtual common::ArenaMemoryStats ArenaMemory() const { return {}; }

  /// Per-shard traffic split of the scheduler's network (leader-bottleneck
  /// forensics, backpressure watermarks). Zeroes when the scheduler keeps
  /// no per-shard stats. Serial phases only; the counters are cumulative
  /// and bit-identical across worker counts there (see net::ShardTraffic).
  virtual net::ShardTraffic ShardTrafficFor(ShardId shard) const {
    (void)shard;
    return {};
  }

  /// Undelivered network messages currently addressed to `shard` — the
  /// per-destination queue depth a traffic-aware wrapper watermarks on.
  /// Serial phases only. Schedulers without a network report 0.
  virtual std::uint64_t QueueDepth(ShardId shard) const {
    (void)shard;
    return 0;
  }

  /// Transactions accepted by Inject but parked in an admission-control
  /// spill queue instead of entering the protocol (0 for schedulers
  /// without admission control). The engine's drain loop keeps stepping
  /// while this is non-zero via Idle(), and samples it into
  /// SimResult::spill_peak; the accounting identity counts spilled
  /// transactions as pending.
  virtual std::uint64_t SpilledTxns() const { return 0; }

  /// Engine notification of a shard liveness transition under the fault
  /// plan (crash, recovery start, catch-up, rejoin — see
  /// durability/liveness.h). Serial, between rounds, and the engine never
  /// runs protocol rounds while any shard is off-line (the stall-the-world
  /// fault model), so phase logic needs no liveness branches; wrappers may
  /// observe transitions (e.g. to reset congestion signals for a rejoining
  /// shard). Default: ignore. Wrapping schedulers must forward.
  virtual void OnShardLiveness(ShardId shard,
                               durability::ShardLiveness state) {
    (void)shard;
    (void)state;
  }

  virtual const char* name() const = 0;
};

}  // namespace stableshard::core
