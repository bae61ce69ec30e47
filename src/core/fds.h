// Algorithm 2: Fully Distributed Scheduler (FDS) for the non-uniform model.
//
// FDS removes BDS's central per-epoch leader by organizing the shards in a
// hierarchical sparse cover (cluster::Hierarchy). Every transaction T is
// assigned a *home cluster*: the lowest-level cluster that contains the
// whole x-neighborhood of T's home shard (x = farthest destination) and has
// a leader. The cluster leader schedules T.
//
// Epochs: layer i runs epochs of fixed length E_i = E_0 * 2^i, aligned so
// lower-layer epochs nest in higher ones. The paper writes
// E_i = c * 2^i * log s for an unspecified constant c; we derive the
// smallest aligned E_0 that lets every layer fit its phases:
//     E_0 = max(4, max_i ceil((2 * d_i + 3) / 2^i))
// where d_i is the layer's max cluster diameter (Phase 1 and Phase 2 each
// need up to d_i rounds, Phase 3 one round). For the generic sparse cover
// d_i = O(2^i log s), giving E_i = O(2^i log s) as in the paper.
//
// One epoch of cluster C (layer i, diameter d_C, start t0):
//   Phase 1  at t0 home shards send their buffered transactions for C to
//            the leader (arrive within d_C rounds).
//   Phase 2  at t0 + max(1, d_C) the leader colors the new transactions on
//            the shard-granularity conflict graph. If the epoch end aligns
//            with a rescheduling period P_k, k > i (i.e. t0 + E_i is a
//            multiple of 2 * E_i), the leader instead recolors *all* its
//            scheduled-but-undecided transactions together with the new
//            ones (Section 6.2 rescheduling). Each transaction gets height
//            (t_end, layer, sublayer, color, id) and its subtransactions
//            are sent (or height-updated) to the destination shards.
//   Phase 3  destinations insert/update entries in their height-sorted
//            schedule queues on arrival.
//
// Committing runs continuously via CommitProtocol (Algorithm 2b with the
// retract handshake documented there).
//
// Stability (Theorem 3): rho <= (1 / (c1 d log^2 s)) * max{1/k, 1/sqrt(s)}
// gives pending <= 4bs and latency <= 2 c1 b d log^2 s * min{k, sqrt(s)}.
//
// Shard-parallel decomposition: a cluster's scheduling state (incoming
// batches, sch_ldr) is owned by its *leader shard*; home-side buffers are
// bucketed by *home shard*; the commit protocol is per-shard by
// construction. BeginRound computes, serially and in deterministic order,
// which clusters color this round (grouped by leader); StepShard drains
// the shard's deliveries, ships epoch-start batches for the clusters the
// shard home-buffers, runs colorings for the clusters it leads, and issues
// the shard's votes. Unlike BDS there is no global epoch: many cluster
// leaders are active in one round, which is exactly what the parallel path
// exploits.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cluster/hierarchy.h"
#include "common/arena.h"
#include "common/types.h"
#include "core/commit_ledger.h"
#include "core/commit_protocol.h"
#include "core/messaging_scheduler.h"
#include "core/ownership.h"
#include "net/metric.h"
#include "txn/coloring.h"

namespace stableshard::core {

struct FdsConfig {
  txn::ColoringAlgorithm coloring = txn::ColoringAlgorithm::kGreedy;
  /// Section 6.2 rescheduling periods; disabled in the ablation bench.
  bool reschedule = true;
  /// Destination commit discipline (see core/commit_protocol.h). The
  /// paper's Algorithm 2b is the pipelined mode; the pinned mode is the
  /// conservative fallback for workloads whose vote decisions depend on
  /// other transactions' effects (e.g. chained transfers).
  CommitMode commit_mode = CommitMode::kPipelined;
};

class FdsScheduler final : public MessagingScheduler {
 public:
  /// `hierarchy` must outlive the scheduler and be built over `metric`.
  FdsScheduler(const net::ShardMetric& metric,
               const cluster::Hierarchy& hierarchy, CommitLedger& ledger,
               const FdsConfig& config = {});

  void Inject(const txn::Transaction& txn) override;
  void BeginRound(Round round) override;
  std::uint64_t RoundWork(Round round) const override;
  void StepShard(ShardId shard, Round round) override;
  bool Idle() const override;
  double LeaderQueueMean() const override;
  double LeaderQueueMax() const override;
  /// Summed across the per-shard step arenas (serial phases only).
  common::ArenaMemoryStats ArenaMemory() const override {
    common::ArenaMemoryStats stats;
    for (const common::Arena& arena : step_arenas_) stats += arena.memory();
    return stats;
  }
  /// A destination's full backlog: undelivered network messages addressed
  /// to it *plus* the scheduled-but-undecided transactions (sch_ldr and
  /// incoming batches) of the clusters it leads — the quantity that
  /// saturates under a hot destination, and the one the backpressure
  /// wrapper watermarks. O(clusters led by `shard`) per call, serial
  /// phases only.
  std::uint64_t QueueDepth(ShardId shard) const override {
    SSHARD_SERIAL_PHASE(ownership_);
    std::uint64_t depth = network_.pending_for(shard);
    for (const std::uint32_t id : clusters_led_by_[shard]) {
      const ClusterState& state = cluster_state_[id];
      depth += state.incoming.size() + state.active.size();
    }
    return depth;
  }
  /// Baseline the per-destination inflow counters (serial phases only) so
  /// ShardTrafficFor(shard).InflowSinceSnapshot() reads one round's
  /// arrivals — the backpressure wrapper calls this once per BeginRound.
  void SnapshotInflow() { network_.SnapshotInflow(); }
  const char* name() const override {
    return hierarchy_->top_roots().size() > 1 ? "fds_multiroot" : "fds";
  }

  /// Introspection.
  Round epoch_length(std::uint32_t layer) const;
  Round base_epoch_length() const { return e0_; }
  std::uint64_t reschedules() const;
  std::uint64_t retracts() const { return protocol_.retracts_sent(); }
  const cluster::Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  /// Cluster scheduling state, owned by the cluster's leader shard.
  struct ClusterState {
    /// Batches that arrived at the leader during the current epoch.
    std::vector<txn::Transaction> incoming;
    /// sch_ldr: scheduled but not yet decided transactions.
    std::unordered_map<TxnId, txn::Transaction> active;
    bool ever_used = false;
  };

  void RunColoring(const cluster::Cluster& cluster, ShardId leader,
                   Round round);
  void OnDecided(TxnId txn, std::uint32_t cluster, bool committed);

  const net::ShardMetric* metric_;
  const cluster::Hierarchy* hierarchy_;
  FdsConfig config_;
  CommitProtocol protocol_;

  Round e0_ = 4;  ///< base (layer-0) epoch length
  std::vector<ClusterState> cluster_state_;      // by cluster id
  std::vector<std::uint32_t> leadered_clusters_; // ids of usable clusters
  /// leadered_clusters_ inverted: the cluster ids each shard leads
  /// (QueueDepth walks only the queried shard's own clusters).
  std::vector<std::vector<std::uint32_t>> clusters_led_by_;

  // Home-side buffers: per home shard, cluster id -> transactions waiting
  // for that cluster's next epoch start (std::map so the shard's flush
  // order is deterministic).
  std::vector<std::map<std::uint32_t, std::vector<txn::Transaction>>>
      home_outgoing_;
  std::vector<std::uint64_t> buffered_by_home_;

  // BeginRound output: clusters to color this round, grouped by leader.
  std::vector<std::vector<std::uint32_t>> coloring_work_;  // by shard

  /// Per-shard Phase-2 scratch arenas: unlike BDS, many cluster leaders
  /// color concurrently in one round, so each leader shard owns its arena
  /// (StepShard contract). Reset once per coloring round per shard; all
  /// colorings the shard runs that round bump-allocate from it.
  std::vector<common::Arena> step_arenas_;

  // Per-leader-shard counters (summed by the serial getters).
  std::vector<std::uint64_t> reschedules_by_shard_;
  std::uint64_t used_cluster_count_ = 0;
};

}  // namespace stableshard::core
