// Simulation configuration: one struct describing a full experiment run.
//
// The defaults reproduce the paper's Section 7 setup: s = 64 shards,
// 64 accounts (one per shard), k = 8, 25000 rounds, uniform-random
// transactions with a single burst.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "chain/ops.h"
#include "common/types.h"
#include "net/topology_factory.h"
#include "txn/coloring.h"

namespace stableshard::core {

/// Default backpressure watermarks — the single source of truth, shared
/// by SimConfig below and consensus::BackpressureConfig's direct-
/// construction defaults so the two can never drift.
inline constexpr std::uint64_t kDefaultBackpressureHigh = 64;
inline constexpr std::uint64_t kDefaultBackpressureLow = 16;

enum class HierarchyKind : std::uint8_t { kLineShifted, kSparseCover };
enum class AccountAssignment : std::uint8_t { kRoundRobin, kRandom };

/// Every field's limits are checked in one place, ConfigError below; the
/// comments here name a limit only where it explains the field.
struct SimConfig {
  // System (paper Section 7 defaults).
  ShardId shards = 64;
  AccountId accounts = 64;
  std::uint32_t k = 8;  ///< max shards accessed per transaction
  net::TopologyKind topology = net::TopologyKind::kUniform;
  AccountAssignment account_assignment = AccountAssignment::kRandom;
  chain::Balance initial_balance = 1'000'000;

  // Adversary.
  double rho = 0.10;
  double burstiness = 1000;
  Round burst_round = 0;        ///< kNoRound disables the burst
  /// Workload: a name registered in adversary::StrategyRegistry
  /// ("uniform_random", "hotspot", "pairwise_conflict", "local",
  /// "single_shard", "hot_destination", "diameter_span" in-tree; embedders
  /// may register more — the engine never names strategies itself).
  std::string strategy = "uniform_random";
  double abort_probability = 0.0;
  Distance local_radius = 4;    ///< "local" strategy only
  double zipf_theta = 1.0;      ///< "hot_destination" skew exponent

  // Traffic (src/traffic/): open-loop, arrival-time-driven injection.
  /// Aggregate open-loop arrival rate in transactions per wall round
  /// (token-bucket paced; any positive value — striped internally). 0 (the
  /// default) keeps the classic closed-loop adversary, byte-identical to
  /// the pre-traffic engine. With a positive rate the registered strategy
  /// decides only transaction *shape*; timing is the schedule's, decoupled
  /// from commit progress — arrivals continue through crash stalls
  /// (accruing as injection backlog) and into former drain rounds.
  double arrival_rate = 0.0;
  /// Open-loop burst cap b: the one-shot clump released at `burst_round`
  /// (reusing the closed-loop knob; kNoRound = pure paced stream). Unlike
  /// the closed-loop round-0 preload, an open-loop burst can land mid-run,
  /// where admission control has live statistics to react with. Must be
  /// >= 1 when arrival_rate > 0.
  double arrival_burst = 1.0;
  /// Replay arrivals + shapes from this trace file (traffic/trace.h).
  /// Non-empty selects open-loop trace mode: requires
  /// strategy == "trace_replay" and arrival_rate == 0, and the file's meta
  /// shard/account counts must match this config.
  std::string trace;
  /// Record this run's injection stream (closed- or open-loop) to a trace
  /// file at the end of Run() — the TraceWriter feed for golden replays.
  std::string trace_out;

  // Scheduler: a name registered in core::SchedulerRegistry ("backpressure",
  // "bds", "fds", "direct" in-tree; embedders may register more — the
  // engine never names schedulers itself).
  std::string scheduler = "bds";
  txn::ColoringAlgorithm coloring = txn::ColoringAlgorithm::kGreedy;
  HierarchyKind hierarchy = HierarchyKind::kLineShifted;
  bool fds_reschedule = true;
  /// Pipelined = the paper's Algorithm 2b (one vote per destination per
  /// round); disable for workloads whose votes depend on other
  /// transactions' effects (see core/commit_protocol.h).
  bool fds_pipelined = true;
  bool bds_rotate_leader = true;
  /// "backpressure" scheduler watermarks on a per-destination congestion
  /// signal: max(messages arriving at the destination this round, its
  /// standing backlog — undelivered messages plus the queues of the
  /// clusters it leads; see Scheduler::QueueDepth). A destination whose
  /// signal reaches `backpressure_high` is marked hot and new transactions
  /// homed there are parked in the home shard's spill queue; once the
  /// signal falls back to `backpressure_low` the spill re-enters, paced.
  /// Requires low <= high and high > 0 (hysteresis). The registry builder
  /// copies these into consensus::BackpressureConfig; the scheduler
  /// constructor re-checks them for direct construction.
  std::uint64_t backpressure_high = kDefaultBackpressureHigh;
  std::uint64_t backpressure_low = kDefaultBackpressureLow;
  /// Sharded-leader BDS (the "bds" scheduler, which reports its name as
  /// "bds_sharded" above 1): number of co-leader shards the epoch leader
  /// partitions its color classes across (color c -> co-leader c mod L).
  /// 1 = the paper's single-leader commit path; values above the shard
  /// count are clamped. Must be >= 1; the scheduler constructor re-checks
  /// it for direct construction.
  std::uint32_t bds_color_leaders = 1;
  /// Multi-root FDS hierarchy (the "fds" scheduler, which reports its name
  /// as "fds_multiroot" above 1, and the backpressure wrapper): number of
  /// interchangeable full-membership top-layer roots diameter-spanning
  /// transactions hash across. 1 = the classic single-top
  /// hierarchy; values above the shard count are clamped. Must be >= 1;
  /// the hierarchy builder re-checks it for direct construction.
  std::uint32_t fds_top_roots = 1;

  // Durability & crash recovery (src/durability/).
  /// Attach a per-shard commit WAL behind the ledger: records are staged
  /// during StepShard and persisted inside the round epilogue (overlapping
  /// the partitioned flush on pooled rounds). Off by default — with it on
  /// and no faults, results stay bit-identical to wal = false (enforced by
  /// parallel_rounds --check).
  bool wal = false;
  /// Protocol rounds between full-state checkpoints (0 = WAL only; the
  /// log is never truncated, so checkpoints purely bound replay time).
  /// Requires `wal`.
  Round checkpoint_interval = 0;
  /// Deterministic churn schedule, "<shard>@<round>+<down>,..." (see
  /// durability/fault_plan.h): crash each listed shard at its round
  /// boundary, keep it down for <down> rounds, then replay it from
  /// checkpoint + WAL and rejoin. Requires `wal`; crash rounds must be
  /// < `rounds` and shards in range.
  std::string faults;
  /// Recovery pacing: one stalled round per this many replayed WAL bytes
  /// (plus one base round). Must be >= 1.
  std::uint64_t replay_bytes_per_round = 4096;

  // Run control.
  Round rounds = 25000;
  std::uint64_t seed = 42;
  /// Threads driving Scheduler::StepShard inside one round (1 = fully
  /// serial). Any value produces bit-identical results — the decomposition
  /// is deterministic by construction (see core/scheduler.h).
  std::uint32_t worker_threads = 1;
  /// Ignored by the engine, which runs every pooled round with the
  /// partitioned flush and overlapped generation and every other round
  /// with EndRound. Kept because the fixed repository benchmark
  /// (perfbench/) sets and reads it.
  bool pipeline = true;
  /// Ignored by the engine, which builds its pool whenever
  /// worker_threads > 1 (with at most one thread per shard) and leaves the
  /// rest to its per-round gate. Kept because the fixed repository
  /// benchmark (perfbench/) sets and reads it.
  std::uint32_t min_shards_per_worker = 1;
  /// After `rounds`, keep stepping (without injection) until the scheduler
  /// drains or `drain_cap` extra rounds elapse (0 = no drain phase).
  Round drain_cap = 0;

  /// Human-readable one-line description (benchmark output).
  std::string Describe() const;
};

/// The one check of a SimConfig: "" when the engine can run it, otherwise
/// the first problem as one line, "invalid <flag>: ..." or, for a name no
/// registry holds, "unknown --<flag>=<name>; registered: <sorted names>".
/// <flag> is the simulate_cli flag that sets the field. It covers the
/// paper's model limits (shards, accounts and k >= 1, 0 < rho <= 1, b > 0),
/// worker_threads >= 1, the registry names, zipf_theta >= 0, the arrival
/// knobs, the trace/strategy/rate coupling, the leader-sharding knobs, the
/// backpressure watermarks (low <= high, high > 0), checkpoint and fault
/// plan against the WAL, fault shards and crash rounds in range, and the
/// replay pacing. It reads no file: traffic::ValidateTraceFile checks the
/// trace itself. The CLIs print the line and exit 2; the Simulation
/// constructor prints it and aborts.
std::string ConfigError(const SimConfig& config);

/// Aggregated outcome of one simulation run.
struct SimResult {
  // Figure metrics.
  double avg_pending_per_shard = 0;  ///< mean over rounds of pending / s
  double avg_latency = 0;            ///< mean commit/abort delay (rounds)
  double max_latency = 0;
  double p50_latency = 0;
  double p99_latency = 0;
  double avg_leader_queue = 0;  ///< FDS: mean sch_ldr per active cluster
  /// Peak over executed rounds of LeaderQueueMean() — the hot-destination
  /// saturation metric the backpressure bench compares head-to-head.
  double max_leader_queue = 0;
  /// Peak over executed rounds of LeaderQueueMax() — the single hottest
  /// leader queue ever observed. LeaderQueueMean dilutes one overloaded
  /// leader across every active cluster; this is the undiluted pathology
  /// signal the leader-sharding fix targets.
  double max_single_leader_queue = 0;

  // Volume.
  std::uint64_t injected = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unresolved = 0;  ///< still pending at the end
  std::uint64_t max_pending = 0;
  /// Peak over executed rounds of Scheduler::SpilledTxns() — how deep the
  /// backpressure spill queues ever got (0 for schedulers without
  /// admission control). Spilled transactions are registered with the
  /// ledger, so they are already counted inside pending/unresolved.
  std::uint64_t spill_peak = 0;

  // Cost.
  std::uint64_t messages = 0;
  std::uint64_t payload_units = 0;

  // Traffic (equal to `injected` under the closed-loop default; part of
  // the bit-identity contract like every other field).
  /// Arrivals the schedule produced, whether or not the strategy could
  /// shape them (open-loop); == injected for closed-loop runs.
  std::uint64_t offered_txns = 0;
  /// Transactions the injector actually handed to the engine.
  std::uint64_t injected_txns = 0;
  /// Peak arrivals waiting out a protocol stall (crash outage/replay) —
  /// 0 for closed-loop or fault-free runs.
  std::uint64_t inject_lag_peak = 0;

  // Durability & recovery (all 0 unless SimConfig::wal). Part of the
  // bit-identity contract like every other field: same config ⇒ same WAL
  // bytes, same checkpoint count, same recovery schedule, whatever
  // worker_threads.
  std::uint64_t wal_bytes = 0;        ///< total WAL bytes persisted
  std::uint64_t checkpoint_count = 0;
  std::uint64_t replay_bytes = 0;     ///< WAL bytes replayed by recoveries
  /// Rounds the protocol clock was stalled by crash outages + replay +
  /// catch-up; rounds_executed includes them (a faulted run reports
  /// exactly the fault-free rounds_executed plus this).
  Round recovery_rounds = 0;

  // Run facts.
  Round rounds_executed = 0;
  bool drained = false;  ///< drain phase reached Idle()
};

/// The bit-identity contract, one field list for every caller: the name of
/// the first SimResult field where `a` and `b` differ, or "" when none
/// does. Doubles compare by bits, so 0.1 + 0.2 computed in another order
/// is a difference. FirstDifferingProtocolField skips the durability
/// counters (wal_bytes, checkpoint_count, replay_bytes, recovery_rounds):
/// it is what a WAL-on fault-free run must share with the WAL-off run,
/// since the WAL is write-only until a crash.
std::string_view FirstDifferingProtocolField(const SimResult& a,
                                             const SimResult& b);
std::string_view FirstDifferingField(const SimResult& a, const SimResult& b);

}  // namespace stableshard::core
