// Simulation engine: wires topology, accounts, adversary, scheduler and
// ledger together and runs the synchronous round loop.
//
// Round structure (Section 3's synchronous model):
//   1. the injector generates this round's transactions — by default the
//      closed-loop adversary (subject to the (rho, b) token buckets), or
//      the open-loop arrival schedule when SimConfig::arrival_rate / trace
//      select it (see traffic/injector.h);
//   2. each is registered with the ledger and injected at its home shard;
//   3. the scheduler executes one round: BeginRound (serial), StepShard for
//      every shard — fanned out across the persistent worker pool when
//      SimConfig::worker_threads > 1 and the round's Scheduler::RoundWork
//      passes the per-round gate, serial otherwise, with bit-identical
//      results either way — then the round epilogue;
//   4. metrics are sampled (pending transactions, leader queues). Sampling
//      covers every executed round, drain-phase rounds included — the
//      per-round averages, max_pending and the pending series describe the
//      same rounds_executed window the result reports.
//
// Pooled epilogue: a round that the gate fans out also runs its epilogue
// on the pool. Instead of EndRound (the scheduler's SealRound /
// FlushRoundPartition / FinishRound triple with one partition on the
// driving thread), the engine runs the triple with one partition per
// worker — the flush drains destination-partitioned on the pool while the
// driving thread generates the NEXT round's transactions into a reusable
// buffer (generation touches only injector state, so the overlap is
// race-free and invisible to the results). A serial round runs EndRound
// and leaves generation to the start of the next round. Injection, metric
// sampling and BeginRound of the next round stay strictly after
// FinishRound, so the ledger values every sample sees are exactly the
// serial ones — worker_threads never changes a single output bit
// (tests/parallel_engine_test).
//
// The engine knows no concrete scheduler and no concrete workload:
// SimConfig::scheduler names an entry in core::SchedulerRegistry and
// SimConfig::strategy names an entry in adversary::StrategyRegistry;
// construction goes through the registered builders (see
// core/scheduler_registry.h and adversary/strategy_registry.h). The cluster
// hierarchy is built lazily, only when a scheduler's builder asks for it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "common/types.h"
#include "chain/account_map.h"
#include "cluster/hierarchy.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/commit_ledger.h"
#include "core/config.h"
#include "core/scheduler.h"
#include "durability/fault_plan.h"
#include "durability/liveness.h"
#include "durability/wal.h"
#include "net/metric.h"
#include "stats/running_stats.h"
#include "stats/time_series.h"
#include "traffic/injector.h"
#include "traffic/trace.h"

namespace stableshard::core {

/// Wall-clock decomposition of Run() as seen from the driving thread,
/// accumulated across all executed rounds (bench/parallel_rounds --phases).
/// On a pooled round `generate` happens inside the `flush` window (it
/// overlaps the pool's partition drain), so the two overlap; on a serial
/// round `flush` is 0 and `finish` holds the whole EndRound.
struct PhaseTimes {
  double generate = 0;  ///< adversary GenerateRound
  double inject = 0;    ///< RegisterInjection + Scheduler::Inject
  double begin = 0;     ///< BeginRound
  double step = 0;      ///< StepShard fan-out (wall time)
  double flush = 0;     ///< SealRound .. pool Wait (overlaps generate)
  double finish = 0;    ///< FinishRound (pooled) or EndRound (serial)
  double sample = 0;    ///< per-round metric sampling
  double total = 0;     ///< the whole round loop, drain included
};

class Simulation {
 public:
  /// Aborts after printing core::ConfigError's line when `config` is
  /// unusable.
  explicit Simulation(const SimConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run the configured number of rounds (plus optional drain phase) and
  /// return the aggregated result. May be called once.
  SimResult Run();

  /// Component access for tests and examples.
  const SimConfig& config() const { return config_; }
  const net::ShardMetric& metric() const { return *metric_; }
  const chain::AccountMap& accounts() const { return *accounts_; }
  const CommitLedger& ledger() const { return *ledger_; }
  Scheduler& scheduler() { return *scheduler_; }
  /// Closed-loop runs only (the open-loop injector owns its strategy and
  /// factory; there is no adversary then).
  const adversary::Adversary& adversary() const { return *adversary_; }
  /// The injection seam (always present; closed-loop wraps the adversary).
  const traffic::Injector& injector() const { return *injector_; }
  const cluster::Hierarchy* hierarchy() const { return hierarchy_.get(); }
  const durability::LivenessTracker& liveness() const { return *liveness_; }
  /// Durable medium behind the WAL (nullptr unless SimConfig::wal).
  const durability::MemoryStorage* wal_storage() const {
    return storage_.get();
  }

  /// Per-round pending-count time series (window-averaged), populated by
  /// Run() when `record_series` is enabled.
  void EnableSeries(Round window) { series_window_ = window; }
  const stats::TimeSeries* pending_series() const {
    return pending_series_.get();
  }

  /// Per-phase wall-clock accounting, populated by Run() (always on — the
  /// clock reads are noise next to a round's work). Timing never feeds back
  /// into the simulation, so it cannot perturb results.
  const PhaseTimes& phase_times() const { return phase_times_; }

  /// Rounds Run() fanned out on the pool; the rest ran serially. The
  /// per-round gate reads only the scheduler's deterministic RoundWork, so
  /// two runs of one config report the same count.
  Round pooled_rounds() const { return pooled_rounds_; }

  /// Fan every round out on the pool (when there is one), bypassing the
  /// per-round gate. Determinism tests and checks call this before Run()
  /// so small grids, whose rounds never reach the gate, still compare the
  /// pooled paths against the serial ones. Wall-clock only.
  void PoolEveryRound() { pool_every_round_ = true; }

 private:
  const cluster::Hierarchy& EnsureHierarchy(std::uint32_t top_roots);
  /// Generate `round`'s injections into the reusable buffer.
  void Generate(Round round);
  /// Register and inject the buffered transactions, then clear the buffer.
  void InjectBuffer();
  /// One full round; when `generate_round` != kNoRound and the round is
  /// pooled, that round's generation overlaps the flush.
  void StepRound(Round round, Round generate_round);
  /// Execute one fault event (crash → outage → replay → catch-up →
  /// rejoin). The protocol clock is frozen throughout: `stall_round`
  /// advances the wall clock by one sampled round without touching the
  /// scheduler/adversary, so the protocol trajectory — and every commit —
  /// is bit-identical to the fault-free run, just shifted in wall rounds.
  void ExecuteFault(const durability::FaultEvent& event,
                    const std::function<void()>& stall_round);
  /// Checkpoint cadence: after every checkpoint_interval-th protocol
  /// round (drain rounds included) capture all shards into a new blob.
  void MaybeCheckpoint(Round round);

  SimConfig config_;
  Rng rng_;
  std::unique_ptr<net::ShardMetric> metric_;
  std::unique_ptr<chain::AccountMap> accounts_;
  std::unique_ptr<CommitLedger> ledger_;
  std::unique_ptr<cluster::Hierarchy> hierarchy_;
  std::uint32_t hierarchy_top_roots_ = 0;  ///< 0 = not built yet
  std::unique_ptr<adversary::Adversary> adversary_;  ///< closed-loop only
  std::unique_ptr<traffic::Injector> injector_;
  std::unique_ptr<traffic::TraceWriter> trace_writer_;  ///< trace_out only
  bool open_loop_ = false;
  std::unique_ptr<Scheduler> scheduler_;
  /// Persistent; worker_threads > 1, min(worker_threads, shards) threads.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<durability::MemoryStorage> storage_;  ///< wal only
  std::unique_ptr<durability::WalManager> wal_;         ///< wal only
  std::unique_ptr<durability::LivenessTracker> liveness_;
  durability::FaultPlan fault_plan_;
  std::size_t next_fault_ = 0;
  Round protocol_rounds_done_ = 0;
  Round recovery_rounds_ = 0;
  std::uint64_t replay_bytes_ = 0;
  std::uint64_t checkpoint_count_ = 0;
  Round series_window_ = 0;
  std::unique_ptr<stats::TimeSeries> pending_series_;
  /// Reusable injection buffer: holds `generated_round_`'s transactions
  /// between generation (possibly overlapped with the previous round's
  /// flush) and injection; capacity persists across rounds.
  std::vector<txn::Transaction> txn_buffer_;
  Round generated_round_ = kNoRound;
  PhaseTimes phase_times_;
  Round pooled_rounds_ = 0;
  bool pool_every_round_ = false;
  bool ran_ = false;
};

}  // namespace stableshard::core
