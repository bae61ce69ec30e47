#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/scheduler_registry.h"
#include "durability/recovery.h"

namespace stableshard::core {

namespace {

// Phase timing telemetry only — no simulation decision ever reads it, so
// results stay bit-identical across hosts.
// lint:allow(wall-clock): wall-clock feeds phase_times_ telemetry only.
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The per-round fan-out gate. A pooled round pays a fixed cost: waking
// the workers for the step region and again for the flush region, and
// waking the driving thread back, tens of microseconds on a 4-vCPU VM.
// It saves the part of the round's splittable work that leaves the
// driving thread's critical path: everything but one worker's share. A
// round is pooled when that saving, counted in Scheduler::RoundWork units
// (about one message handled each), reaches this constant. Per-round
// serial-vs-pooled timings over BDS uniform and FDS line at s = 256 and
// 1024 with 2, 4 and 8 workers put the break-even at 250-400 units. The constant sits above that because a run that mixes
// pooled and serial rounds keeps its pooled rounds' allocations in the
// workers' malloc arenas: at 320 a 2-worker FDS run gained under 5% and
// grew its peak RSS by about 10%; at 512 that run stays serial. See
// docs/ARCHITECTURE.md (per-round pool gate).
constexpr std::uint64_t kMinOffloadedWork = 512;

}  // namespace

Simulation::Simulation(const SimConfig& config)
    : config_(config), rng_(config.seed) {
  if (const std::string error = ConfigError(config); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    SSHARD_CHECK(false && "unusable SimConfig");
  }
  open_loop_ = !config.trace.empty() || config.arrival_rate > 0.0;
  // ConfigError has parsed the spec once already, so this cannot fail.
  durability::ParseFaultPlan(config.faults, &fault_plan_, nullptr);

  metric_ = net::MakeMetric(config.topology, config.shards, &rng_);

  switch (config.account_assignment) {
    case AccountAssignment::kRoundRobin:
      accounts_ = std::make_unique<chain::AccountMap>(
          chain::AccountMap::RoundRobin(config.shards, config.accounts));
      break;
    case AccountAssignment::kRandom:
      accounts_ = std::make_unique<chain::AccountMap>(
          chain::AccountMap::Random(config.shards, config.accounts, rng_));
      break;
  }

  ledger_ = std::make_unique<CommitLedger>(*accounts_,
                                           config.initial_balance);
  liveness_ = std::make_unique<durability::LivenessTracker>(config.shards);
  if (config.wal) {
    storage_ = std::make_unique<durability::MemoryStorage>(config.shards);
    wal_ = std::make_unique<durability::WalManager>(config.shards,
                                                    storage_.get());
    ledger_->AttachWal(wal_.get());
  }

  // The injection seam: both loops build their workload strategy through
  // the registry and derive generation randomness from the same seed, so a
  // strategy shapes candidates identically whichever loop drives it.
  const std::uint64_t injection_seed = Mix64(config.seed ^ 0xada5a77e5eedULL);
  adversary::StrategyDeps strategy_deps{*accounts_, *metric_, rng_};
  auto strategy = adversary::StrategyRegistry::Global().Build(
      config.strategy, config_, strategy_deps);
  if (!config.trace_out.empty()) {
    trace_writer_ =
        std::make_unique<traffic::TraceWriter>(config.shards, config.accounts);
  }
  if (open_loop_) {
    std::unique_ptr<traffic::ArrivalSchedule> schedule;
    if (!config.trace.empty()) {
      traffic::Trace trace;
      std::string trace_error;
      SSHARD_CHECK(
          traffic::LoadTraceFile(config.trace, &trace, &trace_error) &&
          "unparseable SimConfig::trace file");
      SSHARD_CHECK(trace.shards == config.shards &&
                   trace.accounts == config.accounts &&
                   "trace recorded for a different shard/account layout");
      schedule = std::make_unique<traffic::TraceArrivals>(trace);
    } else {
      schedule = std::make_unique<traffic::TokenBucketArrivals>(
          config.arrival_rate, config.arrival_burst, config.burst_round,
          config.rounds);
    }
    auto open = std::make_unique<traffic::OpenLoopInjector>(
        std::move(schedule), std::move(strategy), *accounts_, injection_seed);
    if (trace_writer_) {
      open->set_recorder([writer = trace_writer_.get()](
                             Round round, ShardId home,
                             const std::vector<txn::AccessSpec>& accesses) {
        writer->Record(round, home, accesses);
      });
    }
    injector_ = std::move(open);
  } else {
    adversary::AdversaryConfig adversary_config;
    adversary_config.rho = config.rho;
    adversary_config.burstiness = config.burstiness;
    adversary_config.burst_round = config.burst_round;
    adversary_config.seed = injection_seed;
    adversary_ = std::make_unique<adversary::Adversary>(
        adversary_config, *accounts_, std::move(strategy));
    if (trace_writer_) {
      adversary_->set_recorder([writer = trace_writer_.get()](
                                   Round round, ShardId home,
                                   const std::vector<txn::AccessSpec>& accesses) {
        writer->Record(round, home, accesses);
      });
    }
    injector_ =
        std::make_unique<traffic::ClosedLoopInjector>(*adversary_, config.rounds);
  }

  SchedulerDeps deps{*metric_, *ledger_,
                     [this](std::uint32_t top_roots)
                         -> const cluster::Hierarchy& {
                       return EnsureHierarchy(top_roots);
                     }};
  scheduler_ =
      SchedulerRegistry::Global().Build(config.scheduler, config_, deps);

  // The pool exists whenever more than one worker is asked for; the
  // per-round gate in StepRound decides round by round whether a fan-out
  // pays. A thread beyond the shard count would idle in both regions, so
  // the pool has at most one thread per shard. Bit-identical results
  // either way — this only changes wall-clock.
  if (config.worker_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        std::min<std::uint32_t>(config.worker_threads, config.shards));
  }
}

Simulation::~Simulation() = default;

const cluster::Hierarchy& Simulation::EnsureHierarchy(
    std::uint32_t top_roots) {
  SSHARD_CHECK(top_roots >= 1);
  if (!hierarchy_) {
    hierarchy_ = std::make_unique<cluster::Hierarchy>(
        config_.hierarchy == HierarchyKind::kLineShifted
            ? cluster::Hierarchy::BuildLineShifted(*metric_, top_roots)
            : cluster::Hierarchy::BuildSparseCover(*metric_, top_roots));
    hierarchy_top_roots_ = top_roots;
  }
  // One hierarchy per simulation: a second builder asking for a different
  // root count would silently get the first one's shape.
  SSHARD_CHECK(hierarchy_top_roots_ == top_roots &&
               "hierarchy already built with a different top_roots");
  return *hierarchy_;
}

void Simulation::Generate(Round round) {
  const auto start = Clock::now();
  injector_->GenerateRound(round, txn_buffer_);
  generated_round_ = round;
  phase_times_.generate += SecondsSince(start);
}

void Simulation::StepRound(Round round, Round generate_round) {
  auto mark = Clock::now();
  scheduler_->BeginRound(round);
  // The per-round gate: fan out only when the work taken off this thread
  // (all but one worker's share of the deterministic work count) pays for
  // waking the pool.
  bool pooled = pool_ && pool_every_round_;
  if (pool_ && !pooled) {
    const std::uint64_t work = scheduler_->RoundWork(round);
    pooled = work - work / pool_->thread_count() >= kMinOffloadedWork;
  }
  phase_times_.begin += SecondsSince(mark);

  mark = Clock::now();
  const ShardId shards = scheduler_->shard_count();
  Scheduler* scheduler = scheduler_.get();
  if (pooled) {
    ++pooled_rounds_;
    pool_->ParallelFor(shards, [scheduler, round](std::size_t shard) {
      scheduler->StepShard(static_cast<ShardId>(shard), round);
    });
  } else {
    for (ShardId shard = 0; shard < shards; ++shard) {
      scheduler_->StepShard(shard, round);
    }
  }
  phase_times_.step += SecondsSince(mark);

  if (pooled) {
    // Pooled epilogue: seal the round's double buffers, drain them
    // destination-partitioned on the pool (one partition per worker), and
    // overlap the next round's generation on this thread (it touches only
    // injector state). The serial remainder shrinks to FinishRound.
    mark = Clock::now();
    const auto parts = static_cast<std::uint32_t>(pool_->thread_count());
    scheduler_->SealRound(round, parts);
    pool_->Dispatch(parts, [scheduler, round, parts](std::size_t part) {
      scheduler->FlushRoundPartition(round, static_cast<std::uint32_t>(part),
                                     parts);
    });
    if (generate_round != kNoRound) Generate(generate_round);
    pool_->Wait();
    phase_times_.flush += SecondsSince(mark);

    mark = Clock::now();
    scheduler_->FinishRound(round);
    phase_times_.finish += SecondsSince(mark);
  } else {
    mark = Clock::now();
    scheduler_->EndRound(round);
    phase_times_.finish += SecondsSince(mark);
  }
}

void Simulation::InjectBuffer() {
  const auto start = Clock::now();
  for (txn::Transaction& txn : txn_buffer_) {
    ledger_->RegisterInjection(txn);
    scheduler_->Inject(txn);
  }
  txn_buffer_.clear();
  phase_times_.inject += SecondsSince(start);
}

SimResult Simulation::Run() {
  SSHARD_CHECK(!ran_ && "Simulation::Run may be called once");
  ran_ = true;
  if (series_window_ > 0) {
    pending_series_ = std::make_unique<stats::TimeSeries>(series_window_);
  }

  stats::RunningStats pending_per_round;
  stats::RunningStats leader_queue_per_round;
  stats::RunningStats leader_queue_max_per_round;
  std::uint64_t max_pending = 0;
  std::uint64_t spill_peak = 0;

  // Sampled after every executed round — drain rounds included, since
  // rounds_executed counts them: reported maxima/averages must cover the
  // whole run, not just the injection phase (a burst resolved during drain
  // used to vanish from max_pending).
  const auto sample_round_metrics = [&](Round round) {
    const auto start = Clock::now();
    const std::uint64_t pending = ledger_->pending();
    max_pending = std::max(max_pending, pending);
    pending_per_round.Add(static_cast<double>(pending) /
                          static_cast<double>(config_.shards));
    leader_queue_per_round.Add(scheduler_->LeaderQueueMean());
    leader_queue_max_per_round.Add(scheduler_->LeaderQueueMax());
    // Spill-queue accounting: parked transactions are inside `pending`
    // already (they were registered before Inject deferred them), so the
    // peak is recorded as its own column rather than added anywhere. The
    // drain loop below needs no special case either — Scheduler::Idle()
    // reports busy while any spill queue is non-empty.
    spill_peak = std::max(spill_peak, scheduler_->SpilledTxns());
    if (pending_series_) {
      pending_series_->Record(round, static_cast<double>(pending));
    }
    phase_times_.sample += SecondsSince(start);
  };

  // Wall-clock round counter: protocol rounds plus fault stalls. Every
  // sample lands on a distinct wall round, and rounds_executed reports the
  // wall count — a faulted run executes exactly the fault-free protocol
  // trajectory, recovery_rounds wall rounds later.
  Round wall = 0;
  // One stalled wall round: the protocol clock (scheduler, adversary,
  // injection) is frozen; metrics still sample so outages are visible in
  // the per-round series and averages. Open-loop arrivals do NOT freeze —
  // the injector accrues them as backlog (closed-loop's hook is a no-op).
  const auto stall_round = [&]() {
    sample_round_metrics(wall);
    injector_->OnStalledRound();
    ++wall;
    ++recovery_rounds_;
  };

  const auto run_start = Clock::now();
  for (Round round = 0; round < config_.rounds; ++round) {
    // Fault plan: crashes land on round boundaries (the synchronous model
    // has no mid-round crash point — a round either completed everywhere
    // or never happened), before this round's generation/injection.
    while (next_fault_ < fault_plan_.events.size() &&
           fault_plan_.events[next_fault_].crash_round == round) {
      ExecuteFault(fault_plan_.events[next_fault_++], stall_round);
    }
    // A pooled round - 1 pre-generated this round's transactions
    // (overlapped with its flush); after a serial round - 1 and for round
    // 0 they are generated here. Injection stays strictly after the
    // previous round's sampling either way, so the ledger counters every
    // sample sees match the serial schedule.
    if (generated_round_ != round) Generate(round);
    InjectBuffer();
    // Overlapped pre-generation of round + 1 — suppressed in open loop when
    // a fault lands on the round + 1 boundary: the serial order is stall
    // rounds (arrivals accrue as backlog) *then* generation, and an
    // overlapped Generate would consume the schedule's wall rounds first,
    // perturbing arrival accounting vs the serial run. Closed-loop
    // generation reads no wall clock, so it keeps the overlap always.
    Round generate_round = round + 1 < config_.rounds ? round + 1 : kNoRound;
    if (open_loop_ && next_fault_ < fault_plan_.events.size() &&
        fault_plan_.events[next_fault_].crash_round == round + 1) {
      generate_round = kNoRound;
    }
    StepRound(round, generate_round);
    sample_round_metrics(wall);
    ++wall;
    ++protocol_rounds_done_;
    MaybeCheckpoint(round);
  }

  Round round = config_.rounds;
  bool drained = false;
  if (config_.drain_cap > 0) {
    const Round limit = config_.rounds + config_.drain_cap;
    while (round < limit) {
      // Open-loop arrivals keep landing during what used to be pure drain
      // rounds, until the schedule is exhausted (a trace's records may
      // extend past config.rounds). Closed-loop is exhausted here by
      // construction, so the classic inject-free drain runs unchanged.
      const bool more_arrivals = !injector_->Exhausted();
      if (!more_arrivals && scheduler_->Idle()) {
        drained = true;
        break;
      }
      if (more_arrivals) {
        Generate(round);
        InjectBuffer();
      }
      StepRound(round, kNoRound);
      sample_round_metrics(wall);
      ++wall;
      ++protocol_rounds_done_;
      MaybeCheckpoint(round);
      ++round;
    }
    if (!drained) drained = injector_->Exhausted() && scheduler_->Idle();
  }
  phase_times_.total = SecondsSince(run_start);

  if (pending_series_) pending_series_->Finish();

  SimResult result;
  result.avg_pending_per_shard = pending_per_round.mean();
  result.avg_leader_queue = leader_queue_per_round.mean();
  result.max_leader_queue = leader_queue_per_round.max();
  result.max_single_leader_queue = leader_queue_max_per_round.max();
  result.spill_peak = spill_peak;
  const stats::LatencyRecorder& latency = ledger_->latency();
  result.avg_latency = latency.average_latency();
  result.max_latency = latency.max_latency();
  result.p50_latency = latency.p50_latency();
  result.p99_latency = latency.p99_latency();
  result.injected = ledger_->registered();
  result.committed = ledger_->committed_txns();
  result.aborted = ledger_->aborted_txns();
  result.unresolved = ledger_->pending();
  result.max_pending = max_pending;
  result.messages = scheduler_->MessagesSent();
  result.payload_units = scheduler_->PayloadUnits();
  result.rounds_executed = wall;
  result.drained = drained;
  result.wal_bytes = storage_ ? storage_->wal_bytes() : 0;
  result.checkpoint_count = checkpoint_count_;
  result.replay_bytes = replay_bytes_;
  result.recovery_rounds = recovery_rounds_;
  result.offered_txns = injector_->offered();
  result.injected_txns = injector_->injected();
  result.inject_lag_peak = injector_->lag_peak();

  if (trace_writer_) {
    std::string trace_error;
    SSHARD_CHECK(traffic::WriteTraceFile(config_.trace_out,
                                         trace_writer_->trace(),
                                         &trace_error) &&
                 "failed to write SimConfig::trace_out");
  }
  return result;
}

void Simulation::MaybeCheckpoint(Round round) {
  if (!wal_ || config_.checkpoint_interval == 0) return;
  if (protocol_rounds_done_ % config_.checkpoint_interval != 0) return;
  durability::WriteCheckpoint(*ledger_, *wal_, *storage_, round);
  ++checkpoint_count_;
}

void Simulation::ExecuteFault(const durability::FaultEvent& event,
                              const std::function<void()>& stall_round) {
  const ShardId shard = event.shard;

  // Pre-crash oracle: the recovered slice must reproduce these bytes
  // exactly (canonical encoding — byte equality is state bit-identity).
  durability::Blob before;
  durability::AppendShardImage(
      before,
      durability::CaptureShardImage(*ledger_, shard,
                                    wal_->durable_seq(shard)));

  // Crash: the shard loses its volatile ledger slice. The whole protocol
  // clock freezes for the outage — BDS/FDS are full-participation
  // synchronous protocols, so the lock-step world cannot make progress
  // while a member is dark (see docs/ARCHITECTURE.md on the fault model).
  liveness_->Crash(shard);
  scheduler_->OnShardLiveness(shard, durability::ShardLiveness::kCrashed);
  ledger_->ResetShardForRecovery(shard);
  for (Round i = 0; i < event.down_rounds; ++i) stall_round();

  // Recovery: replay checkpoint + WAL suffix, paced by replayed volume.
  liveness_->BeginRecovery(shard);
  scheduler_->OnShardLiveness(shard, durability::ShardLiveness::kRecovering);
  const durability::RecoveryStats stats =
      durability::RecoverShard(*ledger_, shard, *storage_);
  replay_bytes_ += stats.replayed_bytes;
  durability::Blob after;
  durability::AppendShardImage(
      after,
      durability::CaptureShardImage(*ledger_, shard,
                                    wal_->durable_seq(shard)));
  SSHARD_CHECK(after == before &&
               "recovered shard state is not bit-identical to the "
               "pre-crash snapshot");
  const Round replay_rounds =
      1 + static_cast<Round>(stats.replayed_bytes /
                             config_.replay_bytes_per_round);
  for (Round i = 0; i < replay_rounds; ++i) stall_round();

  // Catch-up: one round re-verifying the restored chain before rejoining.
  liveness_->BeginCatchUp(shard);
  scheduler_->OnShardLiveness(shard, durability::ShardLiveness::kCatchUp);
  SSHARD_CHECK(ledger_->chains()[shard].Verify() &&
               "recovered chain fails hash verification");
  stall_round();

  liveness_->Rejoin(shard);
  scheduler_->OnShardLiveness(shard, durability::ShardLiveness::kOnline);
}

}  // namespace stableshard::core
