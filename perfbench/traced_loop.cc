#include "traced_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "adversary/adversary.h"
#include "adversary/strategy_registry.h"
#include "chain/account_map.h"
#include "cluster/hierarchy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/commit_ledger.h"
#include "core/scheduler.h"
#include "core/scheduler_registry.h"
#include "durability/fault_plan.h"
#include "durability/liveness.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "net/metric.h"
#include "net/topology_factory.h"
#include "stats/running_stats.h"
#include "traffic/arrival.h"
#include "traffic/injector.h"
#include "traffic/trace.h"

namespace perfbench {

namespace ss = stableshard;
using ss::Round;
using ss::ShardId;
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double SecondsSince(Clock::time_point start) {
  return Seconds(start, Clock::now());
}

/// Mirrors the engine's derivation of the injection seed from
/// SimConfig::seed (core/engine.cc). A drift shows up at once as a
/// SimResult mismatch against Simulation::Run().
constexpr std::uint64_t kInjectionSeedSalt = 0xada5a77e5eedULL;

constexpr Round kMemoryProbeStride = 16;

/// One cache line per worker, so the per-thread busy accumulators never
/// share a line.
struct alignas(64) WorkerSlot {
  double busy = 0;        ///< StepShard + FlushRoundPartition
  double step_busy = 0;   ///< StepShard only
  double flush_busy = 0;  ///< FlushRoundPartition only
  /// Slowest StepShard this thread ran in step region `region`.
  double region_slowest = 0;
  // Consecutive StepShard calls of one chunk share a clock read: the end
  // of call i is the start of call i + 1 on the same thread.
  std::uint64_t region = 0;
  std::size_t last_shard = 0;
  Clock::time_point last_end{};
};

/// Dense per-thread index for the pool's workers, assigned on a thread's
/// first task. Pool threads live exactly as long as one replica, so the
/// owner tag is enough to tell a stale index from a fresh one.
thread_local const void* tls_owner = nullptr;
thread_local std::size_t tls_slot = 0;

class TracedSimulation {
 public:
  explicit TracedSimulation(const ss::core::SimConfig& config);
  ss::core::SimResult Run();
  const LayerSplit& split() const { return split_; }

 private:
  const ss::cluster::Hierarchy& EnsureHierarchy(std::uint32_t top_roots);
  WorkerSlot& SlotForThisThread();
  void Generate(Round round);
  void InjectBuffer();
  void StepRound(Round round, Round generate_round);
  void ExecuteFault(const ss::durability::FaultEvent& event,
                    const std::function<void()>& stall_round);
  void MaybeCheckpoint(Round round);
  void ProbeMemory();

  ss::core::SimConfig config_;
  ss::Rng rng_;
  std::unique_ptr<ss::net::ShardMetric> metric_;
  std::unique_ptr<ss::chain::AccountMap> accounts_;
  std::unique_ptr<ss::core::CommitLedger> ledger_;
  std::unique_ptr<ss::cluster::Hierarchy> hierarchy_;
  std::uint32_t hierarchy_top_roots_ = 0;
  std::unique_ptr<ss::adversary::Adversary> adversary_;
  std::unique_ptr<ss::traffic::Injector> injector_;
  bool open_loop_ = false;
  std::unique_ptr<ss::core::Scheduler> scheduler_;
  std::unique_ptr<ss::ThreadPool> pool_;
  std::unique_ptr<ss::durability::MemoryStorage> storage_;
  std::unique_ptr<ss::durability::WalManager> wal_;
  std::unique_ptr<ss::durability::LivenessTracker> liveness_;
  ss::durability::FaultPlan fault_plan_;
  std::size_t next_fault_ = 0;
  Round protocol_rounds_done_ = 0;
  Round recovery_rounds_ = 0;
  std::uint64_t replay_bytes_ = 0;
  std::uint64_t checkpoint_count_ = 0;
  std::vector<ss::txn::Transaction> txn_buffer_;
  Round generated_round_ = ss::kNoRound;

  LayerSplit split_;
  std::vector<WorkerSlot> slots_;
  std::atomic<std::size_t> next_slot_{0};
  std::uint64_t region_id_ = 0;
};

TracedSimulation::TracedSimulation(const ss::core::SimConfig& config)
    : config_(config), rng_(config.seed) {
  SSHARD_CHECK(config.trace_out.empty() &&
               "the traced replica does not record traces");
  open_loop_ = !config.trace.empty() || config.arrival_rate > 0.0;
  std::string fault_error;
  SSHARD_CHECK(ss::durability::ParseFaultPlan(config.faults, &fault_plan_,
                                              &fault_error) &&
               "unparseable SimConfig::faults spec");
  SSHARD_CHECK(fault_plan_.empty() || config.wal);

  metric_ = ss::net::MakeMetric(config.topology, config.shards, &rng_);
  switch (config.account_assignment) {
    case ss::core::AccountAssignment::kRoundRobin:
      accounts_ = std::make_unique<ss::chain::AccountMap>(
          ss::chain::AccountMap::RoundRobin(config.shards, config.accounts));
      break;
    case ss::core::AccountAssignment::kRandom:
      accounts_ = std::make_unique<ss::chain::AccountMap>(
          ss::chain::AccountMap::Random(config.shards, config.accounts,
                                        rng_));
      break;
  }
  ledger_ = std::make_unique<ss::core::CommitLedger>(*accounts_,
                                                     config.initial_balance);
  liveness_ =
      std::make_unique<ss::durability::LivenessTracker>(config.shards);
  if (config.wal) {
    storage_ = std::make_unique<ss::durability::MemoryStorage>(config.shards);
    wal_ = std::make_unique<ss::durability::WalManager>(config.shards,
                                                        storage_.get());
    ledger_->AttachWal(wal_.get());
  }

  const std::uint64_t injection_seed =
      ss::Mix64(config.seed ^ kInjectionSeedSalt);
  ss::adversary::StrategyDeps strategy_deps{*accounts_, *metric_, rng_};
  auto strategy = ss::adversary::StrategyRegistry::Global().Build(
      config.strategy, config_, strategy_deps);
  if (open_loop_) {
    std::unique_ptr<ss::traffic::ArrivalSchedule> schedule;
    if (!config.trace.empty()) {
      ss::traffic::Trace trace;
      std::string trace_error;
      SSHARD_CHECK(
          ss::traffic::LoadTraceFile(config.trace, &trace, &trace_error) &&
          "unparseable SimConfig::trace file");
      SSHARD_CHECK(trace.shards == config.shards &&
                   trace.accounts == config.accounts);
      schedule = std::make_unique<ss::traffic::TraceArrivals>(trace);
    } else {
      schedule = std::make_unique<ss::traffic::TokenBucketArrivals>(
          config.arrival_rate, config.arrival_burst, config.burst_round,
          config.rounds);
    }
    injector_ = std::make_unique<ss::traffic::OpenLoopInjector>(
        std::move(schedule), std::move(strategy), *accounts_, injection_seed);
  } else {
    ss::adversary::AdversaryConfig adversary_config;
    adversary_config.rho = config.rho;
    adversary_config.burstiness = config.burstiness;
    adversary_config.burst_round = config.burst_round;
    adversary_config.seed = injection_seed;
    adversary_ = std::make_unique<ss::adversary::Adversary>(
        adversary_config, *accounts_, std::move(strategy));
    injector_ = std::make_unique<ss::traffic::ClosedLoopInjector>(
        *adversary_, config.rounds);
  }

  ss::core::SchedulerDeps deps{
      *metric_, *ledger_,
      [this](std::uint32_t top_roots) -> const ss::cluster::Hierarchy& {
        return EnsureHierarchy(top_roots);
      }};
  scheduler_ = ss::core::SchedulerRegistry::Global().Build(config.scheduler,
                                                           config_, deps);
  if (config.worker_threads > 1 &&
      config.shards / config.worker_threads >= config.min_shards_per_worker) {
    pool_ = std::make_unique<ss::ThreadPool>(config.worker_threads);
  }
  slots_.resize(pool_ ? pool_->thread_count() : 1);
}

const ss::cluster::Hierarchy& TracedSimulation::EnsureHierarchy(
    std::uint32_t top_roots) {
  if (!hierarchy_) {
    hierarchy_ = std::make_unique<ss::cluster::Hierarchy>(
        config_.hierarchy == ss::core::HierarchyKind::kLineShifted
            ? ss::cluster::Hierarchy::BuildLineShifted(*metric_, top_roots)
            : ss::cluster::Hierarchy::BuildSparseCover(*metric_, top_roots));
    hierarchy_top_roots_ = top_roots;
  }
  SSHARD_CHECK(hierarchy_top_roots_ == top_roots);
  return *hierarchy_;
}

WorkerSlot& TracedSimulation::SlotForThisThread() {
  if (!pool_) return slots_[0];
  if (tls_owner != this) {
    tls_owner = this;
    tls_slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
    SSHARD_CHECK(tls_slot < slots_.size());
  }
  return slots_[tls_slot];
}

void TracedSimulation::Generate(Round round) {
  const auto start = Clock::now();
  injector_->GenerateRound(round, txn_buffer_);
  generated_round_ = round;
  split_.gen_txns += txn_buffer_.size();
  split_.gen_s += SecondsSince(start);
}

void TracedSimulation::InjectBuffer() {
  // Alternating spans per transaction would cost more clock reads than the
  // calls themselves, so the two layers are timed as two passes over the
  // buffer — every RegisterInjection still precedes its Inject, and Inject
  // reads no ledger state another transaction's registration changes.
  auto mark = Clock::now();
  for (ss::txn::Transaction& txn : txn_buffer_) {
    ledger_->RegisterInjection(txn);
  }
  auto now = Clock::now();
  split_.register_s += Seconds(mark, now);
  mark = now;
  for (ss::txn::Transaction& txn : txn_buffer_) scheduler_->Inject(txn);
  txn_buffer_.clear();
  split_.inject_s += SecondsSince(mark);
}

void TracedSimulation::StepRound(Round round, Round generate_round) {
  auto mark = Clock::now();
  scheduler_->BeginRound(round);
  auto now = Clock::now();
  split_.begin_s += Seconds(mark, now);

  const ShardId shards = scheduler_->shard_count();
  ss::core::Scheduler* scheduler = scheduler_.get();
  const std::uint64_t region = ++region_id_;
  const auto step_one = [this, scheduler, round, region](std::size_t shard) {
    WorkerSlot& slot = SlotForThisThread();
    if (slot.region != region) slot.region_slowest = 0;
    const Clock::time_point start =
        slot.region == region && slot.last_shard + 1 == shard ? slot.last_end
                                                              : Clock::now();
    scheduler->StepShard(static_cast<ShardId>(shard), round);
    const Clock::time_point end = Clock::now();
    const double seconds = Seconds(start, end);
    slot.busy += seconds;
    slot.step_busy += seconds;
    slot.region_slowest = std::max(slot.region_slowest, seconds);
    slot.region = region;
    slot.last_shard = shard;
    slot.last_end = end;
  };
  mark = now;
  if (pool_) {
    pool_->ParallelFor(shards, step_one);
  } else {
    for (ShardId shard = 0; shard < shards; ++shard) step_one(shard);
  }
  now = Clock::now();
  const double step_wall = Seconds(mark, now);
  split_.step_wall_s += step_wall;
  split_.region_capacity_s += step_wall * static_cast<double>(slots_.size());
  ++split_.regions;

  double slowest = 0;
  for (const WorkerSlot& slot : slots_) {
    if (slot.region == region) {
      slowest = std::max(slowest, slot.region_slowest);
    }
  }
  split_.step_critical_s += slowest;

  mark = now;
  const double gen_before = split_.gen_s;
  if (pool_ && config_.pipeline) {
    const auto parts = static_cast<std::uint32_t>(
        std::min<std::size_t>(pool_->thread_count(), shards));
    scheduler_->SealRound(round, parts);
    const auto region_start = Clock::now();
    pool_->Dispatch(parts, [this, scheduler, round, parts](std::size_t part) {
      const auto start = Clock::now();
      scheduler->FlushRoundPartition(round, static_cast<std::uint32_t>(part),
                                     parts);
      const double seconds = SecondsSince(start);
      WorkerSlot& slot = SlotForThisThread();
      slot.busy += seconds;
      slot.flush_busy += seconds;
    });
    if (generate_round != ss::kNoRound) Generate(generate_round);
    pool_->Wait();
    split_.region_capacity_s +=
        SecondsSince(region_start) * static_cast<double>(parts);
    ++split_.regions;
    const auto finish_start = Clock::now();
    scheduler_->FinishRound(round);
    split_.finish_s += SecondsSince(finish_start);
  } else {
    scheduler_->EndRound(round);
    split_.finish_s += SecondsSince(mark);
  }
  const double epilogue = SecondsSince(mark);
  split_.epilogue_wall_s += epilogue;
  split_.epilogue_self_s += epilogue - (split_.gen_s - gen_before);
}

ss::core::SimResult TracedSimulation::Run() {
  ss::stats::RunningStats pending_per_round;
  ss::stats::RunningStats leader_queue_per_round;
  ss::stats::RunningStats leader_queue_max_per_round;
  std::uint64_t max_pending = 0;
  std::uint64_t spill_peak = 0;

  const auto sample_round_metrics = [&]() {
    const auto start = Clock::now();
    const std::uint64_t pending = ledger_->pending();
    max_pending = std::max(max_pending, pending);
    pending_per_round.Add(static_cast<double>(pending) /
                          static_cast<double>(config_.shards));
    leader_queue_per_round.Add(scheduler_->LeaderQueueMean());
    leader_queue_max_per_round.Add(scheduler_->LeaderQueueMax());
    spill_peak = std::max(spill_peak, scheduler_->SpilledTxns());
    split_.sample_s += SecondsSince(start);
  };

  Round wall = 0;
  const auto stall_round = [&]() {
    sample_round_metrics();
    const auto start = Clock::now();
    injector_->OnStalledRound();
    split_.gen_s += SecondsSince(start);
    ++wall;
    ++recovery_rounds_;
  };
  const auto end_round = [&](Round round) {
    sample_round_metrics();
    ProbeMemory();
    ++wall;
    ++protocol_rounds_done_;
    MaybeCheckpoint(round);
  };

  const auto run_start = Clock::now();
  for (Round round = 0; round < config_.rounds; ++round) {
    while (next_fault_ < fault_plan_.events.size() &&
           fault_plan_.events[next_fault_].crash_round == round) {
      ExecuteFault(fault_plan_.events[next_fault_++], stall_round);
    }
    if (generated_round_ != round) Generate(round);
    InjectBuffer();
    // The engine's rule: no open-loop pre-generation across a fault
    // boundary (the stalled rounds must accrue their arrivals first).
    Round generate_round =
        round + 1 < config_.rounds ? round + 1 : ss::kNoRound;
    if (open_loop_ && next_fault_ < fault_plan_.events.size() &&
        fault_plan_.events[next_fault_].crash_round == round + 1) {
      generate_round = ss::kNoRound;
    }
    StepRound(round, generate_round);
    end_round(round);
  }

  Round round = config_.rounds;
  bool drained = false;
  if (config_.drain_cap > 0) {
    const Round limit = config_.rounds + config_.drain_cap;
    while (round < limit) {
      const bool more_arrivals = !injector_->Exhausted();
      if (!more_arrivals && scheduler_->Idle()) {
        drained = true;
        break;
      }
      if (more_arrivals) {
        Generate(round);
        InjectBuffer();
      }
      StepRound(round, ss::kNoRound);
      end_round(round);
      ++round;
    }
    if (!drained) drained = injector_->Exhausted() && scheduler_->Idle();
  }
  split_.loop_wall_s = SecondsSince(run_start);
  split_.protocol_rounds = protocol_rounds_done_;
  split_.arena_resets = scheduler_->ArenaMemory().resets;
  for (const WorkerSlot& slot : slots_) {
    split_.worker_busy_s.push_back(slot.busy);
    split_.step_busy_s += slot.step_busy;
    split_.flush_busy_s += slot.flush_busy;
  }

  ss::core::SimResult result;
  result.avg_pending_per_shard = pending_per_round.mean();
  result.avg_leader_queue = leader_queue_per_round.mean();
  result.max_leader_queue = leader_queue_per_round.max();
  result.max_single_leader_queue = leader_queue_max_per_round.max();
  result.spill_peak = spill_peak;
  const ss::stats::LatencyRecorder& latency = ledger_->latency();
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
  return result;
}

void TracedSimulation::ProbeMemory() {
  // The footprint walks are O(shards); every kMemoryProbeStride-th round
  // is enough for peaks of capacities that grow and decay over many rounds.
  if (protocol_rounds_done_ % kMemoryProbeStride != 0) return;
  split_.ring_capacity_peak_bytes =
      std::max(split_.ring_capacity_peak_bytes,
               scheduler_->NetworkMemory().bucket_capacity_bytes);
  split_.outbox_capacity_peak_bytes =
      std::max(split_.outbox_capacity_peak_bytes,
               scheduler_->OutboxMemory().capacity_bytes);
  split_.arena_reserved_peak_bytes =
      std::max(split_.arena_reserved_peak_bytes,
               scheduler_->ArenaMemory().reserved_bytes);
}

void TracedSimulation::MaybeCheckpoint(Round round) {
  if (!wal_ || config_.checkpoint_interval == 0) return;
  if (protocol_rounds_done_ % config_.checkpoint_interval != 0) return;
  const auto start = Clock::now();
  ss::durability::WriteCheckpoint(*ledger_, *wal_, *storage_, round);
  ++checkpoint_count_;
  split_.checkpoint_s += SecondsSince(start);
}

void TracedSimulation::ExecuteFault(const ss::durability::FaultEvent& event,
                                    const std::function<void()>& stall_round) {
  // Stalled rounds inside the fault are timed by their own spans (sample,
  // generation); everything else here is recovery work.
  const auto start = Clock::now();
  const double stalls_before = split_.sample_s + split_.gen_s;
  const ShardId shard = event.shard;
  using ss::durability::ShardLiveness;

  ss::durability::Blob before;
  ss::durability::AppendShardImage(
      before, ss::durability::CaptureShardImage(*ledger_, shard,
                                                wal_->durable_seq(shard)));
  liveness_->Crash(shard);
  scheduler_->OnShardLiveness(shard, ShardLiveness::kCrashed);
  ledger_->ResetShardForRecovery(shard);
  for (Round i = 0; i < event.down_rounds; ++i) stall_round();

  liveness_->BeginRecovery(shard);
  scheduler_->OnShardLiveness(shard, ShardLiveness::kRecovering);
  const ss::durability::RecoveryStats stats =
      ss::durability::RecoverShard(*ledger_, shard, *storage_);
  replay_bytes_ += stats.replayed_bytes;
  ss::durability::Blob after;
  ss::durability::AppendShardImage(
      after, ss::durability::CaptureShardImage(*ledger_, shard,
                                               wal_->durable_seq(shard)));
  SSHARD_CHECK(after == before &&
               "recovered shard state differs from the pre-crash image");
  const Round replay_rounds =
      1 + static_cast<Round>(stats.replayed_bytes /
                             config_.replay_bytes_per_round);
  for (Round i = 0; i < replay_rounds; ++i) stall_round();

  liveness_->BeginCatchUp(shard);
  scheduler_->OnShardLiveness(shard, ShardLiveness::kCatchUp);
  SSHARD_CHECK(ledger_->chains()[shard].Verify() &&
               "recovered chain fails hash verification");
  stall_round();

  liveness_->Rejoin(shard);
  scheduler_->OnShardLiveness(shard, ShardLiveness::kOnline);
  split_.recover_s +=
      SecondsSince(start) - (split_.sample_s + split_.gen_s - stalls_before);
}

/// Bit equality, so that -0.0 vs 0.0 or two NaNs compare as the engine's
/// bit-identity contract means them.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

double LayerSplit::SelfSum() const {
  return gen_s + register_s + inject_s + begin_s + step_wall_s +
         epilogue_self_s + sample_s + checkpoint_s + recover_s;
}

TracedRun RunTraced(const ss::core::SimConfig& config) {
  TracedRun run;
  const auto start = Clock::now();
  TracedSimulation simulation(config);
  run.setup_s = SecondsSince(start);
  run.result = simulation.Run();
  run.split = simulation.split();
  return run;
}

bool ResultsIdentical(const ss::core::SimResult& a,
                      const ss::core::SimResult& b) {
  return SameBits(a.avg_pending_per_shard, b.avg_pending_per_shard) &&
         SameBits(a.avg_latency, b.avg_latency) &&
         SameBits(a.max_latency, b.max_latency) &&
         SameBits(a.p50_latency, b.p50_latency) &&
         SameBits(a.p99_latency, b.p99_latency) &&
         SameBits(a.avg_leader_queue, b.avg_leader_queue) &&
         SameBits(a.max_leader_queue, b.max_leader_queue) &&
         SameBits(a.max_single_leader_queue, b.max_single_leader_queue) &&
         a.injected == b.injected && a.committed == b.committed &&
         a.aborted == b.aborted && a.unresolved == b.unresolved &&
         a.max_pending == b.max_pending && a.spill_peak == b.spill_peak &&
         a.messages == b.messages && a.payload_units == b.payload_units &&
         a.offered_txns == b.offered_txns &&
         a.injected_txns == b.injected_txns &&
         a.inject_lag_peak == b.inject_lag_peak &&
         a.wal_bytes == b.wal_bytes &&
         a.checkpoint_count == b.checkpoint_count &&
         a.replay_bytes == b.replay_bytes &&
         a.recovery_rounds == b.recovery_rounds &&
         a.rounds_executed == b.rounds_executed && a.drained == b.drained;
}

}  // namespace perfbench
