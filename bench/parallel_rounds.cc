// Shard-parallel round-loop bench. Every mode runs on one small core:
// RunOnce (a timed run plus its introspection), WorkerInvariant (workers 4
// with every round pooled must match the serial run bit for bit),
// bench::Record (the BENCH_*.json writer, shared with bench/paper),
// RunHeadToHead (fds vs the backpressure wrapper over a list of cells) and
// CompareRoots (fds over one top root vs several).
//
//   mode            record                   runs
//   (default)       -                        one config on workers 1, 2, 4
//                                            .. --workers: speedup, memory
//   --check         -                        every scheduler, 3 WAL cells
//   --grid          BENCH_scaling.json       s up to 1024 on 3 topologies,
//                                            diameter_span root pair
//   --phases        BENCH_pipeline.json      per-phase split and paired
//                                            speedup over 5 sweeps
//   --leadershare   -                        drained fds, 1 vs --roots roots
//   --faults        BENCH_recovery.json      crash churn vs fault-free
//   --backpressure  BENCH_backpressure.json  fds vs backpressure, Zipf skew
//   --traffic       BENCH_traffic.json       fds vs backpressure, traces
//
// --smoke shrinks --phases, --leadershare, --faults and --backpressure to
// their `perf` ctest size. Each mode's function names the flags it reads
// and SSHARD_CHECKs its claims; docs/BENCHMARKS.md describes every record
// field.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/hierarchy.h"
#include "common/arena.h"
#include "common/check.h"
#include "common/flags.h"
#include "consensus/backpressure_scheduler.h"
#include "core/engine.h"
#include "traffic/trace.h"

namespace {

using namespace stableshard;
using bench::Fields;
using bench::Record;

struct TimedRun {
  std::string scheduler;  ///< Scheduler::name() of the run
  core::SimResult result;
  double seconds = 0;
  net::RingMemory memory_at_start;  ///< after construction, before round 0
  net::RingMemory memory_at_end;
  net::LaneMemory lane_memory_at_end;  ///< outbox footprint after the run
  common::ArenaMemoryStats arena_at_end;  ///< coloring step-scratch arenas
  core::PhaseTimes phases;
  Round pooled_rounds = 0;  ///< rounds the engine fanned out on the pool
  double leader_in_share = 0;   ///< max_i messages_in(i) / messages_sent
  double leader_out_share = 0;  ///< max_i messages_out(i) / messages_sent
  /// messages_in of each top-layer root cluster's leader, in root order
  /// (empty when the scheduler runs without a hierarchy). These are the
  /// numerators of the root-leader traffic shares the multi-root fix is
  /// judged by: diameter-spanning load must spread across them instead of
  /// funneling into root 0's leader.
  std::vector<std::uint64_t> root_leader_in;
  /// Admission-control counters of the backpressure wrapper (zero for
  /// every other scheduler).
  std::uint64_t deferred = 0;
  std::uint64_t readmitted = 0;
  std::uint64_t hot_transitions = 0;
};

/// Which rounds of a multi-worker run fan out. kGated times the engine as
/// shipped (its per-round gate picks); kEveryRound fans out every round so
/// determinism checks compare the pooled paths even on grids whose rounds
/// never reach the gate.
enum class Fanout { kGated, kEveryRound };

TimedRun RunOnce(core::SimConfig config, std::uint32_t workers,
                 Fanout fanout = Fanout::kEveryRound) {
  config.worker_threads = workers;
  core::Simulation sim(config);
  if (fanout == Fanout::kEveryRound) sim.PoolEveryRound();
  TimedRun timed;
  timed.scheduler = sim.scheduler().name();
  timed.memory_at_start = sim.scheduler().NetworkMemory();
  const auto start = std::chrono::steady_clock::now();
  timed.result = sim.Run();
  timed.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  timed.memory_at_end = sim.scheduler().NetworkMemory();
  timed.lane_memory_at_end = sim.scheduler().OutboxMemory();
  timed.arena_at_end = sim.scheduler().ArenaMemory();
  timed.phases = sim.phase_times();
  timed.pooled_rounds = sim.pooled_rounds();
  std::uint64_t max_in = 0, max_out = 0;
  for (ShardId shard = 0; shard < config.shards; ++shard) {
    const net::ShardTraffic traffic = sim.scheduler().ShardTrafficFor(shard);
    max_in = std::max(max_in, traffic.messages_in);
    max_out = std::max(max_out, traffic.messages_out);
  }
  if (timed.result.messages > 0) {
    timed.leader_in_share = static_cast<double>(max_in) /
                            static_cast<double>(timed.result.messages);
    timed.leader_out_share = static_cast<double>(max_out) /
                             static_cast<double>(timed.result.messages);
  }
  if (const cluster::Hierarchy* hierarchy = sim.hierarchy()) {
    for (const std::uint32_t root : hierarchy->top_roots()) {
      const ShardId leader = hierarchy->clusters()[root].leader;
      timed.root_leader_in.push_back(
          sim.scheduler().ShardTrafficFor(leader).messages_in);
    }
  }
  if (const auto* backpressure =
          dynamic_cast<const consensus::BackpressureScheduler*>(
              &sim.scheduler())) {
    timed.deferred = backpressure->deferred_total();
    timed.readmitted = backpressure->readmitted_total();
    timed.hot_transitions = backpressure->hot_transitions();
  }
  return timed;
}

/// The drained base config of the record modes: `topology` with its bench
/// hierarchy, one account per shard (round robin), run until idle within
/// 200000 drain rounds.
core::SimConfig DrainedConfig(net::TopologyKind topology, ShardId shards,
                              std::uint64_t seed) {
  core::SimConfig config;
  config.topology = topology;
  config.hierarchy = bench::HierarchyFor(topology);
  config.shards = shards;
  config.accounts = shards;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.drain_cap = 200000;
  config.seed = seed;
  return config;
}

/// Every mode runs its base config through the one config check before it
/// opens its record: a bad flag value exits 2 with the check's line, never
/// an abort inside the engine.
bool Usable(const core::SimConfig& config) {
  const std::string error = core::ConfigError(config);
  if (error.empty()) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

bool Identical(const core::SimResult& a, const core::SimResult& b) {
  return core::FirstDifferingField(a, b).empty();
}

/// The worker-invariance check every mode shares: `config` on 4 workers,
/// every round pooled, must reproduce `serial` (its workers = 1 result)
/// bit for bit. Names the first differing field on stderr when it does
/// not.
bool WorkerInvariant(const core::SimConfig& config,
                     const core::SimResult& serial) {
  const std::string_view field =
      core::FirstDifferingField(serial, RunOnce(config, 4).result);
  if (field.empty()) return true;
  std::fprintf(stderr,
               "workers 4: SimResult.%.*s differs from the serial run\n",
               static_cast<int>(field.size()), field.data());
  return false;
}

/// Busiest-vs-mean ratio over the top-root leaders' inbound counts (0 when
/// the run had no hierarchy or no traffic). 1.0 is perfectly balanced; the
/// multi-root acceptance bar is < 3.0.
double RootLeaderImbalance(const TimedRun& run) {
  if (run.root_leader_in.empty()) return 0;
  std::uint64_t max_in = 0, total = 0;
  for (const std::uint64_t in : run.root_leader_in) {
    max_in = std::max(max_in, in);
    total += in;
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(run.root_leader_in.size());
  return static_cast<double>(max_in) / mean;
}

/// The single-leader-degeneration before/after: fds `config` over one top
/// root, then over `roots`, each side run (and reported) by `run_side`.
/// The multi-root hierarchy must move load, never outcomes — both sides
/// commit the same count — and its busiest root leader must stay below 3x
/// the mean root-leader share. Returns {one root, `roots` roots}.
template <typename RunSide>
std::pair<TimedRun, TimedRun> CompareRoots(core::SimConfig config,
                                           std::uint32_t roots,
                                           RunSide run_side) {
  config.fds_top_roots = 1;
  TimedRun one_root = run_side(config);
  config.fds_top_roots = roots;
  TimedRun multiroot = run_side(config);
  SSHARD_CHECK(one_root.result.committed == multiroot.result.committed &&
               "multi-root hierarchy changed the committed count — the "
               "redirect lost or duplicated admissions");
  SSHARD_CHECK(RootLeaderImbalance(multiroot) < 3.0 &&
               "busiest top-root leader above 3x the mean root-leader "
               "share — the multi-root spread regressed");
  return {std::move(one_root), std::move(multiroot)};
}

/// One cell of the fds-vs-backpressure head-to-head.
struct HeadToHeadCell {
  std::string shape;  ///< the workload: hot_destination or a trace shape
  double theta = 0;   ///< its Zipf exponent
  core::SimConfig config;  ///< the scheduler is set per side
  bool cut_peak = false;  ///< backpressure must strictly cut the ldrq peak
  /// Replayed traces only: the whole trace must be offered and injected.
  std::optional<std::uint64_t> trace_records;
};

using HeadToHeadFields = Fields (*)(const HeadToHeadCell&, const TimedRun&);

/// fds vs the backpressure admission-control wrapper on every cell, then the
/// backpressure side of `spot_check` on workers 1 vs 4.
/// Writes `record` (`header`, the spot check's identity flag, and one
/// `row_fields` row per run) and asserts: every run drains with the
/// accounting identity (and a replay injects its whole trace), both sides
/// of a cell commit the same count — shedding defers, it never drops — the
/// peak is cut where the cell demands it, and the spot check is
/// bit-identical.
void RunHeadToHead(const std::vector<HeadToHeadCell>& cells,
                   core::SimConfig spot_check, Fields header,
                   HeadToHeadFields row_fields, Record& record) {
  std::printf(
      "%15s %5s %13s | %8s %8s | %10s %10s %9s | %9s %10s %9s %9s | %8s\n",
      "shape", "zipf", "scheduler", "offered", "injected", "ldrq_avg",
      "ldrq_peak", "spill_pk", "deferred", "committed", "avg_lat", "p99_lat",
      "drained");
  std::vector<Fields> rows;
  bool all_ok = true;
  bool commits_match = true;
  bool peaks_below = true;
  for (const HeadToHeadCell& cell : cells) {
    core::SimResult sides[2];
    for (const int side : {0, 1}) {
      core::SimConfig config = cell.config;
      config.scheduler = side == 0 ? "fds" : "backpressure";
      const TimedRun run = RunOnce(config, 1);
      const core::SimResult& r = run.result;
      // Open loop: the whole trace was offered and, once the drain phase
      // let the schedule finish, every offer was injected.
      const bool replayed_all =
          !cell.trace_records ||
          (r.offered_txns == *cell.trace_records &&
           r.injected_txns == r.offered_txns && r.injected == r.offered_txns);
      all_ok = all_ok && r.injected == r.committed + r.aborted + r.unresolved &&
               replayed_all && r.drained && r.unresolved == 0;
      std::printf(
          "%15s %5.2f %13s | %8llu %8llu | %10.2f %10.1f %9llu | %9llu %10llu "
          "%9.1f %9.0f | %8s\n",
          cell.shape.c_str(), cell.theta, run.scheduler.c_str(),
          static_cast<unsigned long long>(r.offered_txns),
          static_cast<unsigned long long>(r.injected_txns),
          r.avg_leader_queue, r.max_leader_queue,
          static_cast<unsigned long long>(r.spill_peak),
          static_cast<unsigned long long>(run.deferred),
          static_cast<unsigned long long>(r.committed), r.avg_latency,
          r.p99_latency, r.drained ? "yes" : "NO");
      rows.push_back(row_fields(cell, run));
      sides[side] = r;
    }
    commits_match = commits_match && sides[1].committed == sides[0].committed;
    if (cell.cut_peak) {
      peaks_below =
          peaks_below && sides[1].max_leader_queue < sides[0].max_leader_queue;
    }
  }

  spot_check.scheduler = "backpressure";
  const bool identical =
      WorkerInvariant(spot_check, RunOnce(spot_check, 1).result);
  // The key names the retired pipeline switch; it stays so the tracked
  // records keep their bytes.
  header.emplace_back("workers_1_vs_4_pipeline_on_off_identical", identical);
  record.Write(header, rows);

  SSHARD_CHECK(all_ok &&
               "a run broke the accounting identity, failed to drain, or "
               "did not inject its whole trace");
  SSHARD_CHECK(commits_match &&
               "backpressure committed a different count than fds — "
               "admissions were lost or duplicated");
  SSHARD_CHECK(peaks_below &&
               "backpressure did not cut the leader-queue peak on a cell "
               "that requires it");
  SSHARD_CHECK(identical &&
               "backpressure changed a SimResult across workers — "
               "determinism bug");
}

/// Fraction of the run the driving thread spent outside the two phases
/// that scale with workers (the StepShard fan-out and the partitioned
/// flush window) — the Amdahl serial share of one round.
double SerialShare(const core::PhaseTimes& phases) {
  if (phases.total <= 0) return 0;
  const double share =
      (phases.total - phases.step - phases.flush) / phases.total;
  return std::max(0.0, share);
}

void PrintRingMemory(const TimedRun& run) {
  const net::RingMemory& end = run.memory_at_end;
  std::printf(
      "ring memory: %llu buckets at start (dense table held %llu); "
      "end of run: %llu live dests, %llu buckets, %.2f MB envelope capacity\n",
      static_cast<unsigned long long>(run.memory_at_start.allocated_buckets),
      static_cast<unsigned long long>(end.dense_bucket_equivalent),
      static_cast<unsigned long long>(end.live_destinations),
      static_cast<unsigned long long>(end.allocated_buckets),
      static_cast<double>(end.bucket_capacity_bytes) / (1024.0 * 1024.0));
  const net::LaneMemory& lanes = run.lane_memory_at_end;
  std::printf(
      "outbox lanes: %llu with capacity, %.2f MB reserved, decayed "
      "high-water %llu items (burst capacity is released, not pinned)\n",
      static_cast<unsigned long long>(lanes.lanes_with_capacity),
      static_cast<double>(lanes.capacity_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(lanes.high_water_items));
  const common::ArenaMemoryStats& arena = run.arena_at_end;
  std::printf(
      "coloring arenas: %llu chunks, %.2f KB reserved, high water %.2f KB "
      "across %llu resets (step scratch is bump-allocated, not heaped)\n",
      static_cast<unsigned long long>(arena.chunks),
      static_cast<double>(arena.reserved_bytes) / 1024.0,
      static_cast<double>(arena.high_water_bytes) / 1024.0,
      static_cast<unsigned long long>(arena.resets));
}

/// The large-s grid: s in {256, 512, 1024} on line (fds), ring (fds) and
/// uniform (bds), burst b = 3000, the non-uniform cells on the
/// radius-bounded local workload (see bench::LargeGridConfig). Each cell
/// runs workers 1 vs --workers through the engine's gate and must match
/// bit for bit. Two readings to expect: ring_buckets_at_start is always 0
/// (the lazy ring allocates nothing up front; the former dense table held
/// (Diameter + 2) * s buckets), and BDS's speedup plateaus — Algorithm 1
/// colors each epoch at a single leader — while FDS scales.
int RunGrid(const Flags& flags) {
  const auto rounds = static_cast<Round>(flags.GetUint("rounds", 400));
  const double rho = flags.GetDouble("rho", 0.15);
  const double burst = flags.GetDouble("b", 3000);
  const auto workers = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flags.GetUint("workers", 8)));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  const auto radius = static_cast<Distance>(flags.GetUint("radius", 8));
  const std::string json_path =
      flags.GetString("json", "BENCH_scaling.json");
  if (!flags.FinishReads()) return 2;
  // The s = 1024 diameter_span pair at the end; every grid cell shares
  // its flag-set fields.
  core::SimConfig diameter = bench::LargeGridConfig(
      {net::TopologyKind::kLine, "fds", 1024}, rho, burst, rounds, radius);
  diameter.seed = seed;
  diameter.strategy = "diameter_span";
  if (!Usable(diameter)) return 2;
  Record record;
  if (!record.Open(json_path)) return 2;

  std::printf("parallel_rounds grid: s in {256,512,1024}, b=%.0f, rho=%.2f, "
              "%llu rounds, workers 1 vs %u\n\n",
              burst, rho, static_cast<unsigned long long>(rounds), workers);
  std::printf("%6s %8s %13s | %9s %9s %8s | %10s %12s | %9s %9s %10s\n", "s",
              "topology", "sched", "serial_s", "par_s", "speedup", "buckets@0",
              "buckets@end", "ldr_in%", "ldr_out%", "identical");

  std::vector<Fields> rows;
  bool all_identical = true;
  auto run_cell = [&](const core::SimConfig& config) {
    const TimedRun serial = RunOnce(config, 1);
    TimedRun parallel = RunOnce(config, workers, Fanout::kGated);
    const bool identical = Identical(serial.result, parallel.result);
    all_identical = all_identical && identical;
    const double speedup =
        parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0;
    const std::string topology = net::TopologyName(config.topology);
    const net::RingMemory& memory = parallel.memory_at_end;
    std::printf(
        "%6u %8s %13s | %9.3f %9.3f %7.2fx | %10llu %12llu | %8.2f%% "
        "%8.2f%% %10s\n",
        config.shards, topology.c_str(), parallel.scheduler.c_str(),
        serial.seconds, parallel.seconds, speedup,
        static_cast<unsigned long long>(
            parallel.memory_at_start.allocated_buckets),
        static_cast<unsigned long long>(memory.allocated_buckets),
        100.0 * parallel.leader_in_share, 100.0 * parallel.leader_out_share,
        identical ? "yes" : "NO");
    rows.push_back(
        {{"s", config.shards}, {"topology", topology},
         {"scheduler", parallel.scheduler}, {"strategy", config.strategy},
         {"serial_seconds", serial.seconds},
         {"parallel_seconds", parallel.seconds}, {"speedup", speedup},
         {"identical", identical},
         {"ring_buckets_at_start", parallel.memory_at_start.allocated_buckets},
         {"ring_live_destinations", memory.live_destinations},
         {"ring_buckets", memory.allocated_buckets},
         {"ring_capacity_bytes", memory.bucket_capacity_bytes},
         {"dense_bucket_equivalent", memory.dense_bucket_equivalent},
         {"leader_in_share", parallel.leader_in_share},
         {"leader_out_share", parallel.leader_out_share},
         {"max_single_leader_queue", parallel.result.max_single_leader_queue},
         {"root_leaders", parallel.root_leader_in.size()},
         {"root_leader_imbalance", RootLeaderImbalance(parallel)},
         {"avg_pending_per_shard", parallel.result.avg_pending_per_shard},
         {"avg_latency", parallel.result.avg_latency},
         {"unresolved", parallel.result.unresolved},
         {"committed", parallel.result.committed},
         {"messages", parallel.result.messages}});
    return parallel;
  };

  for (const bench::LargeGridCell& cell : bench::LargeScaleGrid()) {
    core::SimConfig config =
        bench::LargeGridConfig(cell, rho, burst, rounds, radius);
    config.seed = seed;
    run_cell(config);
  }

  // Before/after record for the single-leader degeneration fix:
  // diameter_span at s = 1024 homes every transaction in a top-layer root
  // cluster. With the classic single-top hierarchy (the "before" row) the
  // lone root leader sees ~99% of all traffic; 8 roots (the "after" row)
  // hash the same workload across the root leaders. At this scale the
  // top-layer epochs outlast the bench window, so both rows commit the
  // same count.
  std::printf("\ndiameter_span before/after (s=1024, line):\n");
  const auto [one_root, multiroot] = CompareRoots(diameter, 8, run_cell);
  std::printf(
      "busiest-shard inbound share %.2f%% -> %.2f%%; busiest root leader "
      "at %.2fx the mean root-leader share (bar: < 3x)\n",
      100.0 * one_root.leader_in_share, 100.0 * multiroot.leader_in_share,
      RootLeaderImbalance(multiroot));

  record.Write({{"bench", "parallel_rounds_grid"},
                {"burst", burst}, {"rho", rho}, {"rounds", rounds},
                {"workers", workers}},
               rows);
  SSHARD_CHECK(all_identical &&
               "worker_threads changed a SimResult — determinism bug");
  std::printf(
      "\nall %zu grid cells bit-identical across worker counts; "
      "table written to %s\n"
      "Reading: BDS (uniform) speedup plateaus — Algorithm 1 colors each "
      "epoch at one leader — while FDS distributes coloring across cluster "
      "leaders; the lazy ring allocates 0 buckets until first contact "
      "(dense table held (D+2)*s).\n",
      rows.size(), json_path.c_str());
  return 0;
}

/// The per-phase split: generate / inject / BeginRound / StepShard /
/// flush / finish / sample timed separately for each (cell, workers) run,
/// through the engine's per-round gate; each row reports how many rounds
/// the gate fanned out. Speedups are paired: each whole-sweep repetition
/// divides the cell's workers = 1 time by the run's time, and the row
/// reports the median of those ratios and how many repetitions ran faster
/// than the baseline.
int RunPhases(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const auto rounds =
      static_cast<Round>(flags.GetUint("rounds", smoke ? 200 : 300));
  const double rho = flags.GetDouble("rho", 0.15);
  // The smoke keeps the full burst: its rounds must reach the per-round
  // gate, or the smoke would never run a pooled round.
  const double burst = flags.GetDouble("b", 3000);
  const std::uint64_t seed = flags.GetUint("seed", 42);
  const auto radius = static_cast<Distance>(flags.GetUint("radius", 8));
  const std::uint32_t repeat = smoke ? 1 : 5;
  const std::string json_path =
      flags.GetString("json", "BENCH_pipeline.json");
  if (!flags.FinishReads()) return 2;

  const std::vector<ShardId> sizes =
      smoke ? std::vector<ShardId>{64} : std::vector<ShardId>{256, 1024};
  const std::vector<std::uint32_t> worker_grid =
      smoke ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::pair<net::TopologyKind, const char*> cells[] = {
      {net::TopologyKind::kUniform, "bds"}, {net::TopologyKind::kLine, "fds"}};
  core::SimConfig warm = bench::LargeGridConfig(
      {cells[0].first, cells[0].second, sizes.front()}, rho, burst, rounds,
      radius);
  warm.seed = seed;
  if (!Usable(warm)) return 2;
  Record record;
  if (!record.Open(json_path)) return 2;

  std::printf(
      "parallel_rounds phases: per-round wall-clock split; pooled rounds "
      "drain the flush destination-partitioned and overlap next-round "
      "generation; speedup = median over %u sweeps of each sweep's "
      "workers = 1 time / this run's time\n\n",
      repeat);
  std::printf(
      "%6s %8s %5s %7s | %8s %8s %5s | %8s %8s %8s %8s | %8s | %8s\n", "s",
      "topology", "sched", "workers", "seconds", "speedup", "wins", "step_s",
      "flush_s", "finish_s", "serial%", "pooled", "identical");

  // One untimed pooled run first. Once a process has started a thread,
  // glibc keeps its locked multi-thread malloc paths for good, which made
  // a serial s = 256 BDS run about 8% slower. Without the warm-up only the
  // very first workers = 1 baseline would run single-threaded, and its
  // cells' speedups would carry that tax.
  RunOnce(warm, worker_grid.back());

  // Every (cell, workers) run, in sweep order. The repetitions are whole
  // sweeps, so a slow stretch of the host lands on every cell of one sweep
  // rather than on all repetitions of one cell, and each run is paired
  // with its cell's workers = 1 run of the same sweep. Every repetition
  // must match its cell's workers = 1 result.
  struct PhasesRun {
    core::SimConfig config;
    std::uint32_t workers = 1;
    std::size_t baseline = 0;  ///< index of the cell's workers = 1 run
    std::vector<TimedRun> reps;
    bool identical = true;
  };
  std::vector<PhasesRun> runs;
  for (const auto& [topology, scheduler] : cells) {
    for (const ShardId shards : sizes) {
      core::SimConfig config = bench::LargeGridConfig(
          {topology, scheduler, shards}, rho, burst, rounds, radius);
      config.seed = seed;
      const std::size_t baseline = runs.size();
      for (const std::uint32_t workers : worker_grid) {
        runs.push_back({config, workers, baseline, {}, true});
      }
    }
  }
  for (std::uint32_t rep = 0; rep < repeat; ++rep) {
    for (PhasesRun& run : runs) {
      run.reps.push_back(RunOnce(run.config, run.workers, Fanout::kGated));
      const TimedRun& base = runs[run.baseline].reps.front();
      run.identical =
          run.identical && Identical(base.result, run.reps.back().result);
    }
  }

  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2;
  };
  std::vector<Fields> rows;
  bool all_identical = true;
  for (const PhasesRun& run : runs) {
    const std::vector<TimedRun>& base = runs[run.baseline].reps;
    std::vector<double> seconds, ratios;
    std::uint32_t faster_reps = 0;
    for (std::uint32_t rep = 0; rep < repeat; ++rep) {
      const double t = run.reps[rep].seconds;
      const double ratio = t > 0 ? base[rep].seconds / t : 0.0;
      seconds.push_back(t);
      ratios.push_back(ratio);
      faster_reps += ratio > 1.0 ? 1 : 0;
    }
    const double speedup = median(ratios);
    // The phase columns come from the repetition with the median time.
    const double median_seconds = median(seconds);
    const TimedRun& timed = *std::find_if(
        run.reps.begin(), run.reps.end(),
        [&](const TimedRun& r) { return r.seconds >= median_seconds; });
    const core::PhaseTimes& phases = timed.phases;
    const std::string topology = net::TopologyName(run.config.topology);
    all_identical = all_identical && run.identical;
    // The smoke's burst is sized to reach the gate: a multi-worker cell
    // that never fans out would check nothing about the pool.
    SSHARD_CHECK((!smoke || run.workers == 1 || timed.pooled_rounds > 0) &&
                 "phases smoke: a multi-worker cell ran no pooled round");

    std::printf(
        "%6u %8s %5s %7u | %8.3f %7.2fx %5u | %8.3f %8.3f %8.3f "
        "%7.1f%% | %8llu | %8s\n",
        run.config.shards, topology.c_str(), run.config.scheduler.c_str(),
        run.workers, timed.seconds, speedup, faster_reps, phases.step,
        phases.flush, phases.finish, 100.0 * SerialShare(phases),
        static_cast<unsigned long long>(timed.pooled_rounds),
        run.identical ? "yes" : "NO");
    rows.push_back(
        {{"s", run.config.shards}, {"topology", topology},
         {"scheduler", run.config.scheduler}, {"workers", run.workers},
         {"seconds", timed.seconds}, {"speedup", speedup},
         {"faster_reps", faster_reps}, {"identical", run.identical},
         {"pooled_rounds", timed.pooled_rounds},
         {"rounds_executed", timed.result.rounds_executed},
         {"serial_share", SerialShare(phases)},
         {"max_single_leader_queue", timed.result.max_single_leader_queue},
         {"phase_generate", phases.generate}, {"phase_inject", phases.inject},
         {"phase_begin", phases.begin}, {"phase_step", phases.step},
         {"phase_flush", phases.flush}, {"phase_finish", phases.finish},
         {"phase_sample", phases.sample}, {"phase_total", phases.total},
         {"outbox_capacity_bytes", timed.lane_memory_at_end.capacity_bytes},
         {"outbox_high_water_items",
          timed.lane_memory_at_end.high_water_items},
         {"arena_reserved_bytes", timed.arena_at_end.reserved_bytes},
         {"arena_high_water_bytes", timed.arena_at_end.high_water_bytes},
         {"arena_resets", timed.arena_at_end.resets}});
  }

  record.Write({{"bench", "parallel_rounds_phases"},
                {"burst", burst}, {"rho", rho}, {"rounds", rounds},
                {"repeat", repeat}},
               rows);
  SSHARD_CHECK(all_identical &&
               "worker_threads changed a SimResult — determinism bug");
  std::printf(
      "\nall %zu runs bit-identical across worker counts; table written to "
      "%s\n"
      "Reading: a serial round's EndRound flush is in finish_s; a pooled "
      "round moves that work into flush_s — a pool-partitioned window that "
      "also hides next-round generation — so the serial share (everything "
      "outside step_s + flush_s) drops as more rounds pool.\n",
      rows.size(), json_path.c_str());
  return 0;
}

/// The hot-destination load-shedding record: fds vs the backpressure
/// wrapper on --strategy=hot_destination across Zipf exponents, under
/// sustained overload with no one-shot burst (admission control cannot see
/// a burst that lands before any traffic exists). The leader-queue peak
/// must fall strictly below fds's at every theta >= 1.0.
int RunBackpressure(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  // Smoke needs enough rounds for the shedding to engage visibly: with the
  // spread leader placement the hot cluster saturates a little later, and
  // at 250 rounds the fds/backpressure peaks were within noise of each
  // other — 400 keeps a clear margin on the strict peak comparison.
  const auto rounds =
      static_cast<Round>(flags.GetUint("rounds", smoke ? 400 : 800));
  const double rho = flags.GetDouble("rho", 0.35);
  const auto shards = static_cast<ShardId>(flags.GetUint("shards", 64));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  const std::uint64_t bp_high = flags.GetUint("bp-high", 48);
  const std::uint64_t bp_low = flags.GetUint("bp-low", 12);
  const std::string json_path =
      flags.GetString("json", "BENCH_backpressure.json");
  if (!flags.FinishReads()) return 2;

  // Sustained overload on the line topology, no one-shot burst: the
  // leader queue must build from steady Zipf-skewed arrivals for
  // injection-side shedding to have anything to shed.
  core::SimConfig base =
      DrainedConfig(net::TopologyKind::kLine, shards, seed);
  base.rho = rho;
  base.burst_round = kNoRound;
  base.strategy = "hot_destination";
  base.rounds = rounds;
  base.backpressure_high = bp_high;
  base.backpressure_low = bp_low;
  if (!Usable(base)) return 2;
  Record record;
  if (!record.Open(json_path)) return 2;

  // Under real skew (theta >= 1) the shedding must strictly cut the hot
  // leader's queue peak; milder thetas are throughput no-regression cells.
  std::vector<HeadToHeadCell> cells;
  for (const double theta : smoke ? std::vector<double>{1.2}
                                  : std::vector<double>{0.0, 0.5, 1.0, 1.5}) {
    cells.push_back({"hot_destination", theta, base, theta >= 1.0, {}});
    cells.back().config.zipf_theta = theta;
  }
  // The determinism spot check runs the highest theta, shortened.
  core::SimConfig spot_check = cells.back().config;
  spot_check.rounds = std::min<Round>(rounds, 300);

  std::printf(
      "parallel_rounds backpressure: fds vs backpressure (high=%llu "
      "low=%llu) on hot_destination, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      static_cast<unsigned long long>(bp_high),
      static_cast<unsigned long long>(bp_low), shards, rho,
      static_cast<unsigned long long>(rounds));
  RunHeadToHead(
      cells, spot_check,
      {{"bench", "parallel_rounds_backpressure"},
       {"strategy", "hot_destination"}, {"topology", "line"},
       {"shards", shards}, {"rho", rho}, {"rounds", rounds},
       {"bp_high", bp_high}, {"bp_low", bp_low}},
      [](const HeadToHeadCell& cell, const TimedRun& run) -> Fields {
        const core::SimResult& r = run.result;
        return {{"zipf_theta", cell.theta}, {"scheduler", run.scheduler},
                {"avg_leader_queue", r.avg_leader_queue},
                {"max_leader_queue", r.max_leader_queue},
                {"spill_peak", r.spill_peak}, {"deferred", run.deferred},
                {"readmitted", run.readmitted},
                {"hot_transitions", run.hot_transitions},
                {"injected", r.injected}, {"committed", r.committed},
                {"aborted", r.aborted}, {"unresolved", r.unresolved},
                {"avg_latency", r.avg_latency}, {"p99_latency", r.p99_latency},
                {"max_pending", r.max_pending}, {"messages", r.messages},
                {"drained", r.drained}};
      },
      record);
  std::printf(
      "\nall runs drained with the accounting identity intact; "
      "backpressure bit-identical workers 1/4; "
      "leader-queue peak strictly below fds at every theta >= 1.0; "
      "table written to %s\n"
      "Reading: every cell commits exactly what fds commits — shedding "
      "trades admission latency (avg/p99 up), never throughput. Under "
      "real skew (theta >= 1) that buys a strictly lower leader-queue "
      "peak; at mild skew the gate still flaps on the saturated baseline "
      "(nonzero deferred/hot_transitions) for little peak gain, which is "
      "the case for sizing the watermarks above the workload's normal "
      "backlog.\n",
      json_path.c_str());
  return 0;
}

/// The production-shaped workload record: the tracked tests/traces/
/// fixtures — {diurnal, flash, migrating} x Zipf theta {0.8, 1.2},
/// generated by tools/gen_trace.py — replayed open-loop through fds vs the
/// backpressure wrapper. The migrating-skew handoff is the shape admission
/// control has to chase, so its cells carry the peak cut, and the
/// migrating theta 1.2 replay is the determinism spot check.
int RunTraffic(const Flags& flags) {
  const std::string trace_dir = flags.GetString("trace-dir", "tests/traces");
  const std::uint64_t bp_high = flags.GetUint("bp-high", 48);
  const std::uint64_t bp_low = flags.GetUint("bp-low", 12);
  const std::string json_path = flags.GetString("json", "BENCH_traffic.json");
  if (!flags.FinishReads()) return 2;

  const struct {
    const char* shape;
    const char* suffix;
    double theta;
  } fixtures[] = {{"diurnal", "t08", 0.8},   {"diurnal", "t12", 1.2},
                  {"flash", "t08", 0.8},     {"flash", "t12", 1.2},
                  {"migrating", "t08", 0.8}, {"migrating", "t12", 1.2}};
  std::vector<HeadToHeadCell> cells;
  for (const auto& [shape, suffix, theta] : fixtures) {
    const std::string path =
        trace_dir + "/" + shape + "_" + suffix + ".trace";
    traffic::Trace trace;
    std::string error;
    if (!traffic::LoadTraceFile(path, &trace, &error)) {
      std::fprintf(stderr, "invalid trace: %s (file \"%s\")\n", error.c_str(),
                   path.c_str());
      return 2;
    }
    core::SimConfig config =
        DrainedConfig(net::TopologyKind::kLine, trace.shards, 42);
    config.accounts = trace.accounts;
    config.strategy = "trace_replay";
    config.trace = path;
    config.rounds =
        trace.records.empty() ? 1 : trace.records.back().round + 1;
    config.backpressure_high = bp_high;
    config.backpressure_low = bp_low;
    if (!Usable(config)) return 2;
    cells.push_back({shape, theta, config, std::string(shape) == "migrating",
                     trace.records.size()});
  }
  Record record;
  if (!record.Open(json_path)) return 2;

  std::printf(
      "parallel_rounds traffic: open-loop trace replay, fds vs backpressure "
      "(high=%llu low=%llu), fixtures from %s\n\n",
      static_cast<unsigned long long>(bp_high),
      static_cast<unsigned long long>(bp_low), trace_dir.c_str());
  RunHeadToHead(
      cells, cells.back().config,
      {{"bench", "parallel_rounds_traffic"}, {"strategy", "trace_replay"},
       {"topology", "line"}, {"bp_high", bp_high}, {"bp_low", bp_low}},
      [](const HeadToHeadCell& cell, const TimedRun& run) -> Fields {
        const core::SimResult& r = run.result;
        return {{"shape", cell.shape}, {"zipf_theta", cell.theta},
                {"scheduler", run.scheduler}, {"offered", r.offered_txns},
                {"injected", r.injected_txns},
                {"inject_lag_peak", r.inject_lag_peak},
                {"avg_leader_queue", r.avg_leader_queue},
                {"max_leader_queue", r.max_leader_queue},
                {"spill_peak", r.spill_peak}, {"deferred", run.deferred},
                {"committed", r.committed}, {"aborted", r.aborted},
                {"avg_latency", r.avg_latency}, {"p99_latency", r.p99_latency},
                {"drained", r.drained}};
      },
      record);
  std::printf(
      "\nall replays drained, injected their whole trace, and kept the "
      "accounting identity; backpressure commits exactly fds's counts and "
      "cuts the migrating-skew leader-queue peak; open-loop replay "
      "bit-identical workers 1/4; table written to %s\n"
      "Reading: the trace is the arrival schedule — offered == injected on "
      "every row because arrivals continue through the drain phase until "
      "the schedule is exhausted, so shedding shows up as admission "
      "latency and a lower queue peak, never as lost transactions.\n",
      json_path.c_str());
  return 0;
}

/// The determinism contract of core/scheduler.h on small configs: every
/// scheduler (bds and fds also with non-trivial leader fan-outs) must be
/// worker-invariant, and three WAL cells must also leave the protocol
/// outcome of the WAL-off run untouched.
int RunCheck(const Flags& flags) {
  const auto rounds = static_cast<Round>(flags.GetUint("rounds", 300));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  if (!flags.FinishReads()) return 2;

  auto small_config = [&](const char* scheduler) {
    core::SimConfig config;
    config.scheduler = scheduler;
    config.shards = 32;
    config.accounts = 32;
    config.k = 8;
    config.rho = 0.2;
    config.burstiness = 300;
    config.rounds = rounds;
    config.seed = seed;
    config.topology = config.scheduler == "bds" ? net::TopologyKind::kUniform
                                                : net::TopologyKind::kLine;
    config.hierarchy = bench::HierarchyFor(config.topology);
    return config;
  };

  const struct {
    const char* scheduler;
    std::uint32_t color_leaders;
    std::uint32_t top_roots;
  } cells[] = {{"bds", 1, 1},    {"bds", 4, 1},    {"fds", 1, 1},
               {"fds", 1, 3},    {"direct", 1, 1}, {"backpressure", 1, 1}};
  for (const auto& cell : cells) {
    core::SimConfig config = small_config(cell.scheduler);
    config.bds_color_leaders = cell.color_leaders;
    config.fds_top_roots = cell.top_roots;
    const TimedRun serial = RunOnce(config, 1);
    const bool identical = WorkerInvariant(config, serial.result);
    std::printf("check %-13s: injected=%llu committed=%llu %s\n",
                serial.scheduler.c_str(),
                static_cast<unsigned long long>(serial.result.injected),
                static_cast<unsigned long long>(serial.result.committed),
                identical ? "identical" : "MISMATCH");
    SSHARD_CHECK(identical &&
                 "worker_threads changed a SimResult — determinism "
                 "bug");
  }

  // WAL cells: with durability on (and a checkpoint cadence) but no fault
  // plan, the run must stay worker-invariant — the per-partition persist
  // and serial durable callbacks included — and its protocol outcome must
  // not move a bit relative to the WAL-off run of the same config (the WAL
  // is write-only until a crash).
  for (const char* scheduler : {"bds", "fds", "direct"}) {
    core::SimConfig config = small_config(scheduler);
    const TimedRun off = RunOnce(config, 1);
    config.wal = true;
    config.checkpoint_interval = 50;
    const TimedRun serial = RunOnce(config, 1);
    const bool identical = WorkerInvariant(config, serial.result);
    const bool transparent =
        core::FirstDifferingProtocolField(off.result, serial.result).empty();
    std::printf("check %-13s: wal_bytes=%llu checkpoints=%llu %s, %s\n",
                scheduler,
                static_cast<unsigned long long>(serial.result.wal_bytes),
                static_cast<unsigned long long>(serial.result.checkpoint_count),
                identical ? "identical" : "MISMATCH",
                transparent ? "wal-transparent" : "WAL PERTURBED PROTOCOL");
    SSHARD_CHECK(identical &&
                 "worker_threads changed a WAL-enabled SimResult — "
                 "determinism bug");
    SSHARD_CHECK(transparent &&
                 "enabling the WAL changed a protocol outcome — durability "
                 "must be write-only without faults");
    SSHARD_CHECK(serial.result.wal_bytes > 0 &&
                 serial.result.checkpoint_count > 0 &&
                 "WAL cell persisted nothing — the check is vacuous");
  }
  std::printf("determinism check passed (6 scheduler configurations plus 3 "
              "WAL cells, workers 1 vs 4)\n");
  return 0;
}

/// Crash/recovery (churn) record: BDS/uniform and FDS/line at s = 64 with
/// the WAL and a checkpoint cadence on, a two-event fault plan (crash a
/// shard mid-epoch, then another later) against the identical fault-free
/// run. The engine itself SSHARD_CHECKs the restored shard image
/// bit-identical to the pre-crash snapshot and re-verifies the recovered
/// chain; this harness asserts the observable contract on top:
///   - both runs drain with the accounting identity intact;
///   - the churn run commits exactly the fault-free counts (stall-the-world
///     freezes the protocol clock, so faults shift wall rounds only);
///   - rounds_executed(churn) == rounds_executed(fault-free) +
///     recovery_rounds, and the replay actually moved bytes;
///   - the churn run is worker-invariant.
int RunFaults(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const auto shards =
      static_cast<ShardId>(flags.GetUint("shards", 64));
  // FDS's hierarchical commit latency at s = 64 on the line is ~264
  // rounds — crashes scheduled earlier find an empty replay window (the
  // crashed shard has committed nothing since the last checkpoint), which
  // the vacuity check below rejects. Crash rounds sit past the latency
  // knee for both schedulers.
  const auto rounds =
      static_cast<Round>(flags.GetUint("rounds", smoke ? 400 : 600));
  const double rho = flags.GetDouble("rho", 0.2);
  const auto checkpoint_interval =
      static_cast<Round>(flags.GetUint("checkpoint-interval", 100));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  // `--faults` selects the mode, so the schedule itself rides on `--plan`.
  const std::string faults =
      flags.GetString("plan", smoke ? "5@350+12,23@390+18"
                                    : "5@350+12,23@520+18");
  const std::string json_path =
      flags.GetString("json", "BENCH_recovery.json");
  if (!flags.FinishReads()) return 2;
  // The churn side of every cell; the loop sets its scheduler and
  // topology, and the fault-free side drops the plan.
  core::SimConfig churn =
      DrainedConfig(net::TopologyKind::kUniform, shards, seed);
  churn.rho = rho;
  churn.burstiness = 300;
  churn.rounds = rounds;
  churn.wal = true;
  churn.checkpoint_interval = checkpoint_interval;
  churn.faults = faults;
  if (!Usable(churn)) return 2;
  Record record;
  if (!record.Open(json_path)) return 2;

  std::printf(
      "parallel_rounds faults: crash/recovery churn (faults=%s, ckpt=%llu) "
      "vs fault-free, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      faults.c_str(), static_cast<unsigned long long>(checkpoint_interval),
      shards, rho, static_cast<unsigned long long>(rounds));
  std::printf("%6s %8s | %10s %10s %8s | %9s %9s %10s %9s\n", "sched",
              "mode", "committed", "rounds", "drained", "wal_kb",
              "ckpts", "replay_b", "rec_rnds");

  std::vector<Fields> rows;
  bool all_ok = true;
  const std::pair<net::TopologyKind, const char*> cells[] = {
      {net::TopologyKind::kUniform, "bds"}, {net::TopologyKind::kLine, "fds"}};
  for (const auto& [topology, scheduler] : cells) {
    churn.topology = topology;
    churn.hierarchy = bench::HierarchyFor(topology);
    churn.scheduler = scheduler;
    core::SimConfig clean_config = churn;
    clean_config.faults.clear();

    const TimedRun clean = RunOnce(clean_config, 1);
    const TimedRun faulted = RunOnce(churn, 1);

    for (const auto& [mode, run] :
         {std::pair<const char*, const TimedRun&>{"clean", clean},
          std::pair<const char*, const TimedRun&>{"churn", faulted}}) {
      const core::SimResult& r = run.result;
      std::printf("%6s %8s | %10llu %10llu %8s | %9.1f %9llu %10llu %9llu\n",
                  scheduler, mode,
                  static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.rounds_executed),
                  r.drained ? "yes" : "NO",
                  static_cast<double>(r.wal_bytes) / 1024.0,
                  static_cast<unsigned long long>(r.checkpoint_count),
                  static_cast<unsigned long long>(r.replay_bytes),
                  static_cast<unsigned long long>(r.recovery_rounds));
      all_ok = all_ok && r.drained && r.unresolved == 0 &&
               r.injected == r.committed + r.aborted;
      rows.push_back({{"scheduler", scheduler},
                      {"mode", mode}, {"injected", r.injected},
                      {"committed", r.committed}, {"aborted", r.aborted},
                      {"rounds_executed", r.rounds_executed},
                      {"recovery_rounds", r.recovery_rounds},
                      {"wal_bytes", r.wal_bytes},
                      {"checkpoint_count", r.checkpoint_count},
                      {"replay_bytes", r.replay_bytes},
                      {"avg_latency", r.avg_latency},
                      {"p99_latency", r.p99_latency}, {"drained", r.drained}});
    }

    const core::SimResult& c = clean.result;
    const core::SimResult& f = faulted.result;
    SSHARD_CHECK(f.injected == c.injected && f.committed == c.committed &&
                 f.aborted == c.aborted &&
                 "churn changed a protocol count — recovery lost or "
                 "duplicated commits");
    SSHARD_CHECK(f.recovery_rounds > 0 && f.replay_bytes > 0 &&
                 "the fault plan never fired — the churn cell is vacuous");
    SSHARD_CHECK(f.rounds_executed == c.rounds_executed + f.recovery_rounds &&
                 "wall-round accounting broke: churn rounds must be the "
                 "fault-free rounds plus the recovery stalls");
    // Crash, replay and catch-up are driven from the serial section of the
    // round loop, so the pool must not perturb them.
    SSHARD_CHECK(WorkerInvariant(churn, f) &&
                 "worker_threads changed a churn SimResult — "
                 "determinism bug");
  }

  record.Write({{"bench", "parallel_rounds_faults"},
                {"shards", shards}, {"rho", rho}, {"rounds", rounds},
                {"checkpoint_interval", checkpoint_interval},
                {"faults", faults}},
               rows);
  SSHARD_CHECK(all_ok &&
               "a faults run broke the accounting identity or failed to "
               "drain");
  std::printf(
      "\nboth schedulers recovered: churn commits exactly the fault-free "
      "counts, wall rounds = fault-free + recovery stalls, bit-identical "
      "across workers 1/4; table written to %s\n"
      "Reading: the engine froze the protocol clock through each outage "
      "(stall-the-world), replayed the crashed shard from checkpoint + WAL "
      "and checked the restored image bit-identical to the pre-crash "
      "snapshot before rejoining — so churn costs wall rounds, never "
      "commits.\n",
      json_path.c_str());
  return 0;
}

/// Drained diameter_span head-to-head: fds over the classic single-top
/// hierarchy vs the multi-root one on the same seed/workload, small enough
/// that both drain fully. With abort_probability = 0 everything injected
/// commits, so CompareRoots' equal committed counts prove the multi-root
/// redirect loses and duplicates nothing; its imbalance bar is the one the
/// s = 1024 grid pair enforces, checked here at ctest-smoke cost.
int RunLeaderShare(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const auto shards =
      static_cast<ShardId>(flags.GetUint("shards", smoke ? 32 : 64));
  const auto rounds =
      static_cast<Round>(flags.GetUint("rounds", smoke ? 40 : 120));
  const double rho = flags.GetDouble("rho", 0.10);
  const auto roots =
      static_cast<std::uint32_t>(flags.GetUint("roots", 4));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  if (!flags.FinishReads()) return 2;

  core::SimConfig base = DrainedConfig(net::TopologyKind::kLine, shards, seed);
  base.scheduler = "fds";
  base.k = 4;
  base.rho = rho;
  base.burst_round = kNoRound;  // steady injection; the drain must finish
  base.strategy = "diameter_span";
  base.abort_probability = 0;  // drained + no aborts => committed == injected
  base.rounds = rounds;
  base.fds_top_roots = roots;  // CompareRoots runs 1 and then `roots`
  if (!Usable(base)) return 2;

  std::printf(
      "parallel_rounds leadershare: fds (single top root) vs fds_multiroot "
      "(%u roots) on diameter_span, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      roots, shards, rho, static_cast<unsigned long long>(rounds));
  std::printf("%14s %6s | %9s %10s %8s | %6s %10s %10s\n", "scheduler",
              "roots", "injected", "committed", "drained", "ldrs",
              "busiest%", "imbalance");

  const auto [one_root, multiroot] = CompareRoots(
      base, roots, [](const core::SimConfig& config) {
        TimedRun run = RunOnce(config, 1);
        const core::SimResult& r = run.result;
        std::uint64_t busiest = 0;
        for (const std::uint64_t in : run.root_leader_in) {
          busiest = std::max(busiest, in);
        }
        std::printf("%14s %6u | %9llu %10llu %8s | %6zu %9.2f%% %9.2fx\n",
                    run.scheduler.c_str(), config.fds_top_roots,
                    static_cast<unsigned long long>(r.injected),
                    static_cast<unsigned long long>(r.committed),
                    r.drained ? "yes" : "NO", run.root_leader_in.size(),
                    r.messages > 0 ? 100.0 * static_cast<double>(busiest) /
                                         static_cast<double>(r.messages)
                                   : 0.0,
                    RootLeaderImbalance(run));
        SSHARD_CHECK(r.drained && r.unresolved == 0 &&
                     r.injected == r.committed && r.aborted == 0 &&
                     "a leadershare run failed to drain everything it "
                     "injected");
        // The leader-sharding fix must not loosen the determinism contract.
        SSHARD_CHECK(WorkerInvariant(config, r) &&
                     "worker_threads changed a SimResult — "
                     "determinism bug");
        return run;
      });
  std::printf(
      "\nboth modes drained and committed %llu identically; multi-root "
      "busiest root leader at %.2fx the mean (bar: < 3x); bit-identical "
      "across workers 1/4\n",
      static_cast<unsigned long long>(one_root.result.committed),
      RootLeaderImbalance(multiroot));
  return 0;
}

int RunSingle(const Flags& flags) {
  core::SimConfig config;
  config.scheduler = flags.GetString("scheduler", "fds");
  config.shards = static_cast<ShardId>(flags.GetUint("shards", 256));
  config.accounts = config.shards;
  config.k = static_cast<std::uint32_t>(flags.GetUint("k", 8));
  const std::string default_topology =
      config.scheduler == "bds" ? "uniform" : "line";
  const std::string topology_name =
      flags.GetString("topology", default_topology);
  const auto topology = net::TryParseTopology(topology_name);
  if (!topology) {
    std::fprintf(stderr, "unknown --topology=%s\n", topology_name.c_str());
    return 2;
  }
  config.topology = *topology;
  config.hierarchy = bench::HierarchyFor(config.topology);
  config.rho = flags.GetDouble("rho", 0.3);
  config.burstiness = flags.GetDouble("b", 3000);
  config.rounds = static_cast<Round>(flags.GetUint("rounds", 1500));
  config.seed = flags.GetUint("seed", 42);
  const auto max_workers = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flags.GetUint("workers", 8)));
  if (!flags.FinishReads() || !Usable(config)) return 2;

  std::printf("parallel_rounds: %s\n", config.Describe().c_str());
  std::printf("%8s %12s %10s %10s %12s\n", "workers", "seconds", "speedup",
              "committed", "identical");

  const TimedRun serial = RunOnce(config, 1);
  std::printf("%8u %12.3f %10s %10llu %12s\n", 1u, serial.seconds, "1.00x",
              static_cast<unsigned long long>(serial.result.committed),
              "baseline");

  bool all_identical = true;
  double best_speedup = 1.0;
  for (std::uint32_t workers = 2; workers <= max_workers; workers *= 2) {
    const TimedRun timed =
        RunOnce(config, workers, Fanout::kGated);
    const bool identical = Identical(serial.result, timed.result);
    all_identical = all_identical && identical;
    const double speedup = serial.seconds / timed.seconds;
    if (speedup > best_speedup) best_speedup = speedup;
    std::printf("%8u %12.3f %9.2fx %10llu %12s\n", workers, timed.seconds,
                speedup,
                static_cast<unsigned long long>(timed.result.committed),
                identical ? "yes" : "NO");
  }

  PrintRingMemory(serial);
  std::printf("busiest shard handles %.2f%% of inbound / %.2f%% of outbound "
              "messages\n",
              100.0 * serial.leader_in_share, 100.0 * serial.leader_out_share);

  SSHARD_CHECK(all_identical &&
               "worker_threads changed the SimResult — determinism bug");
  std::printf("\nbest speedup %.2fx at s=%u (identical results across all "
              "worker counts)\n",
              best_speedup, config.shards);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (flags.GetBool("grid", false)) return RunGrid(flags);
  if (flags.GetBool("phases", false)) return RunPhases(flags);
  if (flags.GetBool("backpressure", false)) return RunBackpressure(flags);
  if (flags.GetBool("leadershare", false)) return RunLeaderShare(flags);
  if (flags.GetBool("faults", false)) return RunFaults(flags);
  if (flags.GetBool("traffic", false)) return RunTraffic(flags);
  if (flags.GetBool("check", false)) return RunCheck(flags);
  return RunSingle(flags);
}
