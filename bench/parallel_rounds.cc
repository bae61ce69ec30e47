// Shard-parallel round-loop bench: wall-clock speedup of worker_threads = N
// over the serial path at large shard counts, with a bit-identical-results
// assertion (the determinism contract of core/scheduler.h), plus the lazy
// network-ring footprint (idle and steady-state) and the per-shard traffic
// split that quantifies BDS's single-leader Amdahl bottleneck.
//
// Single-config mode:
//   build/bench/parallel_rounds [--scheduler=bds|fds|direct] [--shards=256]
//       [--topology=uniform|line|ring] [--rho=0.3] [--b=3000]
//       [--rounds=1500] [--workers=8] [--k=8] [--seed=42]
//
// Determinism check mode (a `perf` ctest entry): workers 1 vs 4, pipelined
// and unpipelined epilogue, every scheduler — including bds with
// color_leaders = 4 ("bds_sharded") and fds with top_roots = 3
// ("fds_multiroot") — on small configs; asserts every SimResult
// bit-identical and exits 0:
//   build/bench/parallel_rounds --check
//
// Leader-share mode (the single-leader-degeneration before/after, drained):
// fds with one top root vs four ("fds_multiroot") on diameter_span;
// asserts identical committed
// counts, the busiest top-root leader below 3x the mean root-leader
// share, and bit-identity across workers/pipeline:
//   build/bench/parallel_rounds --leadershare [--smoke] [--shards=64]
//       [--rounds=120] [--rho=0.10] [--roots=4]
//
// Crash/recovery mode (the durability churn record): BDS and FDS at s=64
// with the WAL + checkpoints on and a two-event fault plan vs the
// identical fault-free run; asserts drain + accounting identity, churn
// commits == fault-free commits, wall rounds == fault-free + recovery
// stalls, replay moved bytes, and workers/pipeline bit-identity:
//   build/bench/parallel_rounds --faults [--smoke] [--shards=64]
//       [--rounds=600] [--rho=0.2] [--checkpoint-interval=100]
//       [--plan=5@350+12,23@520+18] [--json=BENCH_recovery.json]
//
// Phase-timing mode (the pipelined-epilogue before/after record): times
// generate / inject / BeginRound / StepShard / flush / finish / sample
// separately and reports each config's serial share, with the pipelined
// epilogue off ("before": the one-partition EndRound) and on ("after":
// destination-partitioned flush overlapped with next-round generation).
// Runs go through the engine's per-round gate, and each row reports how
// many rounds it fanned out (pooled_rounds); each cell keeps the fastest
// of 5 runs (1 for the smoke):
//   build/bench/parallel_rounds --phases [--smoke] [--rounds=300]
//       [--rho=0.15] [--b=3000] [--radius=8] [--json=BENCH_pipeline.json]
//
// Large-s grid mode (the ROADMAP s = 1024 sweep). Besides the standard
// cells it appends the diameter_span before/after pair at s = 1024 — "fds"
// with a single top root (~99% of traffic on one leader) vs 8 roots
// (reported as "fds_multiroot"; asserts the busiest root leader < 3x the
// mean root-leader share and identical committed counts) — and every JSON
// row carries max_single_leader_queue and the root-leader imbalance:
//   build/bench/parallel_rounds --grid [--rounds=400] [--rho=0.15]
//       [--b=3000] [--workers=8] [--radius=8] [--json=BENCH_scaling.json]
//
// Backpressure head-to-head (the hot-destination load-shedding record):
// fds vs the backpressure admission-control wrapper on
// --strategy=hot_destination across Zipf exponents, sustained overload
// (no one-shot burst — admission control cannot see a burst that lands
// before any traffic exists). Asserts the accounting identity, that every
// run drains, backpressure bit-identity across workers 1/4 x pipeline
// on/off, and that the leader-queue peak is strictly below fds's at every
// theta >= 1.0:
//   build/bench/parallel_rounds --backpressure [--smoke] [--rounds=800]
//       [--rho=0.35] [--shards=64] [--bp-high=48] [--bp-low=12]
//       [--json=BENCH_backpressure.json]
//
// Open-loop traffic replay (the production-shaped workload record): the
// tracked tests/traces/ fixtures — {diurnal, flash, migrating} x Zipf
// theta {0.8, 1.2}, generated by tools/gen_trace.py — replayed through fds
// vs the backpressure wrapper. Asserts every replay injects its whole
// trace, drains with the accounting identity, commits exactly fds's
// counts, cuts the migrating-skew leader-queue peak, and stays
// bit-identical across workers 1/4 x pipeline on/off:
//   build/bench/parallel_rounds --traffic [--smoke]
//       [--trace-dir=tests/traces] [--bp-high=48] [--bp-low=12]
//       [--json=BENCH_traffic.json]
//
// The grid runs s in {256, 512, 1024} on line (fds), ring (fds) and
// uniform (bds) topologies with burst b = 3000 — the non-uniform cells use
// the radius-bounded local workload (see the note at the config) — checks
// worker_threads = 1 vs N bit-identical at every size, and writes a per-s
// memory/speedup/leader-share table to BENCH_scaling.json. Two readings to
// expect:
//   * memory — ring_buckets_at_start is always 0 (the lazy ring allocates
//     nothing at construction; the former dense table pre-allocated
//     dense_bucket_equivalent = (Diameter + 2) * s vectors, ~1M / ~25 MB
//     on the 1024-shard line);
//   * Amdahl — BDS's per-epoch coloring runs at a single leader (a
//     property of Algorithm 1), so its speedup plateaus while FDS scales;
//     leader_in_share is the busiest shard's fraction of all delivered
//     messages (1/s would be perfectly balanced).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
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
};

/// Which rounds of a multi-worker run fan out. kGated times the engine as
/// shipped (its per-round gate picks); kEveryRound fans out every round so
/// determinism checks compare the pooled paths even on grids whose rounds
/// never reach the gate.
enum class Fanout { kGated, kEveryRound };

TimedRun RunOnce(core::SimConfig config, std::uint32_t workers,
                 bool pipeline = true, Fanout fanout = Fanout::kEveryRound) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
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
  return timed;
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

/// Fraction of the run the driving thread spent outside the two phases
/// that scale with workers (the StepShard fan-out and the partitioned
/// flush window) — the Amdahl serial share of one round.
double SerialShare(const core::PhaseTimes& phases) {
  if (phases.total <= 0) return 0;
  const double share =
      (phases.total - phases.step - phases.flush) / phases.total;
  return std::max(0.0, share);
}

/// Protocol-outcome fields equal, doubles bit-for-bit. This is the subset
/// a WAL-enabled fault-free run must share with a WAL-off run: the WAL is
/// write-only until a crash, so only the durability counters may differ.
bool IdenticalProtocol(const core::SimResult& a, const core::SimResult& b) {
  return a.injected == b.injected && a.committed == b.committed &&
         a.aborted == b.aborted && a.unresolved == b.unresolved &&
         a.max_pending == b.max_pending && a.spill_peak == b.spill_peak &&
         a.messages == b.messages &&
         a.payload_units == b.payload_units &&
         a.rounds_executed == b.rounds_executed && a.drained == b.drained &&
         a.offered_txns == b.offered_txns &&
         a.injected_txns == b.injected_txns &&
         a.inject_lag_peak == b.inject_lag_peak &&
         a.avg_pending_per_shard == b.avg_pending_per_shard &&
         a.avg_leader_queue == b.avg_leader_queue &&
         a.max_leader_queue == b.max_leader_queue &&
         a.max_single_leader_queue == b.max_single_leader_queue &&
         a.avg_latency == b.avg_latency && a.max_latency == b.max_latency &&
         a.p50_latency == b.p50_latency && a.p99_latency == b.p99_latency;
}

/// Every SimResult field equal — the durability counters included: the WAL
/// persists, checkpoints cut and the fault plan replays identically
/// whatever the worker count or epilogue mode.
bool Identical(const core::SimResult& a, const core::SimResult& b) {
  return IdenticalProtocol(a, b) && a.wal_bytes == b.wal_bytes &&
         a.checkpoint_count == b.checkpoint_count &&
         a.replay_bytes == b.replay_bytes &&
         a.recovery_rounds == b.recovery_rounds;
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

struct GridRow {
  ShardId shards = 0;
  std::string topology;
  std::string scheduler;
  std::string strategy;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  double speedup = 0;
  std::uint32_t workers = 0;
  bool identical = false;
  TimedRun parallel;  ///< memory + leader share from the parallel run
};

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
  // Open the output before burning minutes of grid wall clock on a path
  // that turns out to be unwritable.
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  std::printf("parallel_rounds grid: s in {256,512,1024}, b=%.0f, rho=%.2f, "
              "%llu rounds, workers 1 vs %u\n\n",
              burst, rho, static_cast<unsigned long long>(rounds), workers);
  std::printf("%6s %8s %13s | %9s %9s %8s | %10s %12s | %9s %9s %10s\n", "s",
              "topology", "sched", "serial_s", "par_s", "speedup", "buckets@0",
              "buckets@end", "ldr_in%", "ldr_out%", "identical");

  std::vector<GridRow> rows;
  bool all_identical = true;
  auto run_cell = [&](const core::SimConfig& config) -> const GridRow& {
    const TimedRun serial = RunOnce(config, 1);
    const TimedRun parallel =
        RunOnce(config, workers, /*pipeline=*/true, Fanout::kGated);
    const bool identical = Identical(serial.result, parallel.result);
    all_identical = all_identical && identical;

    GridRow row;
    row.shards = config.shards;
    row.topology = net::TopologyName(config.topology);
    row.scheduler = parallel.scheduler;
    row.strategy = config.strategy;
    row.serial_seconds = serial.seconds;
    row.parallel_seconds = parallel.seconds;
    row.speedup =
        parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0;
    row.workers = workers;
    row.identical = identical;
    row.parallel = parallel;
    rows.push_back(row);

    std::printf(
        "%6u %8s %13s | %9.3f %9.3f %7.2fx | %10llu %12llu | %8.2f%% "
        "%8.2f%% %10s\n",
        row.shards, row.topology.c_str(), row.scheduler.c_str(),
        serial.seconds, parallel.seconds, row.speedup,
        static_cast<unsigned long long>(
            parallel.memory_at_start.allocated_buckets),
        static_cast<unsigned long long>(
            parallel.memory_at_end.allocated_buckets),
        100.0 * parallel.leader_in_share, 100.0 * parallel.leader_out_share,
        identical ? "yes" : "NO");
    return rows.back();
  };

  for (const bench::LargeGridCell& cell : bench::LargeScaleGrid()) {
    core::SimConfig config =
        bench::LargeGridConfig(cell, rho, burst, rounds, radius);
    config.seed = seed;
    run_cell(config);
  }

  // Before/after record for the single-leader degeneration fix:
  // diameter_span at s = 1024 homes every transaction in a top-layer root
  // cluster. With the classic single-top hierarchy ("fds", the "before"
  // row) the lone root leader sees ~99% of all traffic; the multi-root
  // hierarchy (8 roots, the "after" row) hashes the same workload
  // across the root leaders, and the busiest of them must stay below 3x
  // the mean root-leader share. The fix must not change what commits: at
  // this scale the top-layer epochs outlast the bench window, so both
  // rows must report identical committed counts.
  std::printf("\ndiameter_span before/after (s=1024, line):\n");
  std::uint64_t diameter_committed[2] = {0, 0};
  double multiroot_imbalance = 0;
  double before_share = 0, after_share = 0;
  const std::uint32_t diameter_roots[] = {1, 8};
  for (std::size_t i = 0; i < 2; ++i) {
    core::SimConfig config = bench::LargeGridConfig(
        {net::TopologyKind::kLine, "fds", 1024}, rho, burst, rounds, radius);
    config.seed = seed;
    config.strategy = "diameter_span";
    config.fds_top_roots = diameter_roots[i];
    const GridRow& row = run_cell(config);
    diameter_committed[i] = row.parallel.result.committed;
    if (i == 0) {
      before_share = row.parallel.leader_in_share;
    } else {
      after_share = row.parallel.leader_in_share;
      multiroot_imbalance = RootLeaderImbalance(row.parallel);
    }
  }
  std::printf(
      "busiest-shard inbound share %.2f%% -> %.2f%%; busiest root leader "
      "at %.2fx the mean root-leader share (bar: < 3x)\n",
      100.0 * before_share, 100.0 * after_share, multiroot_imbalance);

  // Per-s memory/speedup table, machine-readable (BENCH_scaling.json).
  std::fprintf(json,
               "{\n  \"bench\": \"parallel_rounds_grid\",\n"
               "  \"burst\": %.0f,\n  \"rho\": %.4f,\n  \"rounds\": %llu,\n"
               "  \"workers\": %u,\n  \"rows\": [\n",
               burst, rho, static_cast<unsigned long long>(rounds), workers);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GridRow& row = rows[i];
    const net::RingMemory& memory = row.parallel.memory_at_end;
    std::fprintf(
        json,
        "    {\"s\": %u, \"topology\": \"%s\", \"scheduler\": \"%s\",\n"
        "     \"strategy\": \"%s\",\n"
        "     \"serial_seconds\": %.6f, \"parallel_seconds\": %.6f,\n"
        "     \"speedup\": %.4f, \"identical\": %s,\n"
        "     \"ring_buckets_at_start\": %llu,\n"
        "     \"ring_live_destinations\": %llu, \"ring_buckets\": %llu,\n"
        "     \"ring_capacity_bytes\": %llu,\n"
        "     \"dense_bucket_equivalent\": %llu,\n"
        "     \"leader_in_share\": %.6f, \"leader_out_share\": %.6f,\n"
        "     \"max_single_leader_queue\": %.6f,\n"
        "     \"root_leaders\": %zu, \"root_leader_imbalance\": %.6f,\n"
        "     \"committed\": %llu, \"messages\": %llu}%s\n",
        row.shards, row.topology.c_str(), row.scheduler.c_str(),
        row.strategy.c_str(),
        row.serial_seconds, row.parallel_seconds, row.speedup,
        row.identical ? "true" : "false",
        static_cast<unsigned long long>(
            row.parallel.memory_at_start.allocated_buckets),
        static_cast<unsigned long long>(memory.live_destinations),
        static_cast<unsigned long long>(memory.allocated_buckets),
        static_cast<unsigned long long>(memory.bucket_capacity_bytes),
        static_cast<unsigned long long>(memory.dense_bucket_equivalent),
        row.parallel.leader_in_share, row.parallel.leader_out_share,
        row.parallel.result.max_single_leader_queue,
        row.parallel.root_leader_in.size(),
        RootLeaderImbalance(row.parallel),
        static_cast<unsigned long long>(row.parallel.result.committed),
        static_cast<unsigned long long>(row.parallel.result.messages),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_identical &&
               "worker_threads changed a SimResult — determinism bug");
  SSHARD_CHECK(diameter_committed[0] == diameter_committed[1] &&
               "multi-root hierarchy changed the diameter_span committed "
               "count — the fix must redistribute load, not outcomes");
  SSHARD_CHECK(multiroot_imbalance < 3.0 &&
               "busiest top-root leader above 3x the mean root-leader "
               "share — the multi-root spread regressed");
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

/// One row of the --phases table/JSON: one (cell, workers, pipeline) run.
struct PhasesRow {
  ShardId shards = 0;
  std::string topology;
  std::string scheduler;
  std::uint32_t workers = 0;
  bool pipeline = false;
  double seconds = 0;
  double speedup = 0;  ///< vs the cell's workers = 1 baseline
  double serial_share = 0;
  double max_single_leader_queue = 0;  ///< SimResult peak per-leader queue
  bool identical = false;
  Round pooled_rounds = 0;
  Round rounds_executed = 0;
  core::PhaseTimes phases;
  net::LaneMemory lanes;
  common::ArenaMemoryStats arena;
};

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
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  const std::vector<ShardId> sizes =
      smoke ? std::vector<ShardId>{64} : std::vector<ShardId>{256, 1024};
  const std::vector<std::uint32_t> worker_grid =
      smoke ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::pair<net::TopologyKind, const char*> cells[] = {
      {net::TopologyKind::kUniform, "bds"}, {net::TopologyKind::kLine, "fds"}};

  std::printf(
      "parallel_rounds phases: per-round wall-clock split, pipelined "
      "epilogue off (\"before\": serial EndRound) vs on (\"after\": "
      "destination-partitioned flush + overlapped generation); best of "
      "%u runs per cell\n\n",
      repeat);
  std::printf(
      "%6s %8s %5s %7s %8s | %8s %8s | %8s %8s %8s %8s | %8s | %8s\n", "s",
      "topology", "sched", "workers", "pipeline", "seconds", "speedup",
      "step_s", "flush_s", "finish_s", "serial%", "pooled", "identical");

  // One untimed pooled run first. Once a process has started a thread,
  // glibc keeps its locked multi-thread malloc paths for good, which made
  // a serial s = 256 BDS run about 8% slower. Without the warm-up only the
  // very first workers = 1 baseline would run single-threaded, and its
  // cells' speedups would carry that tax.
  {
    core::SimConfig warm = bench::LargeGridConfig(
        {cells[0].first, cells[0].second, sizes.front()}, rho, burst, rounds,
        radius);
    warm.seed = seed;
    RunOnce(warm, worker_grid.back(), /*pipeline=*/true, Fanout::kEveryRound);
  }

  // Every (cell, workers, pipeline) run, in sweep order. The repetitions
  // are whole sweeps, so a slow stretch of the host lands on every cell of
  // one sweep rather than on all repetitions of one cell; each run keeps
  // its fastest repetition, and every repetition must match its cell's
  // workers = 1 result.
  struct PhasesRun {
    core::SimConfig config;
    std::uint32_t workers = 1;
    bool pipeline = true;
    std::size_t baseline = 0;  ///< index of the cell's workers = 1 run
    TimedRun best;
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
        // workers = 1 has no pool, so the pipeline flag is moot: run it
        // once as the shared baseline.
        for (const bool pipeline : {false, true}) {
          if (workers == 1 && !pipeline) continue;
          runs.push_back({config, workers, pipeline, baseline, {}, true});
        }
      }
    }
  }
  for (std::uint32_t rep = 0; rep < repeat; ++rep) {
    for (PhasesRun& run : runs) {
      TimedRun timed =
          RunOnce(run.config, run.workers, run.pipeline, Fanout::kGated);
      const PhasesRun& base = runs[run.baseline];
      if (&base != &run || rep > 0) {
        run.identical =
            run.identical && Identical(base.best.result, timed.result);
      }
      if (rep == 0 || timed.seconds < run.best.seconds) {
        run.best = std::move(timed);
      }
    }
  }

  std::vector<PhasesRow> rows;
  bool all_identical = true;
  for (const PhasesRun& run : runs) {
    const TimedRun& timed = run.best;
    const double baseline_seconds = runs[run.baseline].best.seconds;
    all_identical = all_identical && run.identical;
    // The smoke's burst is sized to reach the gate: a multi-worker cell
    // that never fans out would check nothing about the pool.
    SSHARD_CHECK((!smoke || run.workers == 1 || timed.pooled_rounds > 0) &&
                 "phases smoke: a multi-worker cell ran no pooled round");

    PhasesRow row;
    row.shards = run.config.shards;
    row.topology = net::TopologyName(run.config.topology);
    row.scheduler = run.config.scheduler;
    row.workers = run.workers;
    row.pipeline = run.pipeline;
    row.seconds = timed.seconds;
    row.speedup = timed.seconds > 0 ? baseline_seconds / timed.seconds : 0.0;
    row.serial_share = SerialShare(timed.phases);
    row.max_single_leader_queue = timed.result.max_single_leader_queue;
    row.identical = run.identical;
    row.pooled_rounds = timed.pooled_rounds;
    row.rounds_executed = timed.result.rounds_executed;
    row.phases = timed.phases;
    row.lanes = timed.lane_memory_at_end;
    row.arena = timed.arena_at_end;
    rows.push_back(row);

    std::printf(
        "%6u %8s %5s %7u %8s | %8.3f %7.2fx | %8.3f %8.3f %8.3f "
        "%7.1f%% | %8llu | %8s\n",
        row.shards, row.topology.c_str(), row.scheduler.c_str(), row.workers,
        row.workers == 1 ? "n/a" : (row.pipeline ? "on" : "off"),
        timed.seconds, row.speedup, timed.phases.step, timed.phases.flush,
        timed.phases.finish, 100.0 * row.serial_share,
        static_cast<unsigned long long>(row.pooled_rounds),
        row.identical ? "yes" : "NO");
  }

  std::fprintf(json,
               "{\n  \"bench\": \"parallel_rounds_phases\",\n"
               "  \"burst\": %.0f,\n  \"rho\": %.4f,\n  \"rounds\": %llu,\n"
               "  \"repeat\": %u,\n  \"rows\": [\n",
               burst, rho, static_cast<unsigned long long>(rounds), repeat);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PhasesRow& row = rows[i];
    std::fprintf(
        json,
        "    {\"s\": %u, \"topology\": \"%s\", \"scheduler\": \"%s\",\n"
        "     \"workers\": %u, \"pipeline\": %s,\n"
        "     \"seconds\": %.6f, \"speedup\": %.4f, \"identical\": %s,\n"
        "     \"pooled_rounds\": %llu, \"rounds_executed\": %llu,\n"
        "     \"serial_share\": %.6f,\n"
        "     \"max_single_leader_queue\": %.6f,\n"
        "     \"phase_generate\": %.6f, \"phase_inject\": %.6f,\n"
        "     \"phase_begin\": %.6f, \"phase_step\": %.6f,\n"
        "     \"phase_flush\": %.6f, \"phase_finish\": %.6f,\n"
        "     \"phase_sample\": %.6f, \"phase_total\": %.6f,\n"
        "     \"outbox_capacity_bytes\": %llu,\n"
        "     \"outbox_high_water_items\": %llu,\n"
        "     \"arena_reserved_bytes\": %llu,\n"
        "     \"arena_high_water_bytes\": %llu,\n"
        "     \"arena_resets\": %llu}%s\n",
        row.shards, row.topology.c_str(), row.scheduler.c_str(), row.workers,
        row.pipeline ? "true" : "false", row.seconds, row.speedup,
        row.identical ? "true" : "false",
        static_cast<unsigned long long>(row.pooled_rounds),
        static_cast<unsigned long long>(row.rounds_executed),
        row.serial_share,
        row.max_single_leader_queue,
        row.phases.generate, row.phases.inject, row.phases.begin,
        row.phases.step, row.phases.flush, row.phases.finish,
        row.phases.sample, row.phases.total,
        static_cast<unsigned long long>(row.lanes.capacity_bytes),
        static_cast<unsigned long long>(row.lanes.high_water_items),
        static_cast<unsigned long long>(row.arena.reserved_bytes),
        static_cast<unsigned long long>(row.arena.high_water_bytes),
        static_cast<unsigned long long>(row.arena.resets),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_identical &&
               "pipeline/worker_threads changed a SimResult — determinism "
               "bug");
  std::printf(
      "\nall %zu runs bit-identical across worker counts and pipeline "
      "modes; table written to %s\n"
      "Reading: with the pipeline off, EndRound's flush is the serial "
      "finish_s column; with it on, that work moves into flush_s — a "
      "pool-partitioned window that also hides next-round generation — so "
      "the serial share (everything outside step_s + flush_s) drops.\n",
      rows.size(), json_path.c_str());
  return 0;
}

/// One side of the backpressure head-to-head: the SimResult plus the
/// admission-control introspection (zero for plain fds).
struct BackpressureRun {
  core::SimResult result;
  std::uint64_t deferred = 0;
  std::uint64_t readmitted = 0;
  std::uint64_t hot_transitions = 0;
};

BackpressureRun RunHotDestination(core::SimConfig config,
                                  std::uint32_t workers,
                                  bool pipeline = true) {
  config.worker_threads = workers;
  config.pipeline = pipeline;
  core::Simulation sim(config);
  sim.PoolEveryRound();  // the checks compare workers on every round
  BackpressureRun run;
  run.result = sim.Run();
  if (const auto* backpressure =
          dynamic_cast<const consensus::BackpressureScheduler*>(
              &sim.scheduler())) {
    run.deferred = backpressure->deferred_total();
    run.readmitted = backpressure->readmitted_total();
    run.hot_transitions = backpressure->hot_transitions();
  }
  return run;
}

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
  // Same contract as simulate_cli: watermark typos are input errors
  // (exit 2), never reach the scheduler constructor's aborting check.
  if (!core::ValidateBackpressureWatermarks(bp_low, bp_high)) return 2;
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  // Sustained overload on the line topology, no one-shot burst: the
  // leader queue must build from steady Zipf-skewed arrivals for
  // injection-side shedding to have anything to shed.
  core::SimConfig base;
  base.scheduler = "fds";
  base.topology = net::TopologyKind::kLine;
  base.hierarchy = bench::HierarchyFor(base.topology);
  base.shards = shards;
  base.accounts = shards;
  base.account_assignment = core::AccountAssignment::kRoundRobin;
  base.k = 8;
  base.rho = rho;
  base.burst_round = kNoRound;
  base.strategy = "hot_destination";
  base.rounds = rounds;
  base.drain_cap = 200000;
  base.seed = seed;
  base.backpressure_high = bp_high;
  base.backpressure_low = bp_low;

  const std::vector<double> thetas =
      smoke ? std::vector<double>{1.2}
            : std::vector<double>{0.0, 0.5, 1.0, 1.5};

  std::printf(
      "parallel_rounds backpressure: fds vs backpressure (high=%llu "
      "low=%llu) on hot_destination, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      static_cast<unsigned long long>(bp_high),
      static_cast<unsigned long long>(bp_low), shards, rho,
      static_cast<unsigned long long>(rounds));
  std::printf("%6s %13s | %10s %10s %10s | %9s %10s %9s | %9s %8s\n",
              "zipf", "scheduler", "ldrq_avg", "ldrq_peak", "spill_pk",
              "deferred", "committed", "avg_lat", "p99_lat", "drained");

  struct Row {
    double theta = 0;
    const char* scheduler = "";
    BackpressureRun run;
  };
  std::vector<Row> rows;
  bool all_ok = true;
  bool peaks_below = true;
  bool commits_match = true;
  for (const double theta : thetas) {
    core::SimConfig config = base;
    config.zipf_theta = theta;
    BackpressureRun fds_run, bp_run;
    for (const char* scheduler : {"fds", "backpressure"}) {
      config.scheduler = scheduler;
      const BackpressureRun run = RunHotDestination(config, 1);
      const core::SimResult& r = run.result;
      const bool identity =
          r.injected == r.committed + r.aborted + r.unresolved;
      all_ok = all_ok && identity && r.drained && r.unresolved == 0;
      std::printf(
          "%6.2f %13s | %10.2f %10.1f %10llu | %9llu %10llu %9.1f | %9.0f "
          "%8s\n",
          theta, scheduler, r.avg_leader_queue, r.max_leader_queue,
          static_cast<unsigned long long>(r.spill_peak),
          static_cast<unsigned long long>(run.deferred),
          static_cast<unsigned long long>(r.committed), r.avg_latency,
          r.p99_latency, r.drained ? "yes" : "NO");
      rows.push_back({theta, scheduler, run});
      if (std::string(scheduler) == "fds") {
        fds_run = run;
      } else {
        bp_run = run;
      }
    }
    // The printed claim "commits exactly what fds commits" is asserted,
    // not just recorded: both sides drain with zero aborts here, so any
    // admission drop/duplication shows up as a committed mismatch.
    commits_match =
        commits_match && bp_run.result.committed == fds_run.result.committed;
    // The acceptance bar: under real skew the shedding must strictly cut
    // the hot leader's queue peak (milder thetas are throughput
    // no-regression cells, though the gate still defers some admissions
    // when the overloaded baseline crosses the watermarks).
    if (theta >= 1.0) {
      peaks_below = peaks_below && bp_run.result.max_leader_queue <
                                       fds_run.result.max_leader_queue;
    }
  }

  // Determinism spot-check at the highest theta: workers 1 vs 4, pipeline
  // on and off, all bit-identical for the admission-control wrapper.
  core::SimConfig config = base;
  config.scheduler = "backpressure";
  config.zipf_theta = thetas.back();
  config.rounds = std::min<Round>(rounds, 300);
  const BackpressureRun serial = RunHotDestination(config, 1);
  const bool identical =
      Identical(serial.result, RunHotDestination(config, 4, true).result) &&
      Identical(serial.result, RunHotDestination(config, 4, false).result);

  std::fprintf(json,
               "{\n  \"bench\": \"parallel_rounds_backpressure\",\n"
               "  \"strategy\": \"hot_destination\",\n"
               "  \"topology\": \"line\",\n"
               "  \"shards\": %u,\n  \"rho\": %.4f,\n  \"rounds\": %llu,\n"
               "  \"bp_high\": %llu,\n  \"bp_low\": %llu,\n"
               "  \"workers_1_vs_4_pipeline_on_off_identical\": %s,\n"
               "  \"rows\": [\n",
               shards, rho, static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(bp_high),
               static_cast<unsigned long long>(bp_low),
               identical ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const core::SimResult& r = row.run.result;
    std::fprintf(
        json,
        "    {\"zipf_theta\": %.2f, \"scheduler\": \"%s\",\n"
        "     \"avg_leader_queue\": %.6f, \"max_leader_queue\": %.6f,\n"
        "     \"spill_peak\": %llu, \"deferred\": %llu,\n"
        "     \"readmitted\": %llu, \"hot_transitions\": %llu,\n"
        "     \"injected\": %llu, \"committed\": %llu, \"aborted\": %llu,\n"
        "     \"unresolved\": %llu, \"avg_latency\": %.6f,\n"
        "     \"p99_latency\": %.6f, \"max_pending\": %llu,\n"
        "     \"messages\": %llu, \"drained\": %s}%s\n",
        row.theta, row.scheduler, r.avg_leader_queue, r.max_leader_queue,
        static_cast<unsigned long long>(r.spill_peak),
        static_cast<unsigned long long>(row.run.deferred),
        static_cast<unsigned long long>(row.run.readmitted),
        static_cast<unsigned long long>(row.run.hot_transitions),
        static_cast<unsigned long long>(r.injected),
        static_cast<unsigned long long>(r.committed),
        static_cast<unsigned long long>(r.aborted),
        static_cast<unsigned long long>(r.unresolved), r.avg_latency,
        r.p99_latency, static_cast<unsigned long long>(r.max_pending),
        static_cast<unsigned long long>(r.messages),
        r.drained ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_ok &&
               "a run broke the accounting identity or failed to drain");
  SSHARD_CHECK(identical &&
               "backpressure changed a SimResult across workers/pipeline — "
               "determinism bug");
  SSHARD_CHECK(commits_match &&
               "backpressure committed a different count than fds — "
               "admissions were lost or duplicated");
  SSHARD_CHECK(peaks_below &&
               "backpressure did not cut the leader-queue peak at "
               "theta >= 1.0");
  std::printf(
      "\nall runs drained with the accounting identity intact; "
      "backpressure bit-identical workers 1/4 x pipeline on/off; "
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

int RunTraffic(const Flags& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const std::string trace_dir = flags.GetString("trace-dir", "tests/traces");
  const std::uint64_t bp_high = flags.GetUint("bp-high", 48);
  const std::uint64_t bp_low = flags.GetUint("bp-low", 12);
  const std::string json_path = flags.GetString("json", "BENCH_traffic.json");
  if (!flags.FinishReads()) return 2;
  if (!core::ValidateBackpressureWatermarks(bp_low, bp_high)) return 2;
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  // The tracked fixtures (tools/gen_trace.py, tests/traces/): three
  // production shapes x two Zipf skews, replayed open-loop through fds
  // (backpressure off) and the admission-control wrapper (on). The smoke
  // keeps the acceptance pair only — the migrating-skew handoff is the
  // shape admission control has to chase, so that cell carries the
  // peak-cutting assertion.
  struct Cell {
    const char* shape;
    const char* suffix;
    double theta;
  };
  const std::vector<Cell> cells =
      smoke ? std::vector<Cell>{{"migrating", "t12", 1.2}}
            : std::vector<Cell>{{"diurnal", "t08", 0.8},
                                {"diurnal", "t12", 1.2},
                                {"flash", "t08", 0.8},
                                {"flash", "t12", 1.2},
                                {"migrating", "t08", 0.8},
                                {"migrating", "t12", 1.2}};

  std::printf(
      "parallel_rounds traffic: open-loop trace replay, fds vs backpressure "
      "(high=%llu low=%llu), fixtures from %s\n\n",
      static_cast<unsigned long long>(bp_high),
      static_cast<unsigned long long>(bp_low), trace_dir.c_str());
  std::printf("%10s %5s %13s | %8s %8s | %10s %10s %9s | %10s %8s\n",
              "shape", "zipf", "scheduler", "offered", "injected", "ldrq_avg",
              "ldrq_peak", "spill_pk", "committed", "drained");

  struct Row {
    Cell cell;
    const char* scheduler = "";
    BackpressureRun run;
  };
  std::vector<Row> rows;
  std::string migrating_trace;
  Round migrating_rounds = 0;
  bool all_ok = true;
  bool commits_match = true;
  bool peaks_below = true;
  for (const Cell& cell : cells) {
    const std::string path = trace_dir + "/" + cell.shape + "_" +
                             cell.suffix + ".trace";
    traffic::Trace trace;
    std::string error;
    if (!traffic::LoadTraceFile(path, &trace, &error)) {
      std::fprintf(stderr, "invalid trace: %s (file \"%s\")\n", error.c_str(),
                   path.c_str());
      std::fclose(json);
      return 2;
    }
    core::SimConfig base;
    base.scheduler = "fds";
    base.topology = net::TopologyKind::kLine;
    base.hierarchy = bench::HierarchyFor(base.topology);
    base.shards = trace.shards;
    base.accounts = trace.accounts;
    base.account_assignment = core::AccountAssignment::kRoundRobin;
    base.strategy = "trace_replay";
    base.trace = path;
    base.rounds =
        trace.records.empty() ? 1 : trace.records.back().round + 1;
    base.drain_cap = 200000;
    base.seed = 42;
    base.backpressure_high = bp_high;
    base.backpressure_low = bp_low;

    BackpressureRun fds_run, bp_run;
    for (const char* scheduler : {"fds", "backpressure"}) {
      core::SimConfig config = base;
      config.scheduler = scheduler;
      const BackpressureRun run = RunHotDestination(config, 1);
      const core::SimResult& r = run.result;
      const bool identity =
          r.injected == r.committed + r.aborted + r.unresolved;
      // Open-loop invariant: the whole trace was offered and, once the
      // drain phase let the schedule finish, every offer was injected.
      const bool replayed_all =
          r.offered_txns == trace.records.size() &&
          r.injected_txns == r.offered_txns && r.injected == r.offered_txns;
      all_ok = all_ok && identity && replayed_all && r.drained &&
               r.unresolved == 0;
      std::printf(
          "%10s %5.2f %13s | %8llu %8llu | %10.2f %10.1f %9llu | %10llu "
          "%8s\n",
          cell.shape, cell.theta, scheduler,
          static_cast<unsigned long long>(r.offered_txns),
          static_cast<unsigned long long>(r.injected_txns),
          r.avg_leader_queue, r.max_leader_queue,
          static_cast<unsigned long long>(r.spill_peak),
          static_cast<unsigned long long>(r.committed),
          r.drained ? "yes" : "NO");
      rows.push_back({cell, scheduler, run});
      if (std::string(scheduler) == "fds") {
        fds_run = run;
      } else {
        bp_run = run;
      }
    }
    // Same acceptance shape as --backpressure: shedding defers, it never
    // drops — equal commits — and on the migrating handoff it must
    // strictly cut the hot leader's queue peak.
    commits_match =
        commits_match && bp_run.result.committed == fds_run.result.committed;
    if (std::string(cell.shape) == "migrating") {
      peaks_below = peaks_below && bp_run.result.max_leader_queue <
                                       fds_run.result.max_leader_queue;
      migrating_trace = path;
      migrating_rounds = base.rounds;
    }
  }

  // Determinism spot-check on the migrating replay: the open-loop injector
  // + trace schedule must be bit-identical across workers 1/4 x pipeline
  // on/off, exactly like the closed loop.
  core::SimConfig config;
  config.scheduler = "backpressure";
  config.topology = net::TopologyKind::kLine;
  config.hierarchy = bench::HierarchyFor(config.topology);
  config.shards = 32;
  config.accounts = 32;
  config.account_assignment = core::AccountAssignment::kRoundRobin;
  config.strategy = "trace_replay";
  config.trace = migrating_trace;
  config.rounds = migrating_rounds;
  config.drain_cap = 200000;
  config.seed = 42;
  config.backpressure_high = bp_high;
  config.backpressure_low = bp_low;
  const BackpressureRun serial = RunHotDestination(config, 1);
  const bool identical =
      Identical(serial.result, RunHotDestination(config, 4, true).result) &&
      Identical(serial.result, RunHotDestination(config, 4, false).result);

  std::fprintf(json,
               "{\n  \"bench\": \"parallel_rounds_traffic\",\n"
               "  \"strategy\": \"trace_replay\",\n"
               "  \"topology\": \"line\",\n"
               "  \"bp_high\": %llu,\n  \"bp_low\": %llu,\n"
               "  \"workers_1_vs_4_pipeline_on_off_identical\": %s,\n"
               "  \"rows\": [\n",
               static_cast<unsigned long long>(bp_high),
               static_cast<unsigned long long>(bp_low),
               identical ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const core::SimResult& r = row.run.result;
    std::fprintf(
        json,
        "    {\"shape\": \"%s\", \"zipf_theta\": %.2f, "
        "\"scheduler\": \"%s\",\n"
        "     \"offered\": %llu, \"injected\": %llu, "
        "\"inject_lag_peak\": %llu,\n"
        "     \"avg_leader_queue\": %.6f, \"max_leader_queue\": %.6f,\n"
        "     \"spill_peak\": %llu, \"deferred\": %llu,\n"
        "     \"committed\": %llu, \"aborted\": %llu,\n"
        "     \"avg_latency\": %.6f, \"p99_latency\": %.6f,\n"
        "     \"drained\": %s}%s\n",
        row.cell.shape, row.cell.theta, row.scheduler,
        static_cast<unsigned long long>(r.offered_txns),
        static_cast<unsigned long long>(r.injected_txns),
        static_cast<unsigned long long>(r.inject_lag_peak),
        r.avg_leader_queue, r.max_leader_queue,
        static_cast<unsigned long long>(r.spill_peak),
        static_cast<unsigned long long>(row.run.deferred),
        static_cast<unsigned long long>(r.committed),
        static_cast<unsigned long long>(r.aborted), r.avg_latency,
        r.p99_latency, r.drained ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_ok &&
               "a replay broke the accounting identity, failed to drain, or "
               "did not inject the whole trace");
  SSHARD_CHECK(commits_match &&
               "backpressure committed a different count than fds on the "
               "same trace — admissions were lost or duplicated");
  SSHARD_CHECK(peaks_below &&
               "backpressure did not cut the leader-queue peak on the "
               "migrating-skew trace");
  SSHARD_CHECK(identical &&
               "open-loop trace replay changed a SimResult across "
               "workers/pipeline — determinism bug");
  std::printf(
      "\nall replays drained, injected their whole trace, and kept the "
      "accounting identity; backpressure commits exactly fds's counts and "
      "cuts the migrating-skew leader-queue peak; open-loop replay "
      "bit-identical workers 1/4 x pipeline on/off; table written to %s\n"
      "Reading: the trace is the arrival schedule — offered == injected on "
      "every row because arrivals continue through the drain phase until "
      "the schedule is exhausted, so shedding shows up as admission "
      "latency and a lower queue peak, never as lost transactions.\n",
      json_path.c_str());
  return 0;
}

int RunCheck(const Flags& flags) {
  const auto rounds = static_cast<Round>(flags.GetUint("rounds", 300));
  const std::uint64_t seed = flags.GetUint("seed", 42);
  if (!flags.FinishReads()) return 2;

  // Small configs, every scheduler: workers 1 vs 4 with the pipelined
  // epilogue on and off must agree bit-for-bit. bds and fds also run with
  // non-trivial leader fan-outs (the sharded-leader and multi-root modes).
  const struct {
    const char* scheduler;
    std::uint32_t color_leaders;
    std::uint32_t top_roots;
  } cells[] = {{"bds", 1, 1},    {"bds", 4, 1},    {"fds", 1, 1},
               {"fds", 1, 3},    {"direct", 1, 1}, {"backpressure", 1, 1}};
  for (const auto& cell : cells) {
    core::SimConfig config;
    config.scheduler = cell.scheduler;
    config.bds_color_leaders = cell.color_leaders;
    config.fds_top_roots = cell.top_roots;
    config.shards = 32;
    config.accounts = 32;
    config.k = 8;
    config.rho = 0.2;
    config.burstiness = 300;
    config.rounds = rounds;
    config.seed = seed;
    config.topology = config.scheduler.rfind("bds", 0) == 0
                          ? net::TopologyKind::kUniform
                          : net::TopologyKind::kLine;
    config.hierarchy = bench::HierarchyFor(config.topology);

    const TimedRun serial = RunOnce(config, 1);
    const TimedRun pipelined = RunOnce(config, 4, /*pipeline=*/true);
    const TimedRun unpipelined = RunOnce(config, 4, /*pipeline=*/false);
    const bool identical = Identical(serial.result, pipelined.result) &&
                           Identical(serial.result, unpipelined.result);
    std::printf("check %-13s: injected=%llu committed=%llu %s\n",
                serial.scheduler.c_str(),
                static_cast<unsigned long long>(serial.result.injected),
                static_cast<unsigned long long>(serial.result.committed),
                identical ? "identical" : "MISMATCH");
    SSHARD_CHECK(identical &&
                 "pipeline/worker_threads changed a SimResult — determinism "
                 "bug");
  }

  // WAL cells: with durability on (and a checkpoint cadence) but no fault
  // plan, the run must stay bit-identical across workers/pipeline — the
  // per-partition persist and serial durable callbacks included — and its
  // protocol outcome must not move a bit relative to the WAL-off run of
  // the same config (the WAL is write-only until a crash).
  for (const char* scheduler : {"bds", "fds", "direct"}) {
    core::SimConfig config;
    config.scheduler = scheduler;
    config.shards = 32;
    config.accounts = 32;
    config.k = 8;
    config.rho = 0.2;
    config.burstiness = 300;
    config.rounds = rounds;
    config.seed = seed;
    config.topology = config.scheduler.rfind("bds", 0) == 0
                          ? net::TopologyKind::kUniform
                          : net::TopologyKind::kLine;
    config.hierarchy = bench::HierarchyFor(config.topology);

    const TimedRun off = RunOnce(config, 1);
    config.wal = true;
    config.checkpoint_interval = 50;
    const TimedRun serial = RunOnce(config, 1);
    const TimedRun pipelined = RunOnce(config, 4, /*pipeline=*/true);
    const TimedRun unpipelined = RunOnce(config, 4, /*pipeline=*/false);
    const bool identical = Identical(serial.result, pipelined.result) &&
                           Identical(serial.result, unpipelined.result);
    const bool transparent = IdenticalProtocol(off.result, serial.result);
    std::printf("check %-13s: wal_bytes=%llu checkpoints=%llu %s, %s\n",
                scheduler,
                static_cast<unsigned long long>(serial.result.wal_bytes),
                static_cast<unsigned long long>(serial.result.checkpoint_count),
                identical ? "identical" : "MISMATCH",
                transparent ? "wal-transparent" : "WAL PERTURBED PROTOCOL");
    SSHARD_CHECK(identical &&
                 "pipeline/worker_threads changed a WAL-enabled SimResult — "
                 "determinism bug");
    SSHARD_CHECK(transparent &&
                 "enabling the WAL changed a protocol outcome — durability "
                 "must be write-only without faults");
    SSHARD_CHECK(serial.result.wal_bytes > 0 &&
                 serial.result.checkpoint_count > 0 &&
                 "WAL cell persisted nothing — the check is vacuous");
  }
  std::printf("determinism check passed (6 scheduler configurations plus 3 "
              "WAL cells, workers 1 vs 4, pipeline on/off)\n");
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
///   - the churn run is bit-identical across workers 1/4 x pipeline on/off.
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
  if (!core::ValidateFaults(faults, /*wal_enabled=*/true, shards, rounds)) {
    return 2;
  }
  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 json_path.c_str());
    return 2;
  }

  std::printf(
      "parallel_rounds faults: crash/recovery churn (faults=%s, ckpt=%llu) "
      "vs fault-free, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      faults.c_str(), static_cast<unsigned long long>(checkpoint_interval),
      shards, rho, static_cast<unsigned long long>(rounds));
  std::printf("%6s %8s | %10s %10s %8s | %9s %9s %10s %9s\n", "sched",
              "mode", "committed", "rounds", "drained", "wal_kb",
              "ckpts", "replay_b", "rec_rnds");

  struct Row {
    const char* scheduler = "";
    const char* mode = "";
    core::SimResult result;
  };
  std::vector<Row> rows;
  bool all_ok = true;
  const std::pair<net::TopologyKind, const char*> cells[] = {
      {net::TopologyKind::kUniform, "bds"}, {net::TopologyKind::kLine, "fds"}};
  for (const auto& [topology, scheduler] : cells) {
    core::SimConfig base;
    base.scheduler = scheduler;
    base.topology = topology;
    base.hierarchy = bench::HierarchyFor(topology);
    base.shards = shards;
    base.accounts = shards;
    base.account_assignment = core::AccountAssignment::kRoundRobin;
    base.k = 8;
    base.rho = rho;
    base.burstiness = 300;
    base.rounds = rounds;
    base.drain_cap = 200000;
    base.seed = seed;
    base.wal = true;
    base.checkpoint_interval = checkpoint_interval;

    const TimedRun clean = RunOnce(base, 1);
    core::SimConfig churn = base;
    churn.faults = faults;
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
      rows.push_back({scheduler, mode, r});
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

    // The churn run itself must stay bit-identical across workers and
    // epilogue modes: crash, replay and catch-up are driven from the
    // serial section of the round loop, so the pool must not perturb them.
    const bool identical =
        Identical(faulted.result, RunOnce(churn, 4, true).result) &&
        Identical(faulted.result, RunOnce(churn, 4, false).result);
    SSHARD_CHECK(identical &&
                 "pipeline/worker_threads changed a churn SimResult — "
                 "determinism bug");
  }

  std::fprintf(json,
               "{\n  \"bench\": \"parallel_rounds_faults\",\n"
               "  \"shards\": %u,\n  \"rho\": %.4f,\n  \"rounds\": %llu,\n"
               "  \"checkpoint_interval\": %llu,\n  \"faults\": \"%s\",\n"
               "  \"rows\": [\n",
               shards, rho, static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(checkpoint_interval),
               faults.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const core::SimResult& r = row.result;
    std::fprintf(
        json,
        "    {\"scheduler\": \"%s\", \"mode\": \"%s\",\n"
        "     \"injected\": %llu, \"committed\": %llu, \"aborted\": %llu,\n"
        "     \"rounds_executed\": %llu, \"recovery_rounds\": %llu,\n"
        "     \"wal_bytes\": %llu, \"checkpoint_count\": %llu,\n"
        "     \"replay_bytes\": %llu, \"avg_latency\": %.6f,\n"
        "     \"p99_latency\": %.6f, \"drained\": %s}%s\n",
        row.scheduler, row.mode,
        static_cast<unsigned long long>(r.injected),
        static_cast<unsigned long long>(r.committed),
        static_cast<unsigned long long>(r.aborted),
        static_cast<unsigned long long>(r.rounds_executed),
        static_cast<unsigned long long>(r.recovery_rounds),
        static_cast<unsigned long long>(r.wal_bytes),
        static_cast<unsigned long long>(r.checkpoint_count),
        static_cast<unsigned long long>(r.replay_bytes), r.avg_latency,
        r.p99_latency, r.drained ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);

  SSHARD_CHECK(all_ok &&
               "a faults run broke the accounting identity or failed to "
               "drain");
  std::printf(
      "\nboth schedulers recovered: churn commits exactly the fault-free "
      "counts, wall rounds = fault-free + recovery stalls, bit-identical "
      "across workers 1/4 x pipeline on/off; table written to %s\n"
      "Reading: the engine froze the protocol clock through each outage "
      "(stall-the-world), replayed the crashed shard from checkpoint + WAL "
      "and checked the restored image bit-identical to the pre-crash "
      "snapshot before rejoining — so churn costs wall rounds, never "
      "commits.\n",
      json_path.c_str());
  return 0;
}

/// Drained diameter_span head-to-head: "fds" over the classic single-top
/// hierarchy vs the multi-root one ("fds_multiroot") on the same
/// seed/workload, small enough that both drain fully. With
/// abort_probability = 0 everything injected commits, so equal committed
/// counts prove the multi-root redirect loses and duplicates nothing; the
/// root-leader imbalance bar (< 3x the mean) is the same acceptance
/// criterion the s = 1024 grid rows enforce, checked here at ctest-smoke
/// cost.
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
  // Same contract as simulate_cli: a bad root count is an input error
  // (exit 2), never an abort inside the hierarchy builder.
  if (!core::ValidateFdsTopRoots(roots)) return 2;

  core::SimConfig base;
  base.topology = net::TopologyKind::kLine;
  base.hierarchy = bench::HierarchyFor(base.topology);
  base.shards = shards;
  base.accounts = shards;
  base.account_assignment = core::AccountAssignment::kRoundRobin;
  base.k = 4;
  base.rho = rho;
  base.burst_round = kNoRound;  // steady injection; the drain must finish
  base.strategy = "diameter_span";
  base.abort_probability = 0;  // drained + no aborts => committed == injected
  base.rounds = rounds;
  base.drain_cap = 200000;
  base.seed = seed;

  std::printf(
      "parallel_rounds leadershare: fds (single top root) vs fds_multiroot "
      "(%u roots) on diameter_span, s=%u, rho=%.2f, %llu rounds + drain\n\n",
      roots, shards, rho, static_cast<unsigned long long>(rounds));
  std::printf("%14s %6s | %9s %10s %8s | %6s %10s %10s\n", "scheduler",
              "roots", "injected", "committed", "drained", "ldrs",
              "busiest%", "imbalance");

  bool all_ok = true;
  std::uint64_t committed[2] = {0, 0};
  double imbalance[2] = {0, 0};
  TimedRun runs[2];
  for (std::size_t i = 0; i < 2; ++i) {
    core::SimConfig config = base;
    config.scheduler = "fds";
    config.fds_top_roots = i == 0 ? 1 : roots;
    runs[i] = RunOnce(config, 1);
    const core::SimResult& r = runs[i].result;
    all_ok = all_ok && r.drained && r.unresolved == 0 &&
             r.injected == r.committed && r.aborted == 0;
    committed[i] = r.committed;
    imbalance[i] = RootLeaderImbalance(runs[i]);
    std::uint64_t busiest = 0;
    for (const std::uint64_t in : runs[i].root_leader_in) {
      busiest = std::max(busiest, in);
    }
    std::printf("%14s %6u | %9llu %10llu %8s | %6zu %9.2f%% %9.2fx\n",
                runs[i].scheduler.c_str(), config.fds_top_roots,
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.committed),
                r.drained ? "yes" : "NO", runs[i].root_leader_in.size(),
                r.messages > 0 ? 100.0 * static_cast<double>(busiest) /
                                     static_cast<double>(r.messages)
                               : 0.0,
                imbalance[i]);

    // Bit-identity across workers 1/4 x pipeline on/off for both modes:
    // the leader-sharding fix must not loosen the determinism contract.
    const bool identical =
        Identical(runs[i].result, RunOnce(config, 4, true).result) &&
        Identical(runs[i].result, RunOnce(config, 4, false).result);
    SSHARD_CHECK(identical &&
                 "pipeline/worker_threads changed a SimResult — determinism "
                 "bug");
  }

  SSHARD_CHECK(all_ok &&
               "a leadershare run failed to drain everything it injected");
  SSHARD_CHECK(committed[0] == committed[1] &&
               "multi-root hierarchy changed the committed count — the "
               "redirect lost or duplicated admissions");
  SSHARD_CHECK(imbalance[1] < 3.0 &&
               "busiest top-root leader above 3x the mean root-leader "
               "share — the multi-root spread regressed");
  std::printf(
      "\nboth modes drained and committed %llu identically; multi-root "
      "busiest root leader at %.2fx the mean (bar: < 3x); bit-identical "
      "across workers 1/4 x pipeline on/off\n",
      static_cast<unsigned long long>(committed[0]), imbalance[1]);
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
  if (!flags.FinishReads()) return 2;

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
        RunOnce(config, workers, /*pipeline=*/true, Fanout::kGated);
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
