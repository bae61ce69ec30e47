// simulate_cli: the library as a command-line tool — run any scheduler /
// topology / adversary combination and print (or CSV-dump) the metrics.
//
//   build/examples/simulate_cli --scheduler=fds --topology=line
//       --shards=64 --k=8 --rho=0.12 --b=2000 --rounds=25000
//       --strategy=uniform_random --seed=1 [--csv=out.csv] [--series=1000]
//
// Run with --help for all options.
#include <algorithm>
#include <cstdio>
#include <string>

#include "adversary/strategy_registry.h"
#include "common/csv.h"
#include "common/flags.h"
#include "core/engine.h"
#include "core/scheduler_registry.h"
#include "traffic/trace.h"

namespace {

using namespace stableshard;

constexpr const char* kUsage = R"(simulate_cli — StableShard simulation runner

  --scheduler  any registered scheduler (backpressure | bds | fds | direct
               in-tree; default bds — unknown names print the registry)
  --topology   uniform | line | ring | grid | random_geo   (default: uniform
               for bds, line otherwise)
  --hierarchy  shifted | cover               (fds only; default shifted)
  --shards     number of shards              (default 64)
  --accounts   number of accounts            (default = shards)
  --k          max shards per transaction    (default 8)
  --rho        injection rate (congestion per shard per round, default 0.1)
  --b          burstiness (one-time burst of b transactions, default 1000)
  --no-burst   disable the burst
  --rounds     simulated rounds              (default 25000)
  --strategy   any registered workload (uniform_random | hotspot |
               pairwise_conflict | local | single_shard | hot_destination |
               diameter_span in-tree; default uniform_random — unknown
               names print the registry)
  --radius     destination radius for --strategy=local (default 4)
  --zipf       skew exponent for --strategy=hot_destination (default 1.0)
  --abort-prob probability of unsatisfiable conditions (default 0)
  --coloring   greedy | welsh_powell | dsatur (default greedy)
  --pinned     use the conservative pinned commit mode (fds)
  --no-reschedule  disable FDS rescheduling periods
  --bds-color-leaders  bds: co-leader shards the epoch's color classes
               are committed across (default 1 = exactly the paper's
               single-leader protocol; above 1 the scheduler reports itself
               as bds_sharded; clamped to the shard count; must be >= 1)
  --fds-top-roots  fds (and the backpressure wrapper): number of
               interchangeable full-membership top-layer root clusters
               diameter-spanning transactions are hashed across
               (default 1 = the classic single-top hierarchy; above 1 fds
               reports itself as fds_multiroot; clamped to the shard
               count; must be >= 1)
  --bp-high    backpressure scheduler: mark a destination hot when its
               congestion signal — max(round inflow, standing backlog:
               undelivered messages + led-cluster queues) — reaches this
               (default 64)
  --bp-low     backpressure scheduler: clear a hot destination when the
               signal falls back to this (default 16; must be
               <= --bp-high)
  --burst-round  round at which the b-sized burst fires (default 0)
  --arrival-rate  open-loop injection: transactions arriving per wall round,
               independent of commit progress (default 0 = the closed-loop
               adversary; the registered --strategy still shapes every
               transaction, the arrival schedule only times them)
  --burst      open-loop burst cap: token-bucket depth released greedily
               from --burst-round on (default 1; needs --arrival-rate > 0)
  --trace      replay a recorded trace file as the arrival schedule
               (implies --strategy=trace_replay; exclusive with
               --arrival-rate — the trace is the schedule)
  --trace-out  record this run's injection stream to a trace file
               (replayable bit-identically via --trace)
  --drain      extra rounds to drain after injection stops (default 0)
  --workers    threads driving the shard-parallel round loop (default 1;
               any value gives bit-identical results)
  --wal        persist every commit/abort to the write-ahead log (off by
               default; fault-free runs are bit-identical either way)
  --checkpoint-interval  cut a full-state checkpoint every N protocol
               rounds (requires --wal; default 0 = never)
  --faults     deterministic churn schedule "<shard>@<round>+<down>[,...]":
               crash <shard> at <round>, keep it dark for <down> rounds,
               then replay it from checkpoint + WAL and rejoin (requires
               --wal; crash rounds strictly increasing, within --rounds)
  --replay-bytes-per-round  WAL bytes replayed per recovery round — paces
               how many wall rounds a rejoin costs (default 4096; >= 1)
  --seed       RNG seed                      (default 42)
  --series     record the pending series with this window (rounds)
  --csv        append one result row to this CSV file
)";

/// Shared "unknown name" epilogue for registry-backed flags: false plus
/// the sorted listing on stderr (the cli_unknown_*_exits_2 ctest checks
/// grep this exact format).
template <typename Registry>
bool ValidateRegistryName(const Registry& registry, const char* flag,
                          const std::string& name) {
  if (registry.Contains(name)) return true;
  std::fprintf(stderr, "unknown --%s=%s; registered:", flag, name.c_str());
  for (const std::string& known : registry.Names()) {
    std::fprintf(stderr, " %s", known.c_str());
  }
  std::fprintf(stderr, "\n");
  return false;
}

bool ParseConfig(const Flags& flags, core::SimConfig* config) {
  config->scheduler = flags.GetString("scheduler", "bds");
  if (!ValidateRegistryName(core::SchedulerRegistry::Global(), "scheduler",
                            config->scheduler)) {
    return false;
  }

  const std::string default_topology =
      config->scheduler == "bds" ? "uniform" : "line";
  const std::string topology_name =
      flags.GetString("topology", default_topology);
  const auto topology = net::TryParseTopology(topology_name);
  if (!topology) {
    std::fprintf(stderr, "unknown --topology=%s\n", topology_name.c_str());
    return false;
  }
  config->topology = *topology;
  config->hierarchy = flags.GetString("hierarchy", "shifted") == "cover"
                          ? core::HierarchyKind::kSparseCover
                          : core::HierarchyKind::kLineShifted;
  config->shards = static_cast<ShardId>(flags.GetUint("shards", 64));
  config->accounts =
      static_cast<AccountId>(flags.GetUint("accounts", config->shards));
  config->k = static_cast<std::uint32_t>(flags.GetUint("k", 8));
  config->rho = flags.GetDouble("rho", 0.1);
  config->burstiness = flags.GetDouble("b", 1000);
  config->burst_round =
      static_cast<Round>(flags.GetUint("burst-round", config->burst_round));
  if (flags.GetBool("no-burst", false)) config->burst_round = kNoRound;
  config->rounds = static_cast<Round>(flags.GetUint("rounds", 25000));
  config->drain_cap = static_cast<Round>(flags.GetUint("drain", 0));
  config->worker_threads = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, flags.GetUint("workers", 1)));
  config->seed = flags.GetUint("seed", 42);
  config->abort_probability = flags.GetDouble("abort-prob", 0.0);
  config->fds_pipelined = !flags.GetBool("pinned", false);
  config->fds_reschedule = !flags.GetBool("no-reschedule", false);

  config->bds_color_leaders = static_cast<std::uint32_t>(
      flags.GetUint("bds-color-leaders", config->bds_color_leaders));
  config->fds_top_roots = static_cast<std::uint32_t>(
      flags.GetUint("fds-top-roots", config->fds_top_roots));
  // Same exit-2 contract as the watermarks: a zero knob is an input
  // error, not an SSHARD_CHECK abort in the scheduler/hierarchy builders.
  if (!core::ValidateBdsColorLeaders(config->bds_color_leaders)) {
    return false;
  }
  if (!core::ValidateFdsTopRoots(config->fds_top_roots)) {
    return false;
  }

  config->backpressure_high =
      flags.GetUint("bp-high", config->backpressure_high);
  config->backpressure_low =
      flags.GetUint("bp-low", config->backpressure_low);
  // Validated here (exit 2), not just in the scheduler constructor
  // (abort): a CLI typo is an input error, not an invariant violation.
  if (!core::ValidateBackpressureWatermarks(config->backpressure_low,
                                            config->backpressure_high)) {
    return false;
  }

  config->wal = flags.GetBool("wal", false);
  config->checkpoint_interval = static_cast<Round>(
      flags.GetUint("checkpoint-interval", config->checkpoint_interval));
  if (!core::ValidateCheckpointInterval(config->checkpoint_interval,
                                        config->wal)) {
    return false;
  }
  config->faults = flags.GetString("faults", "");
  // Exit-2 contract again: a malformed churn spec (or one pointing at a
  // shard/round that doesn't exist) is an input error, never the
  // SSHARD_CHECK abort inside the engine constructor.
  if (!core::ValidateFaults(config->faults, config->wal, config->shards,
                            config->rounds)) {
    return false;
  }
  config->replay_bytes_per_round = flags.GetUint(
      "replay-bytes-per-round", config->replay_bytes_per_round);
  if (!core::ValidateReplayBytesPerRound(config->replay_bytes_per_round)) {
    return false;
  }

  config->local_radius =
      static_cast<Distance>(flags.GetUint("radius", config->local_radius));
  config->zipf_theta = flags.GetDouble("zipf", config->zipf_theta);
  if (config->zipf_theta < 0.0) {
    std::fprintf(stderr, "--zipf must be >= 0 (got %g)\n", config->zipf_theta);
    return false;
  }
  config->arrival_rate = flags.GetDouble("arrival-rate", 0.0);
  config->arrival_burst = flags.GetDouble("burst", config->arrival_burst);
  // Exit-2 contract: a bad open-loop rate/burst pair is an input error,
  // never the SSHARD_CHECK abort in the engine constructor.
  if (!core::ValidateArrivalRate(config->arrival_rate,
                                 config->arrival_burst)) {
    return false;
  }
  config->trace = flags.GetString("trace", "");
  config->trace_out = flags.GetString("trace-out", "");
  config->strategy = flags.GetString(
      "strategy", config->trace.empty() ? "uniform_random" : "trace_replay");
  if (!ValidateRegistryName(adversary::StrategyRegistry::Global(), "strategy",
                            config->strategy)) {
    return false;
  }
  // The trace/strategy/rate coupling and the trace file itself (magic,
  // meta, checksum, record grammar) are input errors too: exit 2 with one
  // "invalid trace: ..." line, never an abort inside the replayer.
  if (!core::ValidateTraceConfig(config->trace, config->strategy,
                                 config->arrival_rate)) {
    return false;
  }
  if (!config->trace.empty() &&
      !traffic::ValidateTraceFile(config->trace, config->shards,
                                  config->accounts)) {
    return false;
  }

  const std::string coloring = flags.GetString("coloring", "greedy");
  if (coloring == "greedy") {
    config->coloring = txn::ColoringAlgorithm::kGreedy;
  } else if (coloring == "welsh_powell") {
    config->coloring = txn::ColoringAlgorithm::kWelshPowell;
  } else if (coloring == "dsatur") {
    config->coloring = txn::ColoringAlgorithm::kDsatur;
  } else {
    std::fprintf(stderr, "unknown --coloring=%s\n", coloring.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  core::SimConfig config;
  if (!ParseConfig(flags, &config)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const Round series_window =
      static_cast<Round>(flags.GetUint("series", 0));
  const std::string csv_path = flags.GetString("csv", "");
  // e.g. --rounds=abc must never silently run 0 rounds.
  if (!flags.FinishReads()) return 2;

  core::Simulation sim(config);
  if (series_window > 0) sim.EnableSeries(series_window);
  const auto result = sim.Run();

  std::printf("config              : %s\n", config.Describe().c_str());
  std::printf("injected            : %llu\n",
              static_cast<unsigned long long>(result.injected));
  std::printf("committed / aborted : %llu / %llu\n",
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.aborted));
  std::printf("unresolved at end   : %llu (max pending %llu)\n",
              static_cast<unsigned long long>(result.unresolved),
              static_cast<unsigned long long>(result.max_pending));
  std::printf("avg pending / shard : %.3f\n", result.avg_pending_per_shard);
  std::printf("avg leader queue    : %.3f (peak %.1f)\n",
              result.avg_leader_queue, result.max_leader_queue);
  if (result.spill_peak > 0) {
    std::printf("backpressure spill  : peak %llu parked\n",
                static_cast<unsigned long long>(result.spill_peak));
  }
  std::printf("latency avg/p50/p99/max : %.1f / %.0f / %.0f / %.0f rounds\n",
              result.avg_latency, result.p50_latency, result.p99_latency,
              result.max_latency);
  std::printf("messages            : %llu (payload units %llu)\n",
              static_cast<unsigned long long>(result.messages),
              static_cast<unsigned long long>(result.payload_units));
  if (config.arrival_rate > 0.0 || !config.trace.empty()) {
    std::printf("open-loop arrivals  : %llu offered, %llu injected "
                "(lag peak %llu)\n",
                static_cast<unsigned long long>(result.offered_txns),
                static_cast<unsigned long long>(result.injected_txns),
                static_cast<unsigned long long>(result.inject_lag_peak));
  }
  if (!config.trace_out.empty()) {
    std::printf("trace recorded      : %s\n", config.trace_out.c_str());
  }
  if (config.wal) {
    std::printf("wal                 : %llu bytes, %llu checkpoints\n",
                static_cast<unsigned long long>(result.wal_bytes),
                static_cast<unsigned long long>(result.checkpoint_count));
  }
  if (result.recovery_rounds > 0) {
    std::printf("recovery            : %llu wall rounds, %llu bytes "
                "replayed (%llu crash events)\n",
                static_cast<unsigned long long>(result.recovery_rounds),
                static_cast<unsigned long long>(result.replay_bytes),
                static_cast<unsigned long long>(sim.liveness().crash_count()));
  }
  if (result.drained) std::printf("drained             : yes\n");

  if (sim.pending_series() != nullptr) {
    std::printf("pending series      :");
    for (const auto& point : sim.pending_series()->points()) {
      std::printf(" %.0f", point.value);
    }
    std::printf("\n");
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"config", "rho", "b", "injected", "committed", "aborted",
                   "unresolved", "avg_pending_per_shard", "avg_latency",
                   "p99_latency", "avg_leader_queue", "messages"});
    csv.Row(config.Describe(), config.rho, config.burstiness,
            result.injected, result.committed, result.aborted,
            result.unresolved, result.avg_pending_per_shard,
            result.avg_latency, result.p99_latency, result.avg_leader_queue,
            result.messages);
    std::printf("csv row appended    : %s\n", csv_path.c_str());
  }
  return 0;
}
