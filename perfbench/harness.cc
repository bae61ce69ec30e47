// perfbench_harness: the repository benchmark's measuring program.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S --trace=0|1
//                     [--trace-file=PATH] [--tiny]
//   perfbench_harness --gate-self-test
//
// One process measures one workload. Untraced (--trace=0) it repeats
// Simulation construction + Run() until S seconds have passed and reports
// the end-to-end metrics as medians over the repetitions (the first one is
// a warm-up and only gated). Traced (--trace=1) it alternates an untraced
// Run() with a run of the traced replica (traced_loop.h) and reports the
// per-layer split as medians over the traced repetitions. Every repetition
// passes the correctness gates below or the process exits 1; the last line
// of stdout is the JSON result perfbench/run.py relays.
//
// --gate-self-test feeds each gate a deliberately broken input and exits 1
// unless every gate fires.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/config.h"
#include "core/engine.h"
#include "net/topology_factory.h"
#include "traced_loop.h"
#include "traffic/trace.h"

namespace perfbench {
namespace {

namespace ss = stableshard;
using ss::Round;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The latency histogram's overflow edge (stats/latency_recorder.cc: 100
/// buckets of width 100). A p99 at or past it is saturated and can show
/// neither a gain nor a loss.
constexpr double kLatencyOverflowRounds = 10000;
constexpr double kMaxUnaccountedShare = 0.05;

// ---------------------------------------------------------------- workloads

struct Workload {
  ss::core::SimConfig config;
  /// Open-loop trace replays: the whole trace must be offered and injected.
  std::uint64_t trace_records = 0;
};

/// The three canonical workloads (perfbench/DESIGN.md says why each).
/// `tiny` shrinks each to a seconds-long smoke size with the same shape.
bool MakeWorkload(const std::string& name, std::uint64_t seed, bool tiny,
                  const std::string& trace_file, Workload* out,
                  std::string* error) {
  ss::core::SimConfig config;
  config.seed = seed;
  config.k = 8;
  config.account_assignment = ss::core::AccountAssignment::kRoundRobin;
  config.burst_round = 0;
  config.drain_cap = 200000;
  config.pipeline = true;
  // The closed-loop workloads keep 256 shards and 2 workers: at 1024 shards
  // the working set spills out of the per-core caches into the host's
  // shared L3 and memory, whose contention made the wall times of separate
  // runs spread by nearly half their median; and 2 pool workers plus the
  // driving thread leave one of 4 vCPUs free.
  if (name == "bds_uniform_256") {
    config.scheduler = "bds";
    config.topology = ss::net::TopologyKind::kUniform;
    config.shards = tiny ? 64 : 256;
    config.strategy = "uniform_random";
    config.rho = 0.10;
    config.burstiness = tiny ? 150 : 750;
    config.rounds = tiny ? 200 : 8000;
    config.worker_threads = 2;
    config.min_shards_per_worker = 1;
  } else if (name == "fds_line_256") {
    config.scheduler = "fds";
    config.topology = ss::net::TopologyKind::kLine;
    config.hierarchy = ss::core::HierarchyKind::kLineShifted;
    config.shards = tiny ? 64 : 256;
    config.strategy = "local";
    config.local_radius = 8;
    config.rho = 0.20;
    config.burstiness = tiny ? 150 : 750;
    config.rounds = tiny ? 200 : 2000;
    config.worker_threads = 2;
    config.min_shards_per_worker = 1;
  } else if (name == "flash_durable_64") {
    if (trace_file.empty()) {
      *error = "flash_durable_64 needs --trace-file";
      return false;
    }
    ss::traffic::Trace trace;
    if (!ss::traffic::LoadTraceFile(trace_file, &trace, error)) return false;
    if (trace.records.empty()) {
      *error = "empty trace";
      return false;
    }
    config.scheduler = "backpressure";
    config.topology = ss::net::TopologyKind::kLine;
    config.hierarchy = ss::core::HierarchyKind::kLineShifted;
    config.shards = trace.shards;
    config.accounts = trace.accounts;
    config.strategy = "trace_replay";
    config.trace = trace_file;
    config.rounds = trace.records.back().round + 1;
    config.worker_threads = 1;
    config.wal = true;
    config.checkpoint_interval = 100;
    // Three single-shard crashes of busy shards (the flash crowd's homes
    // rank by distance from shard 0), all clear of the spike in the middle
    // tenth of the trace and off the checkpoint cadence, so each recovery
    // replays a WAL suffix.
    const Round r = config.rounds;
    config.faults = "1@" + std::to_string(r / 5 + 37) + "+10,2@" +
                    std::to_string(r * 35 / 100 + 61) + "+10,3@" +
                    std::to_string(r * 3 / 4 + 83) + "+10";
    out->trace_records = trace.records.size();
  } else {
    *error = "unknown workload \"" + name + "\"";
    return false;
  }
  if (config.strategy != "trace_replay") config.accounts = config.shards;
  out->config = config;
  return true;
}

// -------------------------------------------------------------------- gates
//
// Each gate returns "" when the input passes, else a one-line reason. A
// failed gate fails the run; it is never reported as a number.

std::string GateDrained(const ss::core::SimResult& r) {
  if (!r.drained || r.unresolved != 0) {
    return "run did not drain (unresolved=" + std::to_string(r.unresolved) +
           ")";
  }
  return "";
}

std::string GateAccounting(const ss::core::SimResult& r) {
  if (r.injected != r.committed + r.aborted + r.unresolved) {
    return "accounting identity broken: injected=" +
           std::to_string(r.injected) + " != committed+aborted+unresolved=" +
           std::to_string(r.committed + r.aborted + r.unresolved);
  }
  return "";
}

std::string GateLatencyInRange(const ss::core::SimResult& r) {
  if (!(r.p99_latency < kLatencyOverflowRounds)) {
    return "p99 latency " + std::to_string(r.p99_latency) +
           " rounds is saturated at the histogram overflow bucket";
  }
  return "";
}

std::string GateReplayedWholeTrace(const ss::core::SimResult& r,
                                   std::uint64_t trace_records) {
  if (trace_records == 0) return "";
  if (r.offered_txns != trace_records || r.injected_txns != trace_records ||
      r.injected != trace_records) {
    return "trace not replayed whole: records=" +
           std::to_string(trace_records) +
           " offered=" + std::to_string(r.offered_txns) +
           " injected=" + std::to_string(r.injected);
  }
  return "";
}

/// The protocol metrics are deterministic per seed: every repetition, and
/// the traced replica, must reproduce the reference SimResult bit for bit.
std::string GateIdentical(const ss::core::SimResult& reference,
                          const ss::core::SimResult& other,
                          const char* what) {
  if (!ResultsIdentical(reference, other)) {
    return std::string(what) + " SimResult differs from the reference run";
  }
  return "";
}

std::string GateUnaccounted(double unaccounted_share) {
  if (!(unaccounted_share <= kMaxUnaccountedShare)) {
    return "per-layer self times leave " +
           std::to_string(unaccounted_share) +
           " of the traced loop unaccounted (limit 0.05)";
  }
  return "";
}

std::string GateRun(const ss::core::SimResult& r, const Workload& workload) {
  for (const std::string& failure :
       {GateDrained(r), GateAccounting(r), GateLatencyInRange(r),
        GateReplayedWholeTrace(r, workload.trace_records)}) {
    if (!failure.empty()) return failure;
  }
  return "";
}

int GateSelfTest() {
  ss::core::SimResult good;
  good.injected = good.committed = good.injected_txns = good.offered_txns =
      100;
  good.drained = true;
  good.p99_latency = 40;
  Workload workload;
  workload.trace_records = 100;
  int failures = 0;
  const auto expect = [&](const char* gate, const std::string& verdict,
                          bool should_fire) {
    const bool fired = !verdict.empty();
    std::printf("gate %-22s %s input: %s\n", gate,
                should_fire ? "broken" : "valid ",
                fired ? ("fires (" + verdict + ")").c_str() : "passes");
    if (fired != should_fire) ++failures;
  };

  expect("run", GateRun(good, workload), false);
  expect("identical", GateIdentical(good, good, "traced"), false);
  expect("unaccounted", GateUnaccounted(0.01), false);

  ss::core::SimResult bad = good;
  bad.drained = false;
  bad.unresolved = 3;
  bad.injected = 103;
  bad.injected_txns = bad.offered_txns = 103;
  expect("drained", GateDrained(bad), true);
  bad = good;
  bad.committed = 99;
  expect("accounting", GateAccounting(bad), true);
  bad = good;
  bad.p99_latency = kLatencyOverflowRounds;
  expect("latency_in_range", GateLatencyInRange(bad), true);
  bad = good;
  bad.offered_txns = 90;
  expect("replayed_whole_trace", GateReplayedWholeTrace(bad, 100), true);
  bad = good;
  bad.avg_latency = std::nextafter(good.avg_latency, 1.0);
  expect("identical (1 ulp)", GateIdentical(good, bad, "traced"), true);
  bad = good;
  bad.messages = 1;
  expect("identical (counter)", GateIdentical(good, bad, "repeated"), true);
  expect("unaccounted", GateUnaccounted(0.0501), true);
  expect("unaccounted (nan)", GateUnaccounted(std::nan("")), true);

  std::printf("gate self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- measuring

struct Rep {
  ss::core::SimResult result;
  double setup_s = 0;  ///< Simulation constructor
  double run_s = 0;    ///< Run()
  double loop_s = 0;   ///< the round loop inside Run() (PhaseTimes::total)
};

Rep RunUntraced(const ss::core::SimConfig& config) {
  Rep rep;
  const auto start = Clock::now();
  ss::core::Simulation simulation(config);
  rep.setup_s = SecondsSince(start);
  const auto run_start = Clock::now();
  rep.result = simulation.Run();
  rep.run_s = SecondsSince(run_start);
  rep.loop_s = simulation.phase_times().total;
  return rep;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// One named metric: its unit and one sample per measured repetition
/// (deterministic metrics repeat the same value).
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& metric) { return metric.name == name; });
    if (it != metrics_.end()) {
      it->samples.push_back(value);
    } else {
      metrics_.push_back({name, unit, {value}});
    }
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const {
    for (const Metric& metric : metrics_) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
};

/// The end-to-end metrics of one untraced repetition.
void AddEndToEnd(const Rep& rep, MetricSet* out) {
  const ss::core::SimResult& r = rep.result;
  out->Add("committed_tps", "txn/s",
           static_cast<double>(r.committed) / rep.run_s);
  out->Add("rounds_per_s", "rounds/s",
           static_cast<double>(r.rounds_executed) / rep.run_s);
  out->Add("setup_s", "s", rep.setup_s);
  out->Add("p99_latency_rounds", "rounds", r.p99_latency);
  out->Add("avg_latency_rounds", "rounds", r.avg_latency);
  out->Add("avg_pending_per_shard", "txn", r.avg_pending_per_shard);
  out->Add("max_pending", "txn", static_cast<double>(r.max_pending));
  out->Add("messages_per_commit", "msg/txn",
           Ratio(static_cast<double>(r.messages),
                 static_cast<double>(r.committed)));
}

/// The per-layer split of one traced repetition, paired with the untraced
/// run wall of the same pair for the overhead share.
void AddPerLayer(const TracedRun& traced, double untraced_loop_s,
                 MetricSet* out) {
  const LayerSplit& s = traced.split;
  const ss::core::SimResult& r = traced.result;
  const auto rounds = static_cast<double>(s.protocol_rounds);
  double busy_max = 0;
  double busy_sum = 0;
  for (const double busy : s.worker_busy_s) {
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const double busy_mean =
      busy_sum / static_cast<double>(s.worker_busy_s.size());

  out->Add("gen.self_s", "s", s.gen_s);
  out->Add("gen.txns", "count", static_cast<double>(s.gen_txns));
  out->Add("ledger.register_s", "s", s.register_s);
  out->Add("sched.inject_s", "s", s.inject_s);
  out->Add("sched.begin_s", "s", s.begin_s);
  out->Add("sched.step_busy_s", "s", s.step_busy_s);
  out->Add("sched.step_wall_s", "s", s.step_wall_s);
  out->Add("sched.step_critical_s", "s", s.step_critical_s);
  out->Add("sched.epilogue_wall_s", "s", s.epilogue_wall_s);
  out->Add("sched.flush_busy_s", "s", s.flush_busy_s);
  out->Add("sched.finish_s", "s", s.finish_s);
  out->Add("pool.worker_busy_max_s", "s", busy_max);
  out->Add("pool.worker_busy_mean_s", "s", busy_mean);
  out->Add("pool.wait_s", "s", s.region_capacity_s - busy_sum);
  out->Add("pool.busy_imbalance", "ratio", Ratio(busy_max, busy_mean));
  out->Add("pool.regions_per_round", "count",
           Ratio(static_cast<double>(s.regions), rounds));
  out->Add("engine.sample_s", "s", s.sample_s);
  out->Add("durability.checkpoint_s", "s", s.checkpoint_s);
  out->Add("durability.recover_s", "s", s.recover_s);
  out->Add("durability.wal_bytes_per_commit", "bytes/txn",
           Ratio(static_cast<double>(r.wal_bytes),
                 static_cast<double>(r.committed)));
  out->Add("durability.replay_bytes", "bytes",
           static_cast<double>(r.replay_bytes));
  out->Add("net.ring_capacity_bytes", "bytes",
           static_cast<double>(s.ring_capacity_peak_bytes));
  out->Add("net.outbox_capacity_bytes", "bytes",
           static_cast<double>(s.outbox_capacity_peak_bytes));
  out->Add("txn.arena_reserved_bytes", "bytes",
           static_cast<double>(s.arena_reserved_peak_bytes));
  out->Add("txn.arena_resets", "count", static_cast<double>(s.arena_resets));
  out->Add("bp.spill_peak", "txn", static_cast<double>(r.spill_peak));
  out->Add("bp.leader_queue_max", "txn", r.max_single_leader_queue);
  out->Add("inject_lag_peak", "txn", static_cast<double>(r.inject_lag_peak));
  out->Add("recovery_rounds", "rounds",
           static_cast<double>(r.recovery_rounds));
  out->Add("failed_share", "ratio",
           Ratio(static_cast<double>(r.injected - r.committed),
                 static_cast<double>(r.injected)));
  out->Add("trace.unaccounted_share", "ratio",
           1.0 - s.SelfSum() / s.loop_wall_s);
  out->Add("trace.overhead_share", "ratio",
           s.loop_wall_s / untraced_loop_s - 1.0);
}

void PrintJsonNumber(double value) { std::printf("%.17g", value); }

void PrintSamples(const MetricSet& set) {
  std::printf("samples: {");
  bool first = true;
  for (const Metric& metric : set.metrics()) {
    std::printf("%s\"%s\": [", first ? "" : ", ", metric.name.c_str());
    for (std::size_t i = 0; i < metric.samples.size(); ++i) {
      if (i > 0) std::printf(", ");
      PrintJsonNumber(metric.samples[i]);
    }
    std::printf("]");
    first = false;
  }
  std::printf("}\n");
}

int Fail(const std::string& reason) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               reason.c_str());
  return 1;
}

int Measure(const Workload& workload, const std::string& name, double seconds,
            bool traced) {
  const ss::core::SimConfig& config = workload.config;
  std::printf("workload: %s\nconfig: %s\n", name.c_str(),
              config.Describe().c_str());
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "c++";
#endif
  std::printf("build: {\"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n",
              compiler, __VERSION__, PERFBENCH_BUILD_TYPE);

  // Warm-up: caches, allocator pools and lazy set-up settle; gated, not
  // timed.
  const ss::core::SimResult reference = RunUntraced(config).result;
  std::string failure = GateRun(reference, workload);
  if (!failure.empty()) return Fail(failure);

  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t reps = 0;
  const std::size_t min_reps = traced ? 2 : 5;
  const auto start = Clock::now();
  while (reps < min_reps || SecondsSince(start) < seconds) {
    const Rep rep = RunUntraced(config);
    failure = GateIdentical(reference, rep.result, "repeated");
    if (failure.empty()) failure = GateRun(rep.result, workload);
    if (!failure.empty()) return Fail(failure);
    attempted += rep.result.injected;
    failed += rep.result.injected - rep.result.committed;
    if (traced) {
      const TracedRun run = RunTraced(config);
      failure = GateIdentical(reference, run.result, "traced");
      if (!failure.empty()) return Fail(failure);
      AddPerLayer(run, rep.loop_s, &metrics);
    } else {
      AddEndToEnd(rep, &metrics);
    }
    ++reps;
  }
  if (!traced) metrics.Add("peak_rss_mb", "MB", PeakRssMb());

  std::printf("repetitions: %zu (+1 warm-up) in %.3f s\n", reps,
              SecondsSince(start));
  std::printf("result: injected=%llu committed=%llu aborted=%llu "
              "rounds=%llu drained=%s wal_bytes=%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(reference.injected),
              static_cast<unsigned long long>(reference.committed),
              static_cast<unsigned long long>(reference.aborted),
              static_cast<unsigned long long>(reference.rounds_executed),
              reference.drained ? "yes" : "no",
              static_cast<unsigned long long>(reference.wal_bytes),
              static_cast<unsigned long long>(reference.checkpoint_count));
  PrintSamples(metrics);

  bool finite = true;
  for (const Metric& metric : metrics.metrics()) {
    const double median = Median(metric.samples);
    finite = finite && std::isfinite(median);
    std::printf("%-32s %18.6f %s\n", metric.name.c_str(), median,
                metric.unit.c_str());
  }
  if (!finite) return Fail("a metric is not a finite number");
  if (traced) {
    failure = GateUnaccounted(
        Median(metrics.Find("trace.unaccounted_share")->samples));
    if (!failure.empty()) return Fail(failure);
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ",
                metric.name.c_str());
    PrintJsonNumber(Median(metric.samples));
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

int Main(int argc, char** argv) {
  ss::Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "perfbench_harness: %s\n", flags.error().c_str());
    return 2;
  }
  if (flags.GetBool("gate-self-test", false)) {
    return flags.FinishReads() ? GateSelfTest() : 2;
  }
  const std::string name = flags.GetString("workload", "");
  const std::uint64_t seed = flags.GetUint("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10);
  const bool traced = flags.GetUint("trace", 0) != 0;
  const std::string trace_file = flags.GetString("trace-file", "");
  const bool tiny = flags.GetBool("tiny", false);
  if (!flags.FinishReads()) return 2;

  Workload workload;
  std::string error;
  if (!MakeWorkload(name, seed, tiny, trace_file, &workload, &error)) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.c_str());
    return 2;
  }
  return Measure(workload, name, seconds, traced);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
