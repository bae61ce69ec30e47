#include "core/config.h"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "adversary/strategy_registry.h"
#include "core/scheduler_registry.h"
#include "durability/fault_plan.h"

namespace stableshard::core {

std::string SimConfig::Describe() const {
  std::ostringstream os;
  os << scheduler << " s=" << shards << " k=" << k
     << " topo=" << net::TopologyName(topology) << " rho=" << rho
     << " b=" << burstiness << " strat=" << strategy << " rounds=" << rounds
     << " seed=" << seed;
  if (worker_threads > 1) os << " wt=" << worker_threads;
  if (arrival_rate > 0.0) {
    os << " arr=" << arrival_rate << "/" << arrival_burst;
  }
  if (!trace.empty()) os << " trace=" << trace;
  if (bds_color_leaders > 1) os << " cl=" << bds_color_leaders;
  if (fds_top_roots > 1) os << " roots=" << fds_top_roots;
  if (scheduler == "backpressure") {
    os << " bp=" << backpressure_high << "/" << backpressure_low;
  }
  if (wal) {
    os << " wal";
    if (checkpoint_interval > 0) os << " ckpt=" << checkpoint_interval;
    if (!faults.empty()) os << " faults=" << faults;
  }
  return os.str();
}

namespace {

[[gnu::format(printf, 1, 2)]] std::string Format(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list sized;
  va_copy(sized, args);
  std::string line(static_cast<std::size_t>(
                       std::vsnprintf(nullptr, 0, format, sized)),
                   '\0');
  va_end(sized);
  std::vsnprintf(line.data(), line.size() + 1, format, args);
  va_end(args);
  return line;
}

template <typename Registry>
std::string UnknownName(const Registry& registry, const char* flag,
                        const std::string& name) {
  std::string line = "unknown --" + std::string(flag) + "=" + name +
                     "; registered:";
  for (const std::string& known : registry.Names()) line += " " + known;
  return line;
}

}  // namespace

// Conditions are written as "not usable" so a NaN fails every one of them.
std::string ConfigError(const SimConfig& config) {
  if (config.shards < 1) return "invalid shards: need --shards >= 1 (got 0)";
  if (config.accounts < 1) {
    return "invalid accounts: need --accounts >= 1 (got 0)";
  }
  if (config.k < 1) return "invalid k: need --k >= 1 (got 0)";
  if (!(config.rho > 0.0 && config.rho <= 1.0)) {
    return Format("invalid rho: need 0 < --rho <= 1 (got %g)", config.rho);
  }
  if (!(config.burstiness > 0.0)) {
    return Format("invalid b: need --b > 0 (got %g)", config.burstiness);
  }
  if (config.worker_threads < 1) {
    return "invalid workers: need --workers >= 1 (got 0)";
  }
  if (!SchedulerRegistry::Global().Contains(config.scheduler)) {
    return UnknownName(SchedulerRegistry::Global(), "scheduler",
                       config.scheduler);
  }
  if (!adversary::StrategyRegistry::Global().Contains(config.strategy)) {
    return UnknownName(adversary::StrategyRegistry::Global(), "strategy",
                       config.strategy);
  }
  if (config.coloring != txn::ColoringAlgorithm::kGreedy &&
      config.coloring != txn::ColoringAlgorithm::kWelshPowell) {
    return Format("invalid coloring: the schedulers color without the "
                  "conflict graph and run --coloring=greedy or "
                  "welsh_powell (got %s)",
                  txn::ToString(config.coloring));
  }
  if (!(config.zipf_theta >= 0.0)) {
    return Format("invalid zipf: need --zipf >= 0 (got %g)",
                  config.zipf_theta);
  }
  if (!(config.arrival_rate >= 0.0)) {
    return Format("invalid arrival-rate: need --arrival-rate >= 0 (got %g)",
                  config.arrival_rate);
  }
  if (config.arrival_rate > 0.0 && !(config.arrival_burst >= 1.0)) {
    return Format("invalid arrival-rate: open loop needs --burst >= 1 "
                  "(got %g)",
                  config.arrival_burst);
  }
  if (config.trace.empty() && config.strategy == "trace_replay") {
    return "invalid trace: --strategy=trace_replay requires --trace";
  }
  if (!config.trace.empty() && config.strategy != "trace_replay") {
    return Format("invalid trace: --trace requires --strategy=trace_replay "
                  "(got --strategy=%s)",
                  config.strategy.c_str());
  }
  if (!config.trace.empty() && config.arrival_rate > 0.0) {
    return "invalid trace: --trace and --arrival-rate are exclusive (the "
           "trace is the arrival schedule)";
  }
  if (config.bds_color_leaders < 1) {
    return "invalid bds-color-leaders: need --bds-color-leaders >= 1 (got 0)";
  }
  if (config.fds_top_roots < 1) {
    return "invalid fds-top-roots: need --fds-top-roots >= 1 (got 0)";
  }
  if (!(config.backpressure_low <= config.backpressure_high &&
        config.backpressure_high > 0)) {
    return Format("invalid backpressure watermarks: need --bp-low <= "
                  "--bp-high and --bp-high > 0 (got low=%llu high=%llu)",
                  static_cast<unsigned long long>(config.backpressure_low),
                  static_cast<unsigned long long>(config.backpressure_high));
  }
  if (config.checkpoint_interval > 0 && !config.wal) {
    return "invalid checkpoint-interval: --checkpoint-interval requires "
           "--wal";
  }
  durability::FaultPlan plan;
  std::string error;
  if (!durability::ParseFaultPlan(config.faults, &plan, &error)) {
    return Format("invalid faults: %s (spec \"%s\")", error.c_str(),
                  config.faults.c_str());
  }
  if (!plan.empty() && !config.wal) {
    return "invalid faults: --faults requires --wal";
  }
  for (const durability::FaultEvent& event : plan.events) {
    if (event.shard >= config.shards) {
      return Format("invalid faults: shard %u out of range (s=%u)",
                    event.shard, config.shards);
    }
    if (event.crash_round >= config.rounds) {
      return Format("invalid faults: crash round %llu past the injection "
                    "phase (rounds=%llu)",
                    static_cast<unsigned long long>(event.crash_round),
                    static_cast<unsigned long long>(config.rounds));
    }
  }
  if (config.replay_bytes_per_round < 1) {
    return "invalid replay-bytes-per-round: need --replay-bytes-per-round "
           ">= 1 (got 0)";
  }
  return "";
}

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
template <typename T>
bool SameBits(T a, T b) {
  return a == b;
}

}  // namespace

// A new SimResult field changes its size and stops the build here: add the
// field to one of the lists below, then update the size. The repository
// benchmark keeps its own copy of the list (perfbench/traced_loop.cc,
// ResultsIdentical): its sources stay fixed so its runs compare across
// commits.
static_assert(sizeof(SimResult) == 200,
              "SimResult changed: name the new field in the comparison");

#define SSHARD_FIRST_DIFFERENCE(field) \
  if (!SameBits(a.field, b.field)) return #field

std::string_view FirstDifferingProtocolField(const SimResult& a,
                                             const SimResult& b) {
  SSHARD_FIRST_DIFFERENCE(avg_pending_per_shard);
  SSHARD_FIRST_DIFFERENCE(avg_latency);
  SSHARD_FIRST_DIFFERENCE(max_latency);
  SSHARD_FIRST_DIFFERENCE(p50_latency);
  SSHARD_FIRST_DIFFERENCE(p99_latency);
  SSHARD_FIRST_DIFFERENCE(avg_leader_queue);
  SSHARD_FIRST_DIFFERENCE(max_leader_queue);
  SSHARD_FIRST_DIFFERENCE(max_single_leader_queue);
  SSHARD_FIRST_DIFFERENCE(injected);
  SSHARD_FIRST_DIFFERENCE(committed);
  SSHARD_FIRST_DIFFERENCE(aborted);
  SSHARD_FIRST_DIFFERENCE(unresolved);
  SSHARD_FIRST_DIFFERENCE(max_pending);
  SSHARD_FIRST_DIFFERENCE(spill_peak);
  SSHARD_FIRST_DIFFERENCE(messages);
  SSHARD_FIRST_DIFFERENCE(payload_units);
  SSHARD_FIRST_DIFFERENCE(offered_txns);
  SSHARD_FIRST_DIFFERENCE(injected_txns);
  SSHARD_FIRST_DIFFERENCE(inject_lag_peak);
  SSHARD_FIRST_DIFFERENCE(rounds_executed);
  SSHARD_FIRST_DIFFERENCE(drained);
  return "";
}

std::string_view FirstDifferingField(const SimResult& a, const SimResult& b) {
  const std::string_view protocol = FirstDifferingProtocolField(a, b);
  if (!protocol.empty()) return protocol;
  SSHARD_FIRST_DIFFERENCE(wal_bytes);
  SSHARD_FIRST_DIFFERENCE(checkpoint_count);
  SSHARD_FIRST_DIFFERENCE(replay_bytes);
  SSHARD_FIRST_DIFFERENCE(recovery_rounds);
  return "";
}

#undef SSHARD_FIRST_DIFFERENCE

}  // namespace stableshard::core
