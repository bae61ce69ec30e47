#include "core/config.h"

#include <bit>
#include <cstdio>
#include <sstream>

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

bool ValidateBackpressureWatermarks(std::uint64_t low, std::uint64_t high) {
  if (low <= high && high > 0) return true;
  std::fprintf(stderr,
               "invalid backpressure watermarks: need --bp-low <= "
               "--bp-high and --bp-high > 0 (got low=%llu high=%llu)\n",
               static_cast<unsigned long long>(low),
               static_cast<unsigned long long>(high));
  return false;
}

bool ValidateMinShardsPerWorker(std::uint32_t min_shards_per_worker) {
  if (min_shards_per_worker >= 1) return true;
  std::fprintf(stderr,
               "invalid min-shards-per-worker: need "
               "--min-shards-per-worker >= 1 (got %u)\n",
               min_shards_per_worker);
  return false;
}

bool ValidateBdsColorLeaders(std::uint32_t bds_color_leaders) {
  if (bds_color_leaders >= 1) return true;
  std::fprintf(stderr,
               "invalid bds-color-leaders: need --bds-color-leaders >= 1 "
               "(got %u)\n",
               bds_color_leaders);
  return false;
}

bool ValidateFdsTopRoots(std::uint32_t fds_top_roots) {
  if (fds_top_roots >= 1) return true;
  std::fprintf(stderr,
               "invalid fds-top-roots: need --fds-top-roots >= 1 (got %u)\n",
               fds_top_roots);
  return false;
}

bool ValidateFaults(const std::string& faults, bool wal_enabled,
                    ShardId shards, Round rounds) {
  durability::FaultPlan plan;
  std::string error;
  if (!durability::ParseFaultPlan(faults, &plan, &error)) {
    std::fprintf(stderr, "invalid faults: %s (spec \"%s\")\n", error.c_str(),
                 faults.c_str());
    return false;
  }
  if (plan.empty()) return true;
  if (!wal_enabled) {
    std::fprintf(stderr, "invalid faults: --faults requires --wal\n");
    return false;
  }
  for (const durability::FaultEvent& event : plan.events) {
    if (event.shard >= shards) {
      std::fprintf(stderr, "invalid faults: shard %u out of range (s=%u)\n",
                   event.shard, shards);
      return false;
    }
    if (event.crash_round >= rounds) {
      std::fprintf(stderr,
                   "invalid faults: crash round %llu past the injection "
                   "phase (rounds=%llu)\n",
                   static_cast<unsigned long long>(event.crash_round),
                   static_cast<unsigned long long>(rounds));
      return false;
    }
  }
  return true;
}

bool ValidateReplayBytesPerRound(std::uint64_t replay_bytes_per_round) {
  if (replay_bytes_per_round >= 1) return true;
  std::fprintf(stderr,
               "invalid replay-bytes-per-round: need "
               "--replay-bytes-per-round >= 1 (got 0)\n");
  return false;
}

bool ValidateCheckpointInterval(Round checkpoint_interval, bool wal_enabled) {
  if (checkpoint_interval == 0 || wal_enabled) return true;
  std::fprintf(stderr,
               "invalid checkpoint-interval: --checkpoint-interval requires "
               "--wal\n");
  return false;
}

bool ValidateArrivalRate(double arrival_rate, double arrival_burst) {
  if (arrival_rate < 0.0) {
    std::fprintf(stderr,
                 "invalid arrival-rate: need --arrival-rate >= 0 (got %g)\n",
                 arrival_rate);
    return false;
  }
  if (arrival_rate > 0.0 && arrival_burst < 1.0) {
    std::fprintf(stderr,
                 "invalid arrival-rate: open loop needs --burst >= 1 "
                 "(got %g)\n",
                 arrival_burst);
    return false;
  }
  return true;
}

bool ValidateTraceConfig(const std::string& trace, const std::string& strategy,
                         double arrival_rate) {
  if (trace.empty()) {
    if (strategy == "trace_replay") {
      std::fprintf(stderr,
                   "invalid trace: --strategy=trace_replay requires "
                   "--trace\n");
      return false;
    }
    return true;
  }
  if (strategy != "trace_replay") {
    std::fprintf(stderr,
                 "invalid trace: --trace requires --strategy=trace_replay "
                 "(got --strategy=%s)\n",
                 strategy.c_str());
    return false;
  }
  if (arrival_rate > 0.0) {
    std::fprintf(stderr,
                 "invalid trace: --trace and --arrival-rate are exclusive "
                 "(the trace is the arrival schedule)\n");
    return false;
  }
  return true;
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
