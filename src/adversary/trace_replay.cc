// trace_replay: re-emit a recorded trace's transactions in file order.
//
// Shape only — timing lives in traffic::TraceArrivals, built from the same
// file by the engine, which pulls exactly as many candidates per round as
// the trace lists arrivals. Together they reproduce a recorded injection
// stream bit-identically: same accesses in the same order, same home
// shards, same monotonic transaction ids (the open-loop factory assigns
// them in pull order).
//
// Registered as "trace_replay"; requires SimConfig::trace (core::ConfigError
// checks the coupling and traffic::ValidateTraceFile the file, and the CLIs
// exit 2 on either; the builder re-checks the loaded file as an aborting
// invariant).
#include <memory>
#include <utility>

#include "adversary/strategy.h"
#include "adversary/strategy_internal.h"
#include "adversary/strategy_registry.h"
#include "common/check.h"
#include "core/config.h"
#include "traffic/trace.h"

namespace stableshard::adversary {

namespace {

class TraceReplayStrategy final : public Strategy {
 public:
  explicit TraceReplayStrategy(traffic::Trace trace)
      : trace_(std::move(trace)) {}

  bool Next(Round round, Rng& rng, Candidate* out) override {
    (void)round;  // consumption order is the file order, not re-timed
    (void)rng;    // a replay draws nothing — determinism is the point
    if (cursor_ >= trace_.records.size()) return false;
    const traffic::TraceRecord& record = trace_.records[cursor_++];
    out->home = record.home;
    out->accesses.clear();
    out->accesses.reserve(record.accesses.size());
    for (const traffic::TraceAccess& access : record.accesses) {
      txn::AccessSpec spec;
      spec.account = access.account;
      spec.write = true;
      spec.action = {access.account, chain::ActionKind::kDeposit,
                     record.amount};
      if (access.poisoned) {
        spec.has_condition = true;
        spec.condition = {access.account, chain::CmpOp::kGe,
                          internal::kImpossibleThreshold};
      }
      out->accesses.push_back(spec);
    }
    return true;
  }

  const char* name() const override { return "trace_replay"; }

 private:
  traffic::Trace trace_;
  std::size_t cursor_ = 0;
};

const StrategyRegistrar registrar{
    "trace_replay",
    [](const core::SimConfig& config, StrategyDeps& deps) {
      (void)deps;
      SSHARD_CHECK(!config.trace.empty() &&
                   "trace_replay requires SimConfig::trace");
      traffic::Trace trace;
      std::string error;
      SSHARD_CHECK(traffic::LoadTraceFile(config.trace, &trace, &error) &&
                   "unparseable SimConfig::trace file");
      SSHARD_CHECK(trace.shards == config.shards &&
                   trace.accounts == config.accounts &&
                   "trace recorded for a different shard/account layout");
      return std::unique_ptr<Strategy>(
          std::make_unique<TraceReplayStrategy>(std::move(trace)));
    }};

}  // namespace
}  // namespace stableshard::adversary
