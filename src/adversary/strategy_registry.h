// Strategy registry: name -> builder, so adversary workloads plug into the
// engine without the engine naming them — the exact mirror of
// core::SchedulerRegistry (see core/scheduler_registry.h).
//
// The space of (rho, b)-admissible adversaries is over-exponential (paper
// Section 7), so scenario coverage comes from concrete pluggable
// strategies. Each strategy translation unit self-registers at static-init
// time via a StrategyRegistrar (see the bottom of uniform_random.cc,
// hotspot.cc, ...). Simulation looks SimConfig::strategy up here, so
// adding a workload — in-tree or in an embedding application — requires
// zero engine edits: define the class, register a builder, set
// SimConfig::strategy to the new name. The core library is linked as a
// CMake OBJECT library precisely so these registrar objects are never
// dead-stripped.
//
// Builders receive the validated SimConfig plus a StrategyDeps bundle of
// engine-owned runtime services (account partition, shard metric, and a
// seeded Rng for construction-time randomness).
//
// Contract: Register must only run during static initialization or before
// any Simulation is constructed (the registry is not locked); duplicate
// names die. Build runs on the Simulation constructor's thread; the built
// Strategy is driven exclusively from serial engine phases (GenerateRound
// on the driving thread — possibly overlapped with the pooled flush,
// which touches no adversary state), so strategies need no internal
// synchronization. Determinism obligation: a builder must derive all
// randomness from the deps it is handed (config seed / deps.rng), never
// from ambient state — the registry is what makes scheduler x strategy
// cells reproducible across processes in the matrix harness.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/strategy.h"
#include "common/registry.h"
#include "common/rng.h"

namespace stableshard::core {
struct SimConfig;
}  // namespace stableshard::core

namespace stableshard::adversary {

/// Runtime services the engine hands to strategy builders.
struct StrategyDeps {
  const chain::AccountMap& accounts;
  const net::ShardMetric& metric;
  /// Engine-owned, already seeded from SimConfig::seed. None of the
  /// in-tree builders draw from it (their constructions are closed-form),
  /// but randomized workloads (e.g. a sampled hot set) may.
  Rng& rng;
};

/// The shared common::Registry supplies Register / Contains / Build /
/// Names; unknown names abort with the sorted list of known strategies.
class StrategyRegistry final
    : public common::Registry<Strategy, core::SimConfig, StrategyDeps> {
 public:
  /// The process-wide registry (static-init safe).
  static StrategyRegistry& Global();

 private:
  StrategyRegistry() : Registry("strategy") {}
};

/// Static-init helper: `const StrategyRegistrar r{"name", builder};`
struct StrategyRegistrar {
  StrategyRegistrar(const std::string& name,
                    StrategyRegistry::Builder builder) {
    StrategyRegistry::Global().Register(name, std::move(builder));
  }
};

}  // namespace stableshard::adversary
