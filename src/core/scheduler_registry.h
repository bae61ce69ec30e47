// Scheduler registry: name -> builder, so schedulers plug into the engine
// without the engine naming them.
//
// Each scheduler translation unit self-registers at static-init time via a
// SchedulerRegistrar (see the bottom of bds.cc / fds.cc / direct.cc).
// Simulation looks the configured name up here, so adding a scheduler —
// in-tree or in an embedding application — requires zero engine edits:
// define the class, register a builder, set SimConfig::scheduler to the new
// name. The core library is linked as a CMake OBJECT library precisely so
// that these registrar objects are never dead-stripped.
//
// Builders receive the validated SimConfig plus a SchedulerDeps bundle of
// engine-owned runtime services. The hierarchy is provided as a lazy
// accessor: only schedulers that actually need a cluster decomposition pay
// for building one.
//
// Contract: Register must only run during static initialization or before
// any Simulation is constructed (the registry is not locked); duplicate
// names die. Build runs on the Simulation constructor's thread and may
// call deps.hierarchy() at most as a one-time construction cost; every
// dep outlives the built scheduler. The built Scheduler is then driven
// under the call-order/thread-ownership contract of core/scheduler.h —
// a registered scheduler automatically enters the matrix harness
// (tests/matrix_test.cc), so it must uphold the bit-identity-across-
// workers determinism obligation from day one. The Simulation constructor
// runs core::ConfigError before any builder; a builder that re-checks a
// limit for direct construction (e.g. backpressure's watermarks) dies via
// SSHARD_CHECK.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.h"
#include "core/config.h"
#include "core/scheduler.h"

namespace stableshard::cluster {
class Hierarchy;
}  // namespace stableshard::cluster

namespace stableshard::net {
class ShardMetric;
}  // namespace stableshard::net

namespace stableshard::core {

class CommitLedger;

/// Runtime services the engine hands to scheduler builders.
struct SchedulerDeps {
  const net::ShardMetric& metric;
  CommitLedger& ledger;
  /// Builds (once) and returns the cluster hierarchy configured by
  /// SimConfig::hierarchy with `top_roots` top-layer root clusters; the
  /// engine owns the result. In-tree builders pass SimConfig::fds_top_roots
  /// (1 = the classic single-top hierarchy); a second call with a different
  /// count dies (one hierarchy per simulation).
  std::function<const cluster::Hierarchy&(std::uint32_t top_roots)> hierarchy;
};

/// The shared common::Registry supplies Register / Contains / Build /
/// Names; unknown names abort with the sorted list of known schedulers.
class SchedulerRegistry final
    : public common::Registry<Scheduler, SimConfig, SchedulerDeps> {
 public:
  /// The process-wide registry (static-init safe).
  static SchedulerRegistry& Global();

 private:
  SchedulerRegistry() : Registry("scheduler") {}
};

/// Static-init helper: `const SchedulerRegistrar r{"name", builder};`
struct SchedulerRegistrar {
  SchedulerRegistrar(const std::string& name,
                     SchedulerRegistry::Builder builder) {
    SchedulerRegistry::Global().Register(name, std::move(builder));
  }
};

}  // namespace stableshard::core
