// Traced replica of core::Simulation: the same construction and round loop,
// rebuilt from the library's public API, with a wall-clock span around every
// call into a layer.
//
// The engine's loop is private, so the per-layer split cannot be read off
// Simulation::Run(). This driver follows engine.cc step for step — the
// Scheduler call order of core/scheduler.h, the pipelined epilogue with the
// next round's generation overlapped on the driving thread, the fault
// executor, the checkpoint cadence and the rule that suppresses open-loop
// pre-generation at a fault boundary — and times each call. The harness
// proves it is the same program by requiring its SimResult to equal
// Simulation::Run()'s field for field (ResultsIdentical).
//
// Timing never feeds back into the run: every clock read lands in a
// LayerSplit, which nothing in the loop consults.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"

namespace perfbench {

/// Per-layer decomposition of one traced run. Driving-thread spans are
/// self times: a span's duration minus the child spans inside it (only the
/// pipelined epilogue has one — the overlapped generation), so the
/// driving-thread fields sum to the loop wall less untimed glue.
struct LayerSplit {
  // Driving-thread self times (seconds).
  double gen_s = 0;           ///< Injector::GenerateRound + OnStalledRound
  double register_s = 0;     ///< CommitLedger::RegisterInjection
  double inject_s = 0;       ///< Scheduler::Inject
  double begin_s = 0;        ///< Scheduler::BeginRound
  double step_wall_s = 0;    ///< StepShard fan-out, wall
  double epilogue_self_s = 0;  ///< EndRound, or Seal+flush region+Finish,
                               ///< less the overlapped generation
  double sample_s = 0;       ///< pending / leader-queue / spill sampling
  double checkpoint_s = 0;   ///< durability::WriteCheckpoint
  double recover_s = 0;      ///< fault execution less its stalled rounds
  double loop_wall_s = 0;    ///< the whole round loop, drain included

  // Sub-spans (already inside a field above).
  double epilogue_wall_s = 0;  ///< whole epilogue, overlapped gen included
  double finish_s = 0;         ///< FinishRound (pipelined) or EndRound
  double step_busy_s = 0;      ///< sum of all StepShard calls
  double step_critical_s = 0;  ///< sum over rounds of the slowest StepShard
  double flush_busy_s = 0;     ///< sum of FlushRoundPartition calls

  // Fork/join accounting. A region is one fan-out (StepShard or flush
  // partitions); the serial step loop is a one-worker region.
  std::vector<double> worker_busy_s;  ///< per worker (driving thread if 1)
  double region_capacity_s = 0;       ///< sum of workers x region wall
  std::uint64_t regions = 0;
  std::uint64_t protocol_rounds = 0;

  // Counts and footprints.
  std::uint64_t gen_txns = 0;
  std::uint64_t ring_capacity_peak_bytes = 0;    ///< NetworkMemory
  std::uint64_t outbox_capacity_peak_bytes = 0;  ///< OutboxMemory
  std::uint64_t arena_reserved_peak_bytes = 0;   ///< ArenaMemory
  std::uint64_t arena_resets = 0;

  /// Sum of the driving-thread self times.
  double SelfSum() const;
};

struct TracedRun {
  stableshard::core::SimResult result;
  LayerSplit split;
  double setup_s = 0;  ///< wall time of the replica's construction
};

/// Build and run `config` through the traced replica.
TracedRun RunTraced(const stableshard::core::SimConfig& config);

/// Every SimResult field equal, doubles bit for bit.
bool ResultsIdentical(const stableshard::core::SimResult& a,
                      const stableshard::core::SimResult& b);

}  // namespace perfbench
