// The engine's injection seam: closed-loop (the classic adversary batch
// per protocol round) vs open-loop (arrival-time-driven, decoupled from
// commit progress).
//
// The engine drives exactly one Injector:
//  - GenerateRound(round, out) once per live protocol round, in increasing
//    round order, from the serial generation phase (possibly overlapped
//    with the previous round's pooled flush — injectors touch no
//    scheduler state, so the overlap is race-free);
//  - OnStalledRound() once per wall round the protocol clock is frozen by
//    a crash outage/replay. The closed-loop adversary generates nothing
//    while the world is stalled (its clock *is* the protocol clock); the
//    open-loop schedule keeps producing arrivals, which accrue as backlog
//    and flood in when the protocol resumes — inject_lag_peak records how
//    deep that backlog got.
//  - Exhausted() gates the drain phase: the engine keeps generating during
//    former drain rounds until the schedule has nothing left (trace
//    records may extend past SimConfig::rounds).
//
// Closed-loop is the default and is byte-identical to the pre-traffic
// engine: same adversary, same call sequence, same transactions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/strategy.h"
#include "chain/account_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "traffic/arrival.h"
#include "txn/transaction.h"
#include "txn/txn_factory.h"

namespace stableshard::traffic {

/// Serial-phase hook recording each admitted transaction's spec (round,
/// home, account accesses) — the TraceWriter's feed. Specs, not built
/// Transactions: the factory groups accesses per shard, so only the spec
/// preserves the exact order replay needs.
using InjectionRecorder = std::function<void(
    Round, ShardId, const std::vector<txn::AccessSpec>&)>;

class Injector {
 public:
  virtual ~Injector() = default;

  /// Generate `round`'s injections into `out` (cleared first). Called once
  /// per live protocol round in increasing order.
  virtual void GenerateRound(Round round,
                             std::vector<txn::Transaction>& out) = 0;

  /// One wall round elapsed with the protocol clock frozen (crash outage /
  /// replay / catch-up).
  virtual void OnStalledRound() {}

  /// True once no future round can produce arrivals (the drain phase may
  /// stop generating).
  virtual bool Exhausted() const = 0;

  /// Arrivals the schedule produced (== injected for closed-loop).
  virtual std::uint64_t offered() const = 0;
  /// Transactions actually handed to the engine.
  virtual std::uint64_t injected() const = 0;
  /// Peak arrivals waiting out a protocol stall (0 when fault-free or
  /// closed-loop).
  virtual std::uint64_t lag_peak() const = 0;

  /// Per-wall-round offered counts, when the injector tracks them
  /// (open-loop only — the window-bound tests assert the rho*t + b
  /// invariant against this series).
  virtual const std::vector<std::uint64_t>* offered_series() const {
    return nullptr;
  }
};

/// The pre-traffic default: forwards to the engine-owned adversary, one
/// batch per protocol round, nothing during stalls, exhausted once the
/// injection phase's `horizon` rounds have been generated.
class ClosedLoopInjector final : public Injector {
 public:
  ClosedLoopInjector(adversary::Adversary& adversary, Round horizon)
      : adversary_(&adversary), horizon_(horizon) {}

  void GenerateRound(Round round, std::vector<txn::Transaction>& out) override;
  bool Exhausted() const override { return generated_ >= horizon_; }
  std::uint64_t offered() const override {
    return adversary_->stats().injected;
  }
  std::uint64_t injected() const override {
    return adversary_->stats().injected;
  }
  std::uint64_t lag_peak() const override { return 0; }

 private:
  adversary::Adversary* adversary_;
  Round horizon_;
  Round generated_ = 0;
};

/// Arrival-time-driven injection: an ArrivalSchedule decides how many
/// transactions land on each wall round, the Strategy decides only their
/// shape. Deterministic tie-break/order: arrivals of one round are drawn
/// and injected in strictly increasing transaction-id order (the factory's
/// monotonic counter), so the stream is reproducible bit-for-bit.
class OpenLoopInjector final : public Injector {
 public:
  OpenLoopInjector(std::unique_ptr<ArrivalSchedule> schedule,
                   std::unique_ptr<adversary::Strategy> strategy,
                   const chain::AccountMap& map, std::uint64_t seed);

  void set_recorder(InjectionRecorder recorder) {
    recorder_ = std::move(recorder);
  }

  void GenerateRound(Round round, std::vector<txn::Transaction>& out) override;
  void OnStalledRound() override;
  bool Exhausted() const override {
    return backlog_ == 0 && schedule_->Exhausted(wall_cursor_);
  }
  std::uint64_t offered() const override { return offered_; }
  std::uint64_t injected() const override { return injected_; }
  std::uint64_t lag_peak() const override { return lag_peak_; }
  const std::vector<std::uint64_t>* offered_series() const override {
    return &offered_series_;
  }

  const adversary::Strategy& strategy() const { return *strategy_; }

 private:
  /// Pull this wall round's arrival count and fold it into the counters.
  std::uint64_t PullArrivals();

  std::unique_ptr<ArrivalSchedule> schedule_;
  std::unique_ptr<adversary::Strategy> strategy_;
  txn::TxnFactory factory_;
  Rng rng_;
  InjectionRecorder recorder_;
  Round wall_cursor_ = 0;     ///< wall rounds consumed from the schedule
  std::uint64_t backlog_ = 0; ///< arrivals waiting out a protocol stall
  std::uint64_t offered_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t lag_peak_ = 0;
  std::vector<std::uint64_t> offered_series_;
};

}  // namespace stableshard::traffic
