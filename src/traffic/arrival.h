// Arrival schedules: wall rounds → transaction arrival counts.
//
// The open-loop injector (injector.h) separates *when* transactions arrive
// from *what* they look like: an ArrivalSchedule decides per-wall-round
// arrival counts independent of commit progress, and a registered Strategy
// shapes each arrival. Two schedules ship in-tree:
//
//  - TokenBucketArrivals drives the paper's (rho, b) adversarial-rate model
//    with the seed's token buckets: arrivals in any window of t rounds are
//    bounded by rate * t + effective_burst() by bucket invariant, the rate
//    is paced in txns/round whatever the protocol is doing, and the burst
//    is released as one b-sized clump at `burst_round` — which, unlike the
//    closed-loop adversary's round-0 preload, can land mid-run where an
//    admission-control gate has live traffic statistics to react with.
//  - TraceArrivals replays the per-round record counts of a parsed trace
//    (trace.h); paired with the `trace_replay` strategy it reproduces a
//    recorded injection stream bit-identically.
//
// Determinism: schedules are pure functions of their construction
// parameters and the call sequence — ArrivalsAt is called exactly once per
// wall round in increasing order (enforced), so the same config yields the
// same arrival sequence whatever the worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/token_bucket.h"
#include "common/types.h"
#include "traffic/trace.h"

namespace stableshard::traffic {

class ArrivalSchedule {
 public:
  virtual ~ArrivalSchedule() = default;

  /// Transactions arriving on wall round `round`. Must be called once per
  /// round in strictly increasing order starting at 0 (stalled rounds
  /// included — arrivals do not pause for a crashed shard).
  virtual std::uint64_t ArrivalsAt(Round round) = 0;

  /// True once no round >= `round` can produce arrivals.
  virtual bool Exhausted(Round round) const = 0;
};

/// The (rho, b) open-loop schedule. `rate` is aggregate transactions per
/// round (any positive value — internally striped across ceil(rate)
/// buckets, since each adversary::TokenBucketArray lane refills at most 1
/// token per round), `burst` is the clump size bound b, `burst_round` is
/// when the clump is released (kNoRound = never, pure paced stream) and
/// `horizon` is the last round that produces arrivals (typically
/// SimConfig::rounds).
///
/// Before the burst the stream is paced: a fractional accumulator emits
/// floor-of-rate arrivals per round while the buckets stay full. From
/// `burst_round` on it turns greedy — every available token is spent, so
/// the full bucket capacity (≈ b arrivals) lands at once and the stream
/// settles back to `rate` per round as refill becomes the binding
/// constraint. Either way every arrival consumes a token, so the window
/// bound  arrivals(any t rounds) <= rate * t + effective_burst()  holds
/// exactly by the bucket invariant.
class TokenBucketArrivals final : public ArrivalSchedule {
 public:
  TokenBucketArrivals(double rate, double burst, Round burst_round,
                      Round horizon);

  std::uint64_t ArrivalsAt(Round round) override;
  bool Exhausted(Round round) const override { return round >= horizon_; }

  double rate() const { return rate_; }
  /// The exact burst constant of the window bound: lane count * lane
  /// capacity (>= the configured b; striping rounds each lane's capacity
  /// up to 1 so every lane can always hold a whole token).
  double effective_burst() const;

 private:
  double rate_;
  adversary::TokenBucketArray lanes_;
  Round burst_round_;
  Round horizon_;
  Round next_round_ = 0;        ///< increasing-call-order enforcement
  double paced_accumulator_ = 0;
  ShardId lane_cursor_ = 0;     ///< round-robin consumption start
  std::vector<ShardId> pick_;   ///< one-lane scratch for Consume
};

/// Replays the per-round arrival counts of a parsed trace. Records may
/// extend past SimConfig::rounds — the engine keeps injecting during what
/// used to be pure drain rounds until the schedule is exhausted.
class TraceArrivals final : public ArrivalSchedule {
 public:
  explicit TraceArrivals(const Trace& trace);

  std::uint64_t ArrivalsAt(Round round) override;
  bool Exhausted(Round round) const override {
    (void)round;
    return cursor_ >= rounds_.size();
  }

 private:
  std::vector<Round> rounds_;  ///< one entry per record, non-decreasing
  std::size_t cursor_ = 0;
  Round next_round_ = 0;  ///< increasing-call-order enforcement
};

}  // namespace stableshard::traffic
