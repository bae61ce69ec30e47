// Traffic engine tests: the trace grammar (strict parse errors for every
// malformed shape the checksummed header is supposed to catch, and a seeded
// mutation suite over the tracked fixtures), the
// (rho, b) window bound of the token-bucket arrival schedule — unit level
// and engine level, churn faults included — the golden record→replay
// round-trip, open-loop bit-identity across workers/pipeline, and the
// hot_destination mid-run-burst regression (the PR-5 blind spot: a burst
// that lands before any traffic exists is invisible to admission control;
// an open-loop burst lands mid-run where the gate has live statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "durability/encoding.h"
#include "sim_test_util.h"
#include "traffic/arrival.h"
#include "traffic/injector.h"
#include "traffic/trace.h"

namespace stableshard {
namespace {

using core::SimConfig;
using core::SimResult;
using test::ExpectBitIdenticalProtocol;
using test::ExpectBitIdenticalResults;
using test::RunWithWorkers;

traffic::Trace SmallTrace() {
  traffic::Trace trace;
  trace.shards = 4;
  trace.accounts = 8;
  trace.records = {{0, 1, 5, {{1, false}, {6, false}}},
                   {0, 2, 5, {{2, true}}},
                   {3, 0, 5, {{4, false}, {3, false}, {0, false}}}};
  return trace;
}

std::string ParseError(const std::string& text) {
  traffic::Trace trace;
  std::string error;
  EXPECT_FALSE(traffic::ParseTrace(text, &trace, &error));
  return error;
}

TEST(TraceFormat, SerializeParseRoundTrip) {
  const traffic::Trace trace = SmallTrace();
  const std::string text = traffic::SerializeTrace(trace);
  traffic::Trace parsed;
  std::string error;
  ASSERT_TRUE(traffic::ParseTrace(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.shards, trace.shards);
  EXPECT_EQ(parsed.accounts, trace.accounts);
  ASSERT_EQ(parsed.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(parsed.records[i].round, trace.records[i].round);
    EXPECT_EQ(parsed.records[i].home, trace.records[i].home);
    EXPECT_EQ(parsed.records[i].amount, trace.records[i].amount);
    ASSERT_EQ(parsed.records[i].accesses.size(),
              trace.records[i].accesses.size());
    for (std::size_t j = 0; j < trace.records[i].accesses.size(); ++j) {
      EXPECT_EQ(parsed.records[i].accesses[j].account,
                trace.records[i].accesses[j].account);
      EXPECT_EQ(parsed.records[i].accesses[j].poisoned,
                trace.records[i].accesses[j].poisoned);
    }
  }
  // Serialize is canonical: a second round trip reproduces the exact bytes.
  EXPECT_EQ(traffic::SerializeTrace(parsed), text);
}

TEST(TraceFormat, UnknownVersionRejected) {
  std::string text = traffic::SerializeTrace(SmallTrace());
  const std::size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = '7';
  EXPECT_NE(ParseError(text).find("unsupported trace version"),
            std::string::npos);
}

TEST(TraceFormat, TruncatedTraceRejected) {
  std::string text = traffic::SerializeTrace(SmallTrace());
  text.resize(text.rfind("3 0 5"));  // drop the last record line
  EXPECT_NE(ParseError(text).find("truncated trace"), std::string::npos);
}

TEST(TraceFormat, TrailingDataRejected) {
  const std::string text =
      traffic::SerializeTrace(SmallTrace()) + "9 0 0 1\n";
  EXPECT_NE(ParseError(text).find("trailing data"), std::string::npos);
}

TEST(TraceFormat, ChecksumMismatchRejected) {
  std::string text = traffic::SerializeTrace(SmallTrace());
  // Flip one digit inside the record region (the trailing "0\n" of the
  // last line) — the record count still matches, only the bytes changed.
  text[text.size() - 2] = '7';
  EXPECT_NE(ParseError(text).find("checksum mismatch"), std::string::npos);
}

TEST(TraceFormat, OutOfOrderRoundsRejected) {
  traffic::Trace trace = SmallTrace();
  std::swap(trace.records[0], trace.records[2]);  // rounds 3, 0, 0
  // Serialize doesn't validate order (it checksums what it's given), so
  // the parser must be the one to reject the regression.
  EXPECT_NE(ParseError(traffic::SerializeTrace(trace))
                .find("record rounds must be non-decreasing"),
            std::string::npos);
}

TEST(TraceFormat, RangeAndShapeChecks) {
  traffic::Trace bad_home = SmallTrace();
  bad_home.records[0].home = 4;  // == shards
  EXPECT_NE(ParseError(traffic::SerializeTrace(bad_home))
                .find("home shard out of range"),
            std::string::npos);

  traffic::Trace bad_account = SmallTrace();
  bad_account.records[1].accesses[0].account = 8;  // == accounts
  EXPECT_NE(ParseError(traffic::SerializeTrace(bad_account))
                .find("account out of range"),
            std::string::npos);

  traffic::Trace no_accounts = SmallTrace();
  no_accounts.records[2].accesses.clear();
  EXPECT_NE(ParseError(traffic::SerializeTrace(no_accounts))
                .find("record lists no accounts"),
            std::string::npos);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The header ParseTrace expects over `body`, claiming `records` records
/// and carrying `body`'s true checksum: mutated record regions reach the
/// record parser instead of stopping at the checksum.
std::string WithHeader(const traffic::Trace& shape, const std::string& body,
                       std::uint64_t records) {
  const std::uint64_t checksum = durability::Fnv1a(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
  char header[160];
  std::snprintf(header, sizeof(header),
                "sshard-trace v1\nmeta shards=%llu accounts=%llu "
                "records=%llu checksum=%016llx\n",
                static_cast<unsigned long long>(shape.shards),
                static_cast<unsigned long long>(shape.accounts),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(checksum));
  return header + body;
}

/// Lines as ParseTrace counts them: '\n'-terminated, plus an unterminated
/// tail.
std::uint64_t LineCount(const std::string& body) {
  const auto newlines =
      static_cast<std::uint64_t>(std::count(body.begin(), body.end(), '\n'));
  return newlines + (!body.empty() && body.back() != '\n' ? 1 : 0);
}

TEST(TraceMutationTest, MutatedFixturesParseOrReject) {
  // Seeded flips, truncations and splices of the tracked trace fixtures.
  // Most trials re-checksum the mutated record region (and usually fix the
  // record count) so the mutation reaches the record parser; the rest
  // mutate the whole file, header included. The parser must either accept
  // a trace that keeps the format's invariants or reject it with a reason.
  std::vector<traffic::Trace> shapes;
  std::vector<std::string> bodies;
  for (const char* name : {"diurnal_t08", "diurnal_t12", "flash_t08",
                           "flash_t12", "migrating_t08", "migrating_t12"}) {
    const std::string text =
        ReadFile(std::string(SSHARD_TRACE_DIR) + "/" + name + ".trace");
    traffic::Trace trace;
    std::string error;
    ASSERT_TRUE(traffic::ParseTrace(text, &trace, &error)) << name << error;
    const std::size_t meta_end = text.find('\n', text.find('\n') + 1);
    ASSERT_NE(meta_end, std::string::npos);
    ASSERT_EQ(WithHeader(trace, text.substr(meta_end + 1),
                         trace.records.size()),
              text)
        << name;
    bodies.push_back(text.substr(meta_end + 1));
    shapes.push_back(std::move(trace));
  }

  // Record-line bytes plus a few the grammar does not use.
  const std::string alphabet = "0123456789 !-\nx";
  Rng rng(0x5eed'7ace'0014ULL);
  std::uint64_t parsed = 0;
  std::uint64_t rejected_past_checksum = 0;
  std::set<std::string> reasons;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t fixture = rng() % bodies.size();
    const traffic::Trace& shape = shapes[fixture];
    const bool whole_file = trial % 8 == 0;
    std::string bytes =
        whole_file ? WithHeader(shape, bodies[fixture], shape.records.size())
                   : bodies[fixture];
    const std::uint64_t edits = 1 + rng() % 3;
    for (std::uint64_t i = 0; i < edits; ++i) {
      switch (rng() % 3) {
        case 0:  // overwrite one byte with a record byte or any byte
          if (bytes.empty()) break;
          bytes[rng() % bytes.size()] =
              rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                             : alphabet[rng() % alphabet.size()];
          break;
        case 1:  // truncate
          bytes.resize(rng() % (bytes.size() + 1));
          break;
        default: {  // splice a slice of any fixture's records in anywhere
          const std::string& donor = bodies[rng() % bodies.size()];
          const std::size_t from = rng() % donor.size();
          const std::size_t length =
              std::min<std::size_t>(rng() % 200, donor.size() - from);
          bytes.insert(rng() % (bytes.size() + 1), donor, from, length);
          break;
        }
      }
    }
    if (!whole_file) {
      bytes = WithHeader(shape, bytes,
                         rng() % 4 == 0 ? shape.records.size()
                                        : LineCount(bytes));
    }

    traffic::Trace trace;
    std::string error;
    if (traffic::ParseTrace(bytes, &trace, &error)) {
      ++parsed;
      EXPECT_EQ(trace.shards, shape.shards);
      EXPECT_EQ(trace.accounts, shape.accounts);
      for (std::size_t r = 0; r < trace.records.size(); ++r) {
        const traffic::TraceRecord& record = trace.records[r];
        if (r > 0) {
          EXPECT_GE(record.round, trace.records[r - 1].round);
        }
        EXPECT_LT(record.home, trace.shards);
        EXPECT_FALSE(record.accesses.empty());
        for (const traffic::TraceAccess& access : record.accesses) {
          EXPECT_LT(access.account, trace.accounts);
        }
      }
    } else {
      EXPECT_FALSE(error.empty());
      reasons.insert(error.substr(0, error.find_first_of(":0123456789")));
      if (error != "checksum mismatch" &&
          error.rfind("truncated trace", 0) != 0 &&
          error.rfind("trailing data", 0) != 0) {
        ++rejected_past_checksum;
      }
    }
  }
  // The seed must reach accepted traces and rejections from the record
  // parser itself, or the test proves nothing.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected_past_checksum, 0u);
  EXPECT_EQ(reasons.count("record rounds must be non-decreasing"), 1u);
  EXPECT_EQ(reasons.count("malformed record"), 1u);
  EXPECT_GE(reasons.size(), 8u);
}

// The exact burst constant the engine's schedule uses, replicated from the
// striping rule: ceil(rate) lanes, each with capacity >= 1.
double EffectiveBurst(double rate, double burst) {
  const double lanes =
      std::max(1.0, std::ceil(rate));
  return lanes * std::max(burst / lanes, 1.0);
}

TEST(TokenBucketArrivals, WindowBoundHoldsThroughTheBurst) {
  const double rate = 2.5, burst = 20;
  traffic::TokenBucketArrivals schedule(rate, burst, /*burst_round=*/50,
                                        /*horizon=*/200);
  EXPECT_DOUBLE_EQ(schedule.effective_burst(), EffectiveBurst(rate, burst));
  std::uint64_t cumulative = 0, at_burst = 0;
  for (Round round = 0; round < 200; ++round) {
    cumulative += schedule.ArrivalsAt(round);
    if (round == 50) at_burst = cumulative;
    // The (rho, b) window bound, from round 0: arrivals in the first t+1
    // rounds never exceed rate * (t+1) + effective_burst.
    EXPECT_LE(static_cast<double>(cumulative),
              rate * static_cast<double>(round + 1) +
                  schedule.effective_burst() + 1e-9)
        << "round " << round;
  }
  // The burst actually fires: round 50 releases the banked bucket capacity
  // in one clump, far above the paced per-round emission.
  EXPECT_GE(at_burst, static_cast<std::uint64_t>(burst));
  EXPECT_FALSE(schedule.Exhausted(199));
  EXPECT_TRUE(schedule.Exhausted(200));
}

TEST(TokenBucketArrivals, PacedStreamTracksTheRate) {
  const double rate = 1.75;
  traffic::TokenBucketArrivals schedule(rate, /*burst=*/8, kNoRound,
                                        /*horizon=*/400);
  std::uint64_t cumulative = 0;
  for (Round round = 0; round < 400; ++round) {
    const std::uint64_t arrivals = schedule.ArrivalsAt(round);
    EXPECT_LE(arrivals, static_cast<std::uint64_t>(rate) + 1);
    cumulative += arrivals;
  }
  // No burst ever fires: the paced accumulator emits the rate to within
  // rounding over any long window.
  EXPECT_NEAR(static_cast<double>(cumulative), rate * 400, rate + 1.0);
}

TEST(TraceArrivals, CountsRecordsPerRound) {
  traffic::TraceArrivals schedule(SmallTrace());
  EXPECT_EQ(schedule.ArrivalsAt(0), 2u);
  EXPECT_EQ(schedule.ArrivalsAt(1), 0u);
  EXPECT_FALSE(schedule.Exhausted(2));
  EXPECT_EQ(schedule.ArrivalsAt(2), 0u);
  EXPECT_EQ(schedule.ArrivalsAt(3), 1u);
  EXPECT_TRUE(schedule.Exhausted(4));
}

SimConfig OpenLoopConfig(const std::string& scheduler) {
  SimConfig config = test::SmallConfig(scheduler);
  config.rounds = 400;
  config.arrival_rate = 1.7;
  config.arrival_burst = 12;
  config.burst_round = 150;  // open loop: the clump lands mid-run
  return config;
}

// Engine level: the offered-load series the injector records must obey the
// (rho, b) window bound round by round — from round 0 and over every
// window, since the bound is an invariant of the token buckets, not an
// average.
void ExpectOfferedWindowBound(const core::Simulation& sim, double rate,
                              double burst) {
  const std::vector<std::uint64_t>* series =
      sim.injector().offered_series();
  ASSERT_NE(series, nullptr);
  const double bound_burst = EffectiveBurst(rate, burst);
  std::vector<double> prefix(series->size() + 1, 0.0);
  for (std::size_t i = 0; i < series->size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<double>((*series)[i]);
  }
  for (std::size_t lo = 0; lo < series->size(); ++lo) {
    for (std::size_t hi = lo + 1; hi <= series->size(); ++hi) {
      EXPECT_LE(prefix[hi] - prefix[lo],
                rate * static_cast<double>(hi - lo) + bound_burst + 1e-9)
          << "window [" << lo << ", " << hi << ")";
    }
  }
}

TEST(OpenLoopEngine, OfferedLoadObeysWindowBound) {
  const SimConfig config = OpenLoopConfig("fds");
  core::Simulation sim(config);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.offered_txns, result.injected_txns);
  EXPECT_GT(result.offered_txns, 0u);
  ExpectOfferedWindowBound(sim, config.arrival_rate, config.arrival_burst);
}

TEST(OpenLoopEngine, OfferedLoadObeysWindowBoundDuringChurn) {
  SimConfig config = OpenLoopConfig("fds");
  config.wal = true;
  config.checkpoint_interval = 100;
  config.faults = "3@120+8,9@250+5";
  core::Simulation sim(config);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.recovery_rounds, 0u);
  // Arrivals do not pause for a crashed shard: the stalled wall rounds
  // accrue backlog, visible as a nonzero injection lag peak, and the
  // window bound keeps holding across the outage (the schedule ticks on
  // wall rounds, stalls included).
  EXPECT_GT(result.inject_lag_peak, 0u);
  EXPECT_EQ(result.offered_txns, result.injected_txns);
  ExpectOfferedWindowBound(sim, config.arrival_rate, config.arrival_burst);
}

TEST(OpenLoopEngine, BitIdenticalAcrossWorkersAndPipelineUnderChurn) {
  // The pre-generation hazard cell: open loop + a fault plan means the
  // pipelined epilogue must suppress the overlapped Generate at fault
  // boundaries (arrivals accrue during the stall *before* the next
  // generation pulls them) — any ordering slip shows up here as a
  // worker/pipeline-dependent result.
  SimConfig config = OpenLoopConfig("fds");
  config.wal = true;
  config.checkpoint_interval = 100;
  config.faults = "3@120+8,9@250+5";
  const SimResult serial = RunWithWorkers(config, 1);
  ASSERT_TRUE(serial.drained);
  ExpectBitIdenticalResults(serial, RunWithWorkers(config, 4));
  SimConfig unpipelined = config;
  unpipelined.pipeline = false;
  ExpectBitIdenticalResults(serial, RunWithWorkers(unpipelined, 4));
}

TEST(GoldenTrace, RecordReplayReproducesTheRunBitIdentically) {
  // Record a closed-loop run (abort path included, so poisoned accesses
  // round-trip through the '!' grammar), then replay the trace open-loop:
  // same transactions, same rounds, same order — every protocol field of
  // the SimResult must match, across workers and pipeline modes.
  const std::string path = ::testing::TempDir() + "golden_roundtrip.trace";
  SimConfig recorded = test::SmallConfig("fds");
  recorded.rounds = 600;
  recorded.abort_probability = 0.2;
  recorded.trace_out = path;
  const SimResult closed = RunWithWorkers(recorded, 1);
  ASSERT_TRUE(closed.drained);
  ASSERT_GT(closed.injected, 0u);
  EXPECT_GT(closed.aborted, 0u);

  SimConfig replay = test::SmallConfig("fds");
  replay.rounds = 600;
  replay.strategy = "trace_replay";
  replay.trace = path;
  for (const std::uint32_t workers : {1u, 4u}) {
    for (const bool pipeline : {true, false}) {
      SCOPED_TRACE("workers " + std::to_string(workers) +
                   (pipeline ? " pipelined" : " serial"));
      SimConfig config = replay;
      config.pipeline = pipeline;
      const SimResult replayed = RunWithWorkers(config, workers);
      EXPECT_EQ(replayed.committed, closed.committed);
      EXPECT_EQ(replayed.aborted, closed.aborted);
      ExpectBitIdenticalProtocol(closed, replayed);
    }
  }
}

TEST(HotDestination, MidRunBurstIsShedByAdmissionControl) {
  // Regression for the closed-loop blind spot: the adversary's one-shot
  // burst lands at round 0, before any traffic exists, so the watermark
  // gate has no signal to shed it with. Open-loop, the same b-sized clump
  // lands at burst_round = 150 into a live queue — the gate must see it
  // (spill engages) and cut the hot leader's queue peak below plain fds.
  SimConfig base = test::SmallConfig("fds");
  base.shards = 32;
  base.accounts = 32;
  base.account_assignment = core::AccountAssignment::kRoundRobin;
  base.strategy = "hot_destination";
  base.zipf_theta = 1.2;
  base.rounds = 400;
  base.arrival_rate = 1.5;
  base.arrival_burst = 64;
  base.burst_round = 150;
  base.drain_cap = 200000;
  base.backpressure_high = 48;
  base.backpressure_low = 12;

  const SimResult fds = RunWithWorkers(base, 1);
  SimConfig shed = base;
  shed.scheduler = "backpressure";
  const SimResult bp = RunWithWorkers(shed, 1);

  for (const SimResult* result : {&fds, &bp}) {
    ASSERT_TRUE(result->drained);
    EXPECT_EQ(result->unresolved, 0u);
    EXPECT_EQ(result->injected,
              result->committed + result->aborted + result->unresolved);
  }
  // Shedding defers, never drops.
  EXPECT_EQ(bp.committed, fds.committed);
  // The gate saw the mid-run burst: admissions were actually parked...
  EXPECT_GT(bp.spill_peak, 0u);
  // ...and the hot destination's queue peak came down.
  EXPECT_LT(bp.max_leader_queue, fds.max_leader_queue);
}

}  // namespace
}  // namespace stableshard
