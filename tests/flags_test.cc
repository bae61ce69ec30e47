// Unit tests for the command-line flag parser used by simulate_cli, plus
// core::ConfigError, the one SimConfig check the CLIs exit 2 on and the
// Simulation constructor aborts on.
#include <gtest/gtest.h>

#include <cmath>

#include "common/flags.h"
#include "core/config.h"

namespace stableshard {
namespace {

Flags ParseAll(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Flags flags;
  EXPECT_TRUE(flags.Parse(static_cast<int>(args.size()), args.data()));
  return flags;
}

TEST(Flags, EqualsSyntax) {
  const auto flags = ParseAll({"--rho=0.15", "--shards=64", "--name=x"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rho", 0), 0.15);
  EXPECT_EQ(flags.GetInt("shards", 0), 64);
  EXPECT_EQ(flags.GetString("name", ""), "x");
}

TEST(Flags, SpaceSyntax) {
  const auto flags = ParseAll({"--rho", "0.2", "--scheduler", "fds"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rho", 0), 0.2);
  EXPECT_EQ(flags.GetString("scheduler", ""), "fds");
}

TEST(Flags, BooleanFlags) {
  const auto flags = ParseAll({"--pinned", "--verbose", "--opt=false"});
  EXPECT_TRUE(flags.GetBool("pinned", false));
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("opt", true));
  EXPECT_TRUE(flags.GetBool("absent", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(Flags, Positional) {
  const auto flags = ParseAll({"run", "--x=1", "file.csv"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"run", "file.csv"}));
}

TEST(Flags, Fallbacks) {
  const auto flags = ParseAll({});
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("missing", "d"), "d");
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(Flags, UnreadDetection) {
  const auto flags = ParseAll({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("used", 0), 1);
  const auto unread = flags.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

TEST(Flags, BareDashesRejected) {
  const char* args[] = {"prog", "--"};
  Flags flags;
  EXPECT_FALSE(flags.Parse(2, args));
  EXPECT_FALSE(flags.error().empty());
}

TEST(Flags, NonNumericIntIsAnError) {
  const auto flags = ParseAll({"--rounds=abc"});
  EXPECT_TRUE(flags.ok());  // errors are recorded lazily, at read time
  EXPECT_EQ(flags.GetInt("rounds", 7), 7);  // fallback, never garbage
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("rounds"), std::string::npos);
  EXPECT_NE(flags.error().find("abc"), std::string::npos);
}

TEST(Flags, TrailingGarbageIntIsAnError) {
  const auto flags = ParseAll({"--shards=12x", "--seed="});
  EXPECT_EQ(flags.GetInt("shards", 3), 3);
  EXPECT_FALSE(flags.ok());
  // Empty values are misparses too (e.g. a stray "--seed=").
  EXPECT_EQ(flags.GetInt("seed", 5), 5);
}

TEST(Flags, IntOverflowIsAnError) {
  const auto flags = ParseAll({"--n=99999999999999999999999999"});
  EXPECT_EQ(flags.GetInt("n", 1), 1);
  EXPECT_FALSE(flags.ok());
}

TEST(Flags, ValidNegativeAndSignedIntsParse) {
  const auto flags = ParseAll({"--a=-5", "--b=+17"});
  EXPECT_EQ(flags.GetInt("a", 0), -5);
  EXPECT_EQ(flags.GetInt("b", 0), 17);
  EXPECT_TRUE(flags.ok());
}

TEST(Flags, NonNumericDoubleIsAnError) {
  const auto flags = ParseAll({"--rho=fast", "--b=1.5.2"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rho", 0.25), 0.25);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("rho"), std::string::npos);
  EXPECT_DOUBLE_EQ(flags.GetDouble("b", 2.0), 2.0);
  // First error wins: the message still names rho.
  EXPECT_NE(flags.error().find("rho"), std::string::npos);
}

TEST(Flags, ScientificNotationDoubleParses) {
  const auto flags = ParseAll({"--rho=1e-2"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rho", 0), 0.01);
  EXPECT_TRUE(flags.ok());
}

TEST(Flags, UintRejectsNegativeValues) {
  // strtoull would silently wrap "-1" to 2^64 - 1: --rounds=-1 must be a
  // hard error, not an effectively-infinite simulation.
  const auto flags = ParseAll({"--rounds=-1", "--shards=42"});
  EXPECT_EQ(flags.GetUint("shards", 0), 42u);
  EXPECT_TRUE(flags.ok());
  EXPECT_EQ(flags.GetUint("rounds", 7), 7u);
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("non-negative"), std::string::npos);
}

TEST(Flags, DoubleRejectsNanAndInf) {
  const auto flags = ParseAll({"--rho=nan"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("rho", 0.1), 0.1);
  EXPECT_FALSE(flags.ok());
  const auto flags2 = ParseAll({"--b=inf"});
  EXPECT_DOUBLE_EQ(flags2.GetDouble("b", 500.0), 500.0);
  EXPECT_FALSE(flags2.ok());
}

TEST(Flags, DoubleUnderflowIsNotAnErrorButOverflowIs) {
  const auto flags = ParseAll({"--tiny=1e-320", "--huge=1e999"});
  // Underflow yields a usable denormal (glibc sets ERANGE anyway).
  EXPECT_GT(flags.GetDouble("tiny", -1.0), 0.0);
  EXPECT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("huge", 2.5), 2.5);
  EXPECT_FALSE(flags.ok());
}

TEST(Flags, MalformedBoolIsAnError) {
  const auto flags = ParseAll({"--opt=maybe"});
  EXPECT_TRUE(flags.GetBool("opt", true));  // fallback
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("boolean"), std::string::npos);
}

// One row per condition core::ConfigError checks: the field change and
// the start of the line it must return ("" = usable). The CLIs print that
// line and exit 2, and the cli_*_exits_2 ctests grep it.
TEST(ConfigError, OneRowPerCondition) {
  using core::SimConfig;
  const struct {
    const char* name;
    void (*edit)(SimConfig&);
    const char* expected;
  } cases[] = {
      {"default", [](SimConfig&) {}, ""},
      {"shards", [](SimConfig& c) { c.shards = 0; }, "invalid shards: "},
      {"accounts", [](SimConfig& c) { c.accounts = 0; }, "invalid accounts: "},
      {"k", [](SimConfig& c) { c.k = 0; }, "invalid k: "},
      {"rho zero", [](SimConfig& c) { c.rho = 0; }, "invalid rho: "},
      {"rho above one", [](SimConfig& c) { c.rho = 1.5; }, "invalid rho: "},
      {"rho nan", [](SimConfig& c) { c.rho = std::nan(""); }, "invalid rho: "},
      {"rho one", [](SimConfig& c) { c.rho = 1.0; }, ""},
      {"b", [](SimConfig& c) { c.burstiness = 0; }, "invalid b: "},
      {"workers", [](SimConfig& c) { c.worker_threads = 0; },
       "invalid workers: "},
      {"scheduler", [](SimConfig& c) { c.scheduler = "nope"; },
       "unknown --scheduler=nope; registered: backpressure bds direct fds"},
      {"strategy", [](SimConfig& c) { c.strategy = "nope"; },
       "unknown --strategy=nope; registered: diameter_span hot_destination"},
      {"dsatur coloring",
       [](SimConfig& c) { c.coloring = txn::ColoringAlgorithm::kDsatur; },
       "invalid coloring: "},
      {"welsh-powell coloring",
       [](SimConfig& c) {
         c.coloring = txn::ColoringAlgorithm::kWelshPowell;
       },
       ""},
      {"zipf", [](SimConfig& c) { c.zipf_theta = -1; }, "invalid zipf: "},
      {"arrival rate", [](SimConfig& c) { c.arrival_rate = -1; },
       "invalid arrival-rate: need --arrival-rate >= 0"},
      {"arrival burst",
       [](SimConfig& c) {
         c.arrival_rate = 2;
         c.arrival_burst = 0.5;
       },
       "invalid arrival-rate: open loop needs --burst >= 1"},
      {"replay without trace",
       [](SimConfig& c) { c.strategy = "trace_replay"; },
       "invalid trace: --strategy=trace_replay requires --trace"},
      {"trace without replay", [](SimConfig& c) { c.trace = "t.trace"; },
       "invalid trace: --trace requires --strategy=trace_replay"},
      {"trace and rate",
       [](SimConfig& c) {
         c.trace = "t.trace";
         c.strategy = "trace_replay";
         c.arrival_rate = 2;
       },
       "invalid trace: --trace and --arrival-rate are exclusive"},
      // The file is not read: traffic::ValidateTraceFile checks it.
      {"missing trace file",
       [](SimConfig& c) {
         c.trace = "/nonexistent.trace";
         c.strategy = "trace_replay";
       },
       ""},
      {"bds color leaders", [](SimConfig& c) { c.bds_color_leaders = 0; },
       "invalid bds-color-leaders: "},
      {"many color leaders",
       [](SimConfig& c) { c.bds_color_leaders = 1u << 20; }, ""},
      {"fds top roots", [](SimConfig& c) { c.fds_top_roots = 0; },
       "invalid fds-top-roots: "},
      {"inverted watermarks",
       [](SimConfig& c) {
         c.backpressure_low = 9;
         c.backpressure_high = 1;
       },
       "invalid backpressure watermarks: "},
      {"zero high watermark",
       [](SimConfig& c) {
         c.backpressure_low = 0;
         c.backpressure_high = 0;
       },
       "invalid backpressure watermarks: "},
      {"checkpoint without wal",
       [](SimConfig& c) { c.checkpoint_interval = 10; },
       "invalid checkpoint-interval: --checkpoint-interval requires --wal"},
      {"unparseable faults", [](SimConfig& c) { c.faults = "0@x"; },
       "invalid faults: "},
      {"faults without wal", [](SimConfig& c) { c.faults = "0@5+3"; },
       "invalid faults: --faults requires --wal"},
      {"fault shard",
       [](SimConfig& c) {
         c.wal = true;
         c.faults = "64@5+3";
       },
       "invalid faults: shard 64 out of range (s=64)"},
      {"fault round",
       [](SimConfig& c) {
         c.wal = true;
         c.rounds = 10;
         c.faults = "0@10+3";
       },
       "invalid faults: crash round 10 past the injection phase"},
      {"faults with wal",
       [](SimConfig& c) {
         c.wal = true;
         c.checkpoint_interval = 10;
         c.faults = "0@5+3,1@8+2";
       },
       ""},
      {"replay pacing", [](SimConfig& c) { c.replay_bytes_per_round = 0; },
       "invalid replay-bytes-per-round: "},
  };
  for (const auto& test_case : cases) {
    SimConfig config;
    test_case.edit(config);
    const std::string error = core::ConfigError(config);
    const std::string expected = test_case.expected;
    if (expected.empty()) {
      EXPECT_EQ(error, "") << test_case.name;
    } else {
      EXPECT_EQ(error.rfind(expected, 0), 0u)
          << test_case.name << ": got \"" << error << "\"";
      EXPECT_EQ(error.find('\n'), std::string::npos) << test_case.name;
    }
  }
}

}  // namespace
}  // namespace stableshard
