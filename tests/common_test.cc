// Unit tests for src/common: RNG determinism and distribution sanity,
// integer math helpers (exactness of the paper's bound formulas), CSV
// output, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/csv.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace stableshard {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000003ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(13);
  for (std::uint64_t population : {8ull, 64ull, 10000ull}) {
    for (std::uint64_t count : {1ull, 4ull, 8ull}) {
      if (count > population) continue;
      const auto sample = rng.SampleWithoutReplacement(population, count);
      EXPECT_EQ(sample.size(), count);
      std::set<std::uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), count);
      for (const auto v : sample) EXPECT_LT(v, population);
    }
  }
}

TEST(Rng, SampleFullPopulationIsPermutation) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(16, 16);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.Shuffle(std::span<int>(shuffled));
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(MathUtil, CeilSqrtExactValues) {
  EXPECT_EQ(CeilSqrt(0), 0u);
  EXPECT_EQ(CeilSqrt(1), 1u);
  EXPECT_EQ(CeilSqrt(2), 2u);
  EXPECT_EQ(CeilSqrt(4), 2u);
  EXPECT_EQ(CeilSqrt(5), 3u);
  EXPECT_EQ(CeilSqrt(63), 8u);
  EXPECT_EQ(CeilSqrt(64), 8u);
  EXPECT_EQ(CeilSqrt(65), 9u);
}

TEST(MathUtil, CeilSqrtMatchesDefinitionUpTo10k) {
  for (std::uint64_t x = 1; x <= 10000; ++x) {
    const std::uint64_t r = CeilSqrt(x);
    EXPECT_GE(r * r, x);
    EXPECT_LT((r - 1) * (r - 1), x);
  }
}

TEST(MathUtil, FloorSqrtMatchesDefinition) {
  for (std::uint64_t x = 1; x <= 10000; ++x) {
    const std::uint64_t r = FloorSqrt(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + 1) * (r + 1), x);
  }
}

TEST(MathUtil, Log2Helpers) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(64), 6u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(64), 6u);
  EXPECT_EQ(CeilLog2(65), 7u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

TEST(MathUtil, BdsStableRateBoundPicksMax) {
  // k = 8, s = 64: max{1/144, 1/(18*8)} = 1/144.
  EXPECT_DOUBLE_EQ(BdsStableRateBound(8, 64), 1.0 / 144.0);
  // k = 2, s = 64: max{1/36, 1/144} = 1/36.
  EXPECT_DOUBLE_EQ(BdsStableRateBound(2, 64), 1.0 / 36.0);
}

TEST(MathUtil, AbsoluteStabilityUpperBound) {
  // k = 8, s = 64: max{2/9, 2/floor(sqrt(128))=2/11}.
  EXPECT_DOUBLE_EQ(AbsoluteStabilityUpperBound(8, 64), 2.0 / 9.0);
  // k = 1: bound capped at 1.
  EXPECT_DOUBLE_EQ(AbsoluteStabilityUpperBound(1, 64), 1.0);
}

TEST(MathUtil, MinKSqrtS) {
  EXPECT_EQ(MinKSqrtS(8, 64), 8u);
  EXPECT_EQ(MinKSqrtS(10, 64), 8u);
  EXPECT_EQ(MinKSqrtS(2, 64), 2u);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b", "c"});
    ASSERT_TRUE(csv.ok());
    csv.Row(1, 2.5, "x");
    csv.Row("y", 3, 4);
    // RFC 4180: a cell with a comma or a double quote is quoted, and its
    // quotes are doubled, so the row keeps three cells.
    csv.Row("faults=0@5+3,1@8+2", "say \"hi\"", 5);
    csv.Flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5,x");
  std::getline(in, line);
  EXPECT_EQ(line, "y,3,4");
  std::getline(in, line);
  EXPECT_EQ(line, "\"faults=0@5+3,1@8+2\",\"say \"\"hi\"\"\",5");
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    pool.Dispatch(100, [&counter](std::size_t) { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::ParallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); },
                          8);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, InstanceParallelForReusesLivePool) {
  ThreadPool pool(3);
  // Repeated fan-outs on the same workers, covering both one index per
  // claim (count <= 8 * threads) and multi-index chunks (count above it).
  for (const std::size_t count : {std::size_t{5}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(count);
    pool.ParallelFor(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, InstanceParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ZeroCountDispatchLeavesNothingToWaitFor) {
  ThreadPool pool(2);
  pool.Dispatch(0, [](std::size_t) { FAIL() << "must not run"; });
  pool.Wait();
  pool.Wait();  // a second Wait with nothing outstanding returns at once
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Dispatch(1, [&](std::size_t) { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Dispatch(1, [&](std::size_t) { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, BackToBackTinyRegionsLoseNoWakeUp) {
  // 10^5 consecutive one- and few-index fan-outs: a lost wake-up hangs
  // here, and a worker that reran or skipped a generation shows up as a
  // wrong total. Tiny bodies keep every worker's wake racing the next
  // publication.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> hits(3, 0);
    constexpr int kRegions = 100000;
    for (int region = 0; region < kRegions; ++region) {
      const std::size_t count = 1 + static_cast<std::size_t>(region % 3);
      pool.ParallelFor(count, [&hits](std::size_t i) { ++hits[i]; });
    }
    // Index 0 runs in every region, index 1 in two of three, index 2 in one.
    EXPECT_EQ(hits[0], static_cast<std::uint64_t>(kRegions)) << threads;
    EXPECT_EQ(hits[1], static_cast<std::uint64_t>(kRegions - kRegions / 3 -
                                                  (kRegions % 3 > 0)))
        << threads;
    EXPECT_EQ(hits[2], static_cast<std::uint64_t>(kRegions / 3)) << threads;
  }
}

TEST(ThreadPool, DispatchOverlapsDrivingThreadWork) {
  ThreadPool pool(2);
  for (int region = 0; region < 1000; ++region) {
    std::vector<int> out(4, 0);
    pool.Dispatch(out.size(), [&out](std::size_t i) {
      out[i] = static_cast<int>(i) + 1;
    });
    // Work on the driving thread while the partitions run: it touches
    // nothing the tasks write.
    int local = 0;
    for (int i = 0; i < 64; ++i) local += i;
    EXPECT_EQ(local, 2016);
    pool.Wait();
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + 1);
    }
  }
}

TEST(ThreadPool, DispatchKeepsItsOwnCopyOfTheBody) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  {
    // The callable goes out of scope before Wait: the pool's copy runs.
    const int offset = 10;
    auto body = [&sum, offset](std::size_t i) {
      sum.fetch_add(offset + static_cast<int>(i));
    };
    pool.Dispatch(3, body);
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 33);
}

TEST(ThreadPool, DestroyWhileWorkersParked) {
  // Workers that never saw a job, and workers parked after many, must
  // both stop and join.
  for (int i = 0; i < 200; ++i) {
    ThreadPool idle(4);
  }
  for (int i = 0; i < 200; ++i) {
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    pool.ParallelFor(7, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 7);
  }
}

TEST(ThreadPool, DestroyRightAfterWait) {
  for (int i = 0; i < 200; ++i) {
    std::atomic<int> counter{0};
    {
      ThreadPool pool(2);
      pool.Dispatch(5, [&](std::size_t) { counter.fetch_add(1); });
      pool.Wait();
    }
    EXPECT_EQ(counter.load(), 5);
  }
}

TEST(ThreadPool, SecondFanOutWithoutWaitAborts) {
  // The check runs before Dispatch replaces the pool's copy of the body,
  // which workers of the unwaited fan-out may still be running.
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Dispatch(4, [](std::size_t) {});
        pool.Dispatch(4, [](std::size_t) {});
      },
      "Wait before the next fan-out");
}

TEST(ThreadPool, DestroyWithDispatchOutstandingWaitsFirst) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.Dispatch(6, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPool, OnlyPoolThreadsRunTasks) {
  // The driving thread never joins a fan-out: at most thread_count()
  // distinct threads run tasks, and the driver is not among them.
  ThreadPool pool(2);
  const std::thread::id driver = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(512);
  for (int region = 0; region < 50; ++region) {
    pool.ParallelFor(ran_on.size(), [&ran_on](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    std::vector<std::thread::id> distinct;
    for (const std::thread::id id : ran_on) {
      ASSERT_NE(id, driver);
      if (std::find(distinct.begin(), distinct.end(), id) == distinct.end()) {
        distinct.push_back(id);
      }
    }
    ASSERT_LE(distinct.size(), pool.thread_count());
  }
}

TEST(Mix64, DistinctInputsMix) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Arena, AllocationsAlignedAndRewoundByReset) {
  common::Arena arena;
  auto* first = arena.AllocateArray<std::uint64_t>(10);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % alignof(std::uint64_t),
            0u);
  // A 3-byte allocation misaligns the cursor; the next uint64_t array must
  // be re-aligned, with the padding counted toward the usage mark.
  arena.AllocateArray<std::uint8_t>(3);
  auto* second = arena.AllocateArray<std::uint64_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second) % alignof(std::uint64_t),
            0u);
  for (int i = 0; i < 10; ++i) first[i] = 0xABCDu + i;
  *second = 99;
  EXPECT_EQ(first[9], 0xABCDu + 9);

  // Reset rewinds the bump pointer: a single resident chunk below the
  // shrink floor is kept, so the same storage is handed out again.
  arena.Reset();
  auto* reused = arena.AllocateArray<std::uint64_t>(10);
  EXPECT_EQ(reused, first);
}

TEST(Arena, MemoryStatsTrackUsageResetsAndHighWater) {
  common::Arena arena;
  EXPECT_EQ(arena.memory().reserved_bytes, 0u);
  EXPECT_EQ(arena.memory().chunks, 0u);
  arena.AllocateArray<std::uint32_t>(100);
  auto stats = arena.memory();
  EXPECT_GE(stats.used_bytes, 400u);
  EXPECT_GE(stats.reserved_bytes, stats.used_bytes);
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.resets, 0u);
  arena.Reset();
  stats = arena.memory();
  EXPECT_EQ(stats.used_bytes, 0u);
  EXPECT_EQ(stats.resets, 1u);
  EXPECT_GE(stats.high_water_bytes, 400u);  // the round's peak survives

  common::ArenaMemoryStats sum = stats;
  sum += stats;  // per-shard aggregation in Scheduler::ArenaMemory()
  EXPECT_EQ(sum.resets, 2 * stats.resets);
  EXPECT_EQ(sum.high_water_bytes, 2 * stats.high_water_bytes);
}

TEST(Arena, OverflowGrowsThenResetCoalescesToOneChunk) {
  common::Arena arena(common::Arena::kMinChunkBytes);
  arena.AllocateArray<std::byte>(common::Arena::kMinChunkBytes);
  arena.AllocateArray<std::byte>(3 * common::Arena::kMinChunkBytes);
  EXPECT_GE(arena.memory().chunks, 2u);  // the round outgrew its reservation
  arena.Reset();
  const auto stats = arena.memory();
  EXPECT_EQ(stats.chunks, 1u);  // coalesced into one right-sized chunk
  EXPECT_GE(stats.reserved_bytes, 4u * common::Arena::kMinChunkBytes);
}

TEST(Arena, ShrinksAfterSpikeDecays) {
  common::Arena arena;
  // One spiked round far past the shrink floor...
  arena.AllocateArray<std::byte>(1 << 20);
  arena.Reset();
  const auto spiked = arena.memory().reserved_bytes;
  EXPECT_GE(spiked, std::uint64_t{1} << 20);
  // ... then steady small rounds: the decayed high-water mark falls until
  // the oversized reservation is released and re-sized to the small load.
  for (int round = 0; round < 64; ++round) {
    arena.AllocateArray<std::byte>(256);
    arena.Reset();
  }
  EXPECT_LT(arena.memory().reserved_bytes, spiked);
  EXPECT_EQ(arena.memory().chunks, 1u);
}

TEST(ArenaVector, BackedByArenaScratch) {
  common::Arena arena;
  common::ArenaVector<std::uint32_t> values{
      common::ArenaAllocator<std::uint32_t>(&arena)};
  for (std::uint32_t i = 0; i < 100; ++i) values.push_back(i);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
  // Growth reallocations never free (deallocate is a no-op), so usage
  // reflects the doubling history, all of it reclaimed by one Reset().
  EXPECT_GE(arena.memory().used_bytes, 100u * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace stableshard
