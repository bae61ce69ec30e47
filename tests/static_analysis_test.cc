// Tests for the static-analysis scaffolding itself:
//
//   * the clang thread-safety annotation shim (common/thread_annotations.h)
//     must expand to NOTHING on non-clang compilers — the repo's tier-1
//     toolchain is gcc, so a shim that leaked tokens would break every
//     build that includes an annotated header;
//   * the annotated common::Mutex / common::MutexLock / common::CondVar
//     wrappers must behave exactly like the std primitives they wrap;
//   * common::PhaseCapability must be a zero-state no-op at runtime (its
//     whole point: compile-time phase contracts, no hot-path cost);
//   * the ThreadPool (atomics only, no annotated mutex) must still run
//     fan-outs correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace stableshard {
namespace {

#define SSHARD_TEST_STRINGIFY_IMPL(...) #__VA_ARGS__
#define SSHARD_TEST_STRINGIFY(...) SSHARD_TEST_STRINGIFY_IMPL(__VA_ARGS__)

#ifndef __clang__
// On gcc (and anything that is not clang) every annotation macro must
// vanish: stringifying the expansion yields the empty string. sizeof of a
// string literal includes the terminating NUL, so empty == 1.
static_assert(
    sizeof(SSHARD_TEST_STRINGIFY(SSHARD_GUARDED_BY(mutex_))) == 1,
    "SSHARD_GUARDED_BY must expand to nothing off clang");
static_assert(sizeof(SSHARD_TEST_STRINGIFY(SSHARD_CAPABILITY("mutex"))) == 1,
              "SSHARD_CAPABILITY must expand to nothing off clang");
static_assert(sizeof(SSHARD_TEST_STRINGIFY(SSHARD_REQUIRES(a, b))) == 1,
              "SSHARD_REQUIRES must expand to nothing off clang");
static_assert(sizeof(SSHARD_TEST_STRINGIFY(SSHARD_ACQUIRE(a))) == 1,
              "SSHARD_ACQUIRE must expand to nothing off clang");
static_assert(sizeof(SSHARD_TEST_STRINGIFY(SSHARD_RELEASE(a))) == 1,
              "SSHARD_RELEASE must expand to nothing off clang");
static_assert(sizeof(SSHARD_TEST_STRINGIFY(SSHARD_EXCLUDES(a))) == 1,
              "SSHARD_EXCLUDES must expand to nothing off clang");
static_assert(
    sizeof(SSHARD_TEST_STRINGIFY(SSHARD_SCOPED_CAPABILITY)) == 1,
    "SSHARD_SCOPED_CAPABILITY must expand to nothing off clang");
static_assert(
    sizeof(SSHARD_TEST_STRINGIFY(SSHARD_NO_THREAD_SAFETY_ANALYSIS)) == 1,
    "SSHARD_NO_THREAD_SAFETY_ANALYSIS must expand to nothing off clang");
#endif  // !__clang__

TEST(StaticAnalysis, PhaseCapabilityIsZeroStateAndFree) {
  // A capability object carries no runtime state: Acquire/Release are
  // annotation anchors only and must be callable in any order.
  static_assert(sizeof(common::PhaseCapability) == 1,
                "PhaseCapability must stay empty — it rides in hot types");
  common::PhaseCapability cap;
  cap.Acquire();
  cap.Acquire();  // no lock semantics at runtime: re-acquire is fine
  cap.Release();
  cap.Release();
}

TEST(StaticAnalysis, MutexLockExcludes) {
  common::Mutex mutex;
  int value = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mutex, &value] {
      for (int i = 0; i < 1000; ++i) {
        common::MutexLock lock(mutex);
        ++value;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(value, 4000);
}

TEST(StaticAnalysis, CondVarWakesWaiter) {
  common::Mutex mutex;
  common::CondVar ready;
  bool flag = false;
  std::thread waiter([&] {
    common::MutexLock lock(mutex);
    while (!flag) ready.Wait(mutex);
  });
  {
    common::MutexLock lock(mutex);
    flag = true;
  }
  ready.NotifyAll();
  waiter.join();
  EXPECT_TRUE(flag);
}

TEST(StaticAnalysis, AnnotatedThreadPoolRunsFanOut) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
        << "index " << i;
  }
}

TEST(StaticAnalysis, AnnotatedThreadPoolDispatchOverlapsThenWaits) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Dispatch(8, [&done](std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  // The driving thread may do its own work here (the engine generates the
  // next round's transactions); Wait is the barrier.
  pool.Wait();
  EXPECT_EQ(done.load(std::memory_order_relaxed), 8);
}

}  // namespace
}  // namespace stableshard
