// Fixed-size thread pool for the parallel round loop and experiment sweeps.
//
// Two users: (1) the simulation engine fans Scheduler::StepShard out across
// shards on the rounds whose work pays for a fan-out (worker_threads > 1);
// (2) the figure benches run dozens of independent (rho, b) simulations.
// Both follow the "explicit parallelism, explicit ownership" style of the
// HPC guides: tasks capture their inputs by value or index disjoint slots,
// so no task shares mutable state with another.
//
// A fan-out publishes ONE job — an index count, a chunk size and a type-
// erased body — and bumps a generation counter. Parked workers wake on the
// counter (std::atomic::wait/notify, a futex on Linux), claim chunks from an
// atomic cursor until the range is exhausted, and count the indices they
// ran down; whoever runs the last index wakes the driving thread. There is
// no task queue, no mutex and no per-chunk allocation, and nothing spins
// beyond the standard library's short pre-sleep poll. Only the pool's own
// thread_count() threads run tasks: the driving thread never joins a
// fan-out, so per-worker state indexed by thread (bench replicas,
// per-worker accumulators) stays sized by thread_count().
//
// Wait returns as soon as every index has run, so a worker that wakes late
// may still be on its way through a finished job: it finds the cursor
// exhausted and checks out without touching the body. Jobs alternate
// between two slots by generation parity, and a publication only waits
// for every worker to check out of the job two generations back — so the
// engine's flush fan-out, published right after its step fan-out, never
// waits on a worker that was slow to wake for the step. A slot's fields
// are never rewritten under a late reader, and a worker runs (or checks
// out of) every generation in order, never missing or skipping one.
//
// Only one thread may drive a pool (ParallelFor, Dispatch, Wait) at a time,
// and a job may not start another fan-out on its own pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace stableshard {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Waits for an outstanding Dispatch, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Block until the outstanding fan-out (if any) has finished. Tasks must
  /// not throw (the simulator aborts on invariant failure instead).
  void Wait();

  std::size_t thread_count() const { return workers_.size(); }

  /// Run `fn(i)` for i in [0, count) on this pool's workers and wait.
  /// Workers claim contiguous chunks dynamically, so a heavy index (BDS's
  /// epoch leader) does not hold a whole static share hostage. Chunking
  /// never affects results: iterations are independent by contract.
  template <typename Fn>
  void ParallelFor(std::size_t count, Fn&& fn) {
    if (count == 0) return;
    using Body = std::remove_reference_t<Fn>;
    Publish(count, ChunkFor(count), &Invoke<Body>,
            const_cast<void*>(static_cast<const void*>(&fn)));
    Wait();
  }

  /// Start `fn(i)` for i in [0, count) WITHOUT waiting: the caller overlaps
  /// its own serial work with the tasks and then calls Wait() — the engine's
  /// pooled round epilogue runs the next round's generation on the
  /// driving thread while flush partitions drain here. The pool keeps its
  /// own copy of `fn` until Wait(), so the callable need not outlive the
  /// call. One index per claim: dispatched tasks are coarse partitions.
  template <typename Fn>
  void Dispatch(std::size_t count, Fn fn) {
    if (count == 0) return;
    // Before the body is replaced: workers of an unwaited fan-out may
    // still be running the previous one.
    CheckNotOutstanding();
    dispatched_ = std::move(fn);
    Publish(count, 1, &Invoke<std::function<void(std::size_t)>>,
            &dispatched_);
  }

  /// One-shot convenience: run on a throwaway pool of `threads` workers.
  template <typename Fn>
  static void ParallelFor(std::size_t count, Fn&& fn, std::size_t threads) {
    ThreadPool pool(threads);
    pool.ParallelFor(count, std::forward<Fn>(fn));
  }

 private:
  using InvokeFn = void (*)(void* body, std::size_t index);

  template <typename Body>
  static void Invoke(void* body, std::size_t index) {
    (*static_cast<Body*>(body))(index);
  }

  /// About eight claims per worker: small enough that one slow index
  /// leaves the rest to the others, large enough that the shared cursor
  /// is touched a handful of times per worker.
  std::size_t ChunkFor(std::size_t count) const {
    return std::max<std::size_t>(1, count / (thread_count() * 8));
  }

  /// One published job. The plain fields are written by the driving
  /// thread before the release bump of generation_, read by workers after
  /// their acquire of it, and not rewritten until every worker has checked
  /// out of the slot (AwaitCheckout).
  struct alignas(64) Job {
    std::size_t count = 0;
    std::size_t chunk = 1;
    InvokeFn invoke = nullptr;
    void* body = nullptr;
    /// Next unclaimed index.
    std::atomic<std::size_t> cursor{0};
    /// Indices not yet run.
    std::atomic<std::size_t> remaining{0};
    /// Workers that have not yet checked out; the driving thread parks on
    /// it before reusing the slot.
    std::atomic<std::uint32_t> active{0};
  };

  Job& SlotFor(std::uint32_t generation) { return jobs_[generation & 1]; }
  /// Abort when a fan-out is published before Wait ended the previous one.
  void CheckNotOutstanding() const;
  /// Block until every worker has checked out of `job`.
  static void AwaitCheckout(Job& job);
  void Publish(std::size_t count, std::size_t chunk, InvokeFn invoke,
               void* body);
  /// Run the claimable indices of generation `generation`, then check out.
  void RunJob(std::uint32_t generation);
  void WorkerLoop();

  Job jobs_[2];
  bool stopping_ = false;
  /// The pool's copy of the outstanding Dispatch body (empty otherwise).
  std::function<void(std::size_t)> dispatched_;
  /// Driving-thread only: a job is published and not yet waited for.
  bool outstanding_ = false;

  /// Bumped once per published job (and once to stop); workers park on it.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  /// Generation of the last job whose indices have all run; the driving
  /// thread parks on it in Wait.
  alignas(64) std::atomic<std::uint32_t> finished_{0};

  /// Immutable after the constructor returns (workers never join until the
  /// destructor), so thread_count() reads it without synchronization.
  std::vector<std::thread> workers_;
};

}  // namespace stableshard
