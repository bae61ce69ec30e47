#include "common/thread_pool.h"

#include "common/check.h"

namespace stableshard {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  AwaitCheckout(jobs_[0]);
  AwaitCheckout(jobs_[1]);
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::AwaitCheckout(Job& job) {
  for (std::uint32_t active = job.active.load(std::memory_order_acquire);
       active != 0; active = job.active.load(std::memory_order_acquire)) {
    job.active.wait(active, std::memory_order_acquire);
  }
}

void ThreadPool::CheckNotOutstanding() const {
  SSHARD_CHECK(!outstanding_ && "ThreadPool: Wait before the next fan-out");
}

void ThreadPool::Publish(std::size_t count, std::size_t chunk,
                         InvokeFn invoke, void* body) {
  CheckNotOutstanding();
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  Job& job = SlotFor(generation);
  AwaitCheckout(job);
  job.count = count;
  job.chunk = chunk;
  job.invoke = invoke;
  job.body = body;
  job.cursor.store(0, std::memory_order_relaxed);
  job.remaining.store(count, std::memory_order_relaxed);
  job.active.store(static_cast<std::uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
  outstanding_ = true;
  generation_.store(generation, std::memory_order_release);
  generation_.notify_all();
}

void ThreadPool::Wait() {
  if (!outstanding_) return;
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed);
  for (std::uint32_t done = finished_.load(std::memory_order_acquire);
       done != generation; done = finished_.load(std::memory_order_acquire)) {
    finished_.wait(done, std::memory_order_acquire);
  }
  outstanding_ = false;
  dispatched_ = nullptr;
}

void ThreadPool::RunJob(std::uint32_t generation) {
  Job& job = SlotFor(generation);
  const std::size_t count = job.count;
  const std::size_t chunk = job.chunk;
  for (std::size_t begin =
           job.cursor.fetch_add(chunk, std::memory_order_relaxed);
       begin < count;
       begin = job.cursor.fetch_add(chunk, std::memory_order_relaxed)) {
    const std::size_t end = std::min(begin + chunk, count);
    for (std::size_t i = begin; i < end; ++i) job.invoke(job.body, i);
    // Whoever runs the last index publishes the whole job's effects to
    // Wait (the acq_rel decrements chain every worker's writes into it).
    if (job.remaining.fetch_sub(end - begin, std::memory_order_acq_rel) ==
        end - begin) {
      finished_.store(generation, std::memory_order_release);
      finished_.notify_one();
    }
  }
  if (job.active.fetch_sub(1, std::memory_order_release) == 1) {
    job.active.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  // Starts at 0, not at a load: a job published before this thread first
  // runs must still be seen as new.
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    const std::uint32_t current = generation_.load(std::memory_order_acquire);
    if (stopping_) return;
    // At most two jobs can be pending here (a third publication waits for
    // this worker's check-out), and each is run or checked out in order.
    while (seen != current) RunJob(++seen);
  }
}

}  // namespace stableshard
