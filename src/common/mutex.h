// Annotated mutex / condition-variable wrappers and phase capabilities.
//
// libstdc++'s std::mutex carries no thread-safety attributes, so clang's
// -Wthread-safety analysis cannot see std::unique_lock acquisitions. These
// thin wrappers re-expose std::mutex / std::condition_variable with the
// capability annotations attached (the Abseil/Chromium pattern), so a
// member declared SSHARD_GUARDED_BY(mutex_) fails compilation under clang
// when touched unlocked. (ThreadPool needs none: it publishes each job
// through atomics.)
//
// PhaseCapability is the lock-free sibling: a zero-size "role" capability
// for the double-buffered phase contracts (sealed outbox lanes, sealed
// ledger journals, the network's partitioned-flush window). Acquire and
// Release do nothing at runtime — the value is purely static: a method
// annotated SSHARD_REQUIRES(seal_cap()) cannot be reached, on clang,
// from code that has not passed through the matching SSHARD_ACQUIRE
// phase-transition method.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace stableshard::common {

class CondVar;

/// std::mutex with clang capability annotations.
class SSHARD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SSHARD_ACQUIRE() { mu_.lock(); }
  void Unlock() SSHARD_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex (scoped capability).
class SSHARD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SSHARD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SSHARD_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with Mutex. Wait re-wraps the already-held
/// std::mutex with adopt_lock so std::condition_variable can block on it,
/// then releases the std::unique_lock without unlocking — the caller's
/// MutexLock stays the owner throughout, which is exactly what the
/// SSHARD_REQUIRES(mu) annotation states.
class CondVar {
 public:
  /// Block until notified (callers re-check their condition in a while
  /// loop — spurious wakeups are allowed, as with the underlying
  /// std::condition_variable).
  void Wait(Mutex& mu) SSHARD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Lock-free phase capability: annotation-only state for the seal/flush
/// double-buffer contracts. All methods are no-ops at runtime; holding or
/// not holding the capability exists only in clang's static analysis.
class SSHARD_CAPABILITY("phase") PhaseCapability {
 public:
  PhaseCapability() = default;
  PhaseCapability(const PhaseCapability&) = delete;
  PhaseCapability& operator=(const PhaseCapability&) = delete;

  void Acquire() const SSHARD_ACQUIRE() {}
  void Release() const SSHARD_RELEASE() {}
};

}  // namespace stableshard::common
