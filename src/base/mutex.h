#ifndef MOCOGRAD_BASE_MUTEX_H_
#define MOCOGRAD_BASE_MUTEX_H_

// Annotated locking vocabulary for the concurrent components.
//
// std::mutex works, but Clang's -Wthread-safety cannot see through it on
// libstdc++ (the standard headers carry no capability annotations), so a
// guarded field would warn on every access. These thin wrappers carry the
// MG_CAPABILITY / MG_ACQUIRE / MG_RELEASE transitions from base/check.h and
// compile to the exact same std::mutex / std::condition_variable operations
// — zero overhead, and on Clang the compiler proves that every
// MG_GUARDED_BY field access holds the right lock
// (docs/CORRECTNESS.md "Lock discipline").
//
// Usage pattern:
//
//   Mutex mu_;
//   CondVar cv_;
//   std::deque<Task> queue_ MG_GUARDED_BY(mu_);
//
//   void Push(Task t) {
//     MutexLock lk(&mu_);
//     queue_.push_back(std::move(t));
//     cv_.NotifyOne();
//   }
//   void DrainLocked() MG_REQUIRES(mu_);   // caller holds mu_

#include <condition_variable>
#include <mutex>

#include "base/check.h"

namespace mocograd {

/// A std::mutex carrying thread-safety capability annotations. Lock/Unlock
/// are public for the rare hand-over-hand sections; scoped sections use
/// MutexLock.
class MG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MG_ACQUIRE() { mu_.lock(); }
  void Unlock() MG_RELEASE() { mu_.unlock(); }
  bool TryLock() MG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped handle, for CondVar's internal re-binding only. Callers
  /// never lock through it — that would bypass the analysis.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (the annotated std::lock_guard).
class MG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MG_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() MG_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable for Mutex. Wait* must be called with the mutex held
/// (MG_REQUIRES) and returns with it held — internally the wait adopts the
/// native handle so the fast std::condition_variable path is kept (no
/// condition_variable_any indirection).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, re-acquires `mu`.
  /// Spurious wakeups possible — always wait in a predicate loop.
  void Wait(Mutex& mu) MG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native_handle(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the lock, per MG_REQUIRES
  }

  /// Predicate-loop wait: returns once `pred()` holds (pred is evaluated
  /// with the lock held).
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) MG_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mocograd

#endif  // MOCOGRAD_BASE_MUTEX_H_
