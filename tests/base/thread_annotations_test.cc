// Compile-and-run smoke for base/mutex.h and the thread-safety annotation
// macros (base/check.h). Under GCC the attributes are no-ops, so what this
// test pins is (a) the annotated API shapes stay usable from ordinary code
// and (b) Mutex/MutexLock/CondVar behave like the std primitives they wrap.
// The Clang release CI leg is what turns the annotations into hard errors.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "base/check.h"
#include "base/mutex.h"

namespace mocograd {
namespace {

// An annotated component in miniature: every guarded member names its mutex,
// the private helper states its lock requirement. Compiling this TU (GCC:
// macros expand to nothing; Clang: analysis passes) is the test.
class Counter {
 public:
  void Add(int n) {
    MutexLock lock(&mu_);
    value_ += n;
    cv_.NotifyAll();
  }

  int Get() const {
    MutexLock lock(&mu_);
    return value_;
  }

  // Blocks until the counter reaches at least `target`.
  void AwaitAtLeast(int target) {
    MutexLock lock(&mu_);
    while (value_ < target) cv_.Wait(mu_);
  }

  void AddTwice(int n) {
    MutexLock lock(&mu_);
    AddLocked(n);
    AddLocked(n);
  }

 private:
  void AddLocked(int n) MG_REQUIRES(mu_) { value_ += n; }

  mutable Mutex mu_;
  CondVar cv_;
  int value_ MG_GUARDED_BY(mu_) = 0;
};

TEST(ThreadAnnotationsTest, MutexLockSerializesWriters) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Get(), kThreads * kIncrements);
}

TEST(ThreadAnnotationsTest, CondVarWaitWakesOnNotify) {
  Counter c;
  std::thread waiter([&c] { c.AwaitAtLeast(3); });
  c.Add(1);
  c.Add(1);
  c.Add(1);
  waiter.join();
  EXPECT_GE(c.Get(), 3);
}

TEST(ThreadAnnotationsTest, RequiresAnnotatedHelperCallableUnderLock) {
  Counter c;
  c.AddTwice(5);
  EXPECT_EQ(c.Get(), 10);
}

TEST(ThreadAnnotationsTest, TryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  bool acquired = true;
  std::thread other([&mu, &acquired] {
    acquired = mu.TryLock();
    if (acquired) mu.Unlock();
  });
  other.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  // Uncontended TryLock succeeds.
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ThreadAnnotationsTest, NativeHandleInteroperatesWithStd) {
  // CondVar wraps std::condition_variable via Mutex::native_handle();
  // adopting the handle directly must stay coherent with Lock/Unlock.
  Mutex mu;
  mu.Lock();
  {
    std::unique_lock<std::mutex> lk(mu.native_handle(), std::adopt_lock);
    lk.release();
  }
  mu.Unlock();
}

}  // namespace
}  // namespace mocograd
