#include "base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "base/check.h"
#include "base/env.h"
// The one sanctioned base→obs edge: pool instrumentation. It lives in this
// .cc only (no header cycle), and obs/ itself depends only on base headers,
// so the layering stays acyclic at link time.
#include "obs/metrics.h"  // mg_analyze:allow(layering)
#include "obs/trace.h"    // mg_analyze:allow(layering)

namespace mocograd {

namespace {

int DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw == 0 ? 1 : static_cast<int>(hw);
  return GetEnvInt("MOCOGRAD_NUM_THREADS", hw_threads, /*min_value=*/1,
                   /*max_value=*/1024);
}

// The process-wide pool slot. Readers load it lock-free (every
// ParallelFor does); `mu` only serializes creation and
// SetGlobalNumThreads, the two writers. Heap-allocated and never freed:
// workers must not outlive their pool's synchronization primitives during
// static destruction.
struct GlobalPool {
  Mutex mu;
  std::atomic<ThreadPool*> pool{nullptr};
};

GlobalPool& GlobalPoolState() {
  // MG_COLD_PATH: one-time creation of the process-wide slot.
  static GlobalPool* g = new GlobalPool;
  // MG_COLD_PATH_END
  return *g;
}

// One ParallelFor invocation. Chunks are claimed by atomically advancing
// `next`; the caller and any helpers drawn from the pool all run
// RunChunks(), so the caller never blocks while work remains and nested
// loops always make progress (the wait graph follows loop nesting, which is
// acyclic).
struct LoopState {
  int64_t end = 0;
  int64_t chunk = 1;
  const std::function<void(int64_t, int64_t)>* body = nullptr;

  std::atomic<int64_t> next{0};
  std::atomic<bool> canceled{false};
  Mutex mu;
  CondVar done_cv;
  int64_t chunks_left MG_GUARDED_BY(mu) = 0;
  std::exception_ptr error MG_GUARDED_BY(mu);  // first failure wins

  void RunChunks() {
    for (;;) {
      const int64_t b = next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= end) return;
      const int64_t e = std::min(end, b + chunk);
      if (!canceled.load(std::memory_order_relaxed)) {
        try {
          (*body)(b, e);
        } catch (...) {
          MutexLock lk(&mu);
          if (!error) error = std::current_exception();
          canceled.store(true, std::memory_order_relaxed);
        }
      }
      MutexLock lk(&mu);
      if (--chunks_left == 0) done_cv.NotifyAll();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  MG_CHECK_GE(num_threads, 1, "ThreadPool size");
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lk(&mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    MG_TRACE_SCOPE("pool.worker_task");
    MG_METRIC_COUNT("pool.tasks_executed", 1);
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  GlobalPool& g = GlobalPoolState();
  ThreadPool* pool = g.pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  MutexLock lk(&g.mu);
  pool = g.pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    // MG_COLD_PATH: first-use creation of the process-wide pool.
    pool = new ThreadPool(DefaultNumThreads());
    // MG_COLD_PATH_END
    g.pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::SetGlobalNumThreads(int n) {
  MG_CHECK_GE(n, 1, "SetGlobalNumThreads");
  GlobalPool& g = GlobalPoolState();
  MutexLock lk(&g.mu);
  ThreadPool* old = g.pool.load(std::memory_order_relaxed);
  if (old != nullptr && old->num_threads() == n) return;
  // Empty the slot first, so a concurrent Global() waits on `mu` for the
  // new pool instead of returning the one being joined.
  g.pool.store(nullptr, std::memory_order_relaxed);
  delete old;  // drains and joins the old workers
  // MG_COLD_PATH: explicit resize, never on a compute path.
  ThreadPool* fresh = new ThreadPool(n);
  // MG_COLD_PATH_END
  g.pool.store(fresh, std::memory_order_release);
}

int ThreadPool::GlobalNumThreads() { return Global().num_threads(); }

// Callers arrive through the ParallelFor template in the header, which has
// already handled the empty range, clamped the grain, and run the serial
// fast path — here the loop genuinely fans out.
void internal::ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                               const std::function<void(int64_t, int64_t)>& body) {
  const int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const int threads = pool.num_threads();

  // Only loops that actually fan out get a span — the serial fallback
  // in the header is the hottest path in the library and stays untouched.
  MG_TRACE_SCOPE("parallel_for");
  MG_METRIC_TIME_SCOPE("parallel_for.seconds");
  MG_METRIC_COUNT("pool.parallel_fors", 1);

  // A few chunks per participant gives dynamic load balancing without
  // dropping below the grain. Chunking never affects results (see the
  // determinism contract in thread_pool.h).
  const int64_t max_chunks = static_cast<int64_t>(threads) * 4;
  const int64_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);
  const int64_t num_chunks = (n + chunk - 1) / chunk;

  // MG_COLD_PATH: fan-out setup. The shared state and the type-erased helper
  // tasks are the sanctioned allocations of a parallel dispatch — the
  // provably allocation-free configuration is the pool-of-1 serial path in
  // the ParallelFor template (docs/CORRECTNESS.md "Hot-path allocation").
  auto state = std::make_shared<LoopState>();
  state->end = end;
  state->chunk = chunk;
  state->body = &body;
  state->next.store(begin, std::memory_order_relaxed);
  {
    MutexLock lk(&state->mu);
    state->chunks_left = num_chunks;
  }

  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(threads) - 1, num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool.Submit([state] { state->RunChunks(); });
  }
  // MG_COLD_PATH_END
  state->RunChunks();

  std::exception_ptr error;
  {
    MutexLock lk(&state->mu);
    while (state->chunks_left != 0) state->done_cv.Wait(state->mu);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mocograd
