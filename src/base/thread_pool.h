#ifndef MOCOGRAD_BASE_THREAD_POOL_H_
#define MOCOGRAD_BASE_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"

namespace mocograd {

/// Fixed-size worker pool behind ParallelFor — the parallel-execution layer
/// every compute kernel (GEMM, elementwise ops, im2col convolution, the
/// trainer's per-task backward) shares.
///
/// One process-wide instance (Global()) is created on first use. Its size
/// comes from the MOCOGRAD_NUM_THREADS environment variable when set to a
/// positive integer, otherwise std::thread::hardware_concurrency(), and can
/// be changed at runtime with SetGlobalNumThreads().
///
/// `num_threads` counts *participants*: the thread calling ParallelFor
/// always executes loop chunks itself, so a pool of size N spawns N−1
/// workers and a pool of size 1 spawns none — ParallelFor then degenerates
/// to a plain serial loop with zero synchronization.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Enqueues a task for the workers. Low-level plumbing with two sanctioned
  /// clients: ParallelFor below (the intended API for index loops) and the
  /// autograd ready-queue executor (autograd/executor.cc), whose helpers
  /// drain per-sweep node queues. Submitted tasks must never block waiting
  /// on other submitted tasks — pool workers are a finite resource, and the
  /// no-deadlock argument for nested waits (see ParallelFor) relies on
  /// every queued task running to completion on its own.
  void Submit(std::function<void()> task);

  /// The process-wide pool, created on first use (see class comment for
  /// sizing). The instance is intentionally never destroyed so that worker
  /// threads cannot race static destruction at process exit. Once the pool
  /// exists this is one atomic load — no lock — so concurrent ParallelFor
  /// callers never contend here.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `n` participants (n >= 1). The
  /// previous pool drains and joins first. Must not be called while a
  /// ParallelFor is in flight (e.g. from inside a loop body).
  static void SetGlobalNumThreads(int n);

  /// Size of the global pool (creates it on first call).
  static int GlobalNumThreads();

 private:
  void WorkerMain();

  const int num_threads_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ MG_GUARDED_BY(mu_);
  bool shutdown_ MG_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written in the ctor only
};

/// Runs `body(chunk_begin, chunk_end)` over a disjoint partition of
/// [begin, end) using the global pool. Blocks until every chunk finished.
///
/// - `grain` is the minimum number of iterations per chunk; ranges of at
///   most `grain` iterations (or a pool of size 1) run inline on the caller
///   with no synchronization at all.
/// - Nesting is allowed and is how task-level and kernel-level parallelism
///   compose: a loop body may itself call ParallelFor (e.g. a per-task
///   backward whose grad_fns call the parallel GEMM). The inner loop's
///   chunks are offered to idle workers, and the inner *caller* keeps
///   claiming its own chunks instead of blocking on the queue, so nested
///   waits always make progress and cannot deadlock.
/// - If a body throws, the first exception is captured, remaining chunks
///   are skipped, and the exception is rethrown on the calling thread after
///   the loop drains.
///
/// Determinism contract: chunk boundaries and thread assignment never
/// influence results. Kernels built on ParallelFor either write each output
/// index independently or (for reductions) use a fixed block decomposition
/// whose partials are combined in block order — see tensor/ops.cc — so any
/// pool size, including 1, produces bit-identical output.
///
/// ParallelFor is a template so the serial fast path never materializes a
/// std::function: wrapping a capturing lambda in std::function heap-allocates
/// once its captures outgrow the small-buffer slot, which would put an
/// allocation on every kernel call even when the loop runs inline (pool of 1,
/// or n <= grain). Only loops that actually fan out pay the type-erasure
/// cost, inside ParallelForImpl.
namespace internal {
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& body);
}  // namespace internal

template <typename Body>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Body&& body) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain || ThreadPool::Global().num_threads() <= 1) {
    body(begin, end);  // serial fallback: no state, no synchronization
    return;
  }
  internal::ParallelForImpl(begin, end, grain, body);
}

}  // namespace mocograd

#endif  // MOCOGRAD_BASE_THREAD_POOL_H_
