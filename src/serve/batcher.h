#ifndef MOCOGRAD_SERVE_BATCHER_H_
#define MOCOGRAD_SERVE_BATCHER_H_

#include <atomic>
#include <cstdint>

#include "serve/engine.h"

namespace mocograd {
namespace serve {

/// Single-row serving front end: each Infer runs one row inline on the
/// calling thread through a shared InferenceSession, whose Forward is safe
/// to call from many threads at once (per-thread arena scratch, immutable
/// weights). There is no queue, no lock and no cross-thread handoff; on
/// recommendation-scale models that handoff cost more than the forward it
/// tried to amortize (docs/SERVING.md "Concurrent callers"). Callers that
/// hold a batch of rows call InferenceSession::Forward with it directly —
/// its output is bitwise equal to the same rows served one at a time.
///
/// The request path is heap-allocation-free in steady state, like the bare
/// engine (tests/serve/serve_engine_test.cc).
class MicroBatcher {
 public:
  explicit MicroBatcher(const ServeModel& model) : session_(model) {}

  /// Blocking single-row inference: writes task k's prediction for `row`
  /// (input_dim floats) to outputs[k] (task_output_dim(k) floats). Safe to
  /// call from any number of threads.
  void Infer(const float* row, float* const* outputs) {
    session_.Forward(row, 1, outputs);
    rows_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Rows served so far. Every row is its own forward, so both counters
  /// read the same count.
  int64_t batches_executed() const {
    return rows_.load(std::memory_order_relaxed);
  }
  int64_t rows_executed() const {
    return rows_.load(std::memory_order_relaxed);
  }

  /// Rows per forward: always 1.
  int max_batch() const { return 1; }
  /// Time a row waits for company: always 0.
  int64_t deadline_us() const { return 0; }

 private:
  InferenceSession session_;
  std::atomic<int64_t> rows_{0};
};

}  // namespace serve
}  // namespace mocograd

#endif  // MOCOGRAD_SERVE_BATCHER_H_
