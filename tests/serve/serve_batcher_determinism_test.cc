// The serving front end's bit-exactness contract: any interleaving of
// concurrent single-row Infer() calls produces for each request exactly the
// bits a lone session.Forward() of that row would, and serves every request
// as its own one-row forward. CI reruns this suite (the name contains
// "determinism") at thread-pool sizes 2 and 8, with SIMD disabled and at the
// forced scalar tier; the TSan leg checks the shared session for data races.

#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "mtl/mmoe.h"
#include "serve/plan.h"

namespace mocograd {
namespace {

mtl::MmoeConfig MmoeShape() {
  mtl::MmoeConfig cfg;
  cfg.input_dim = 10;
  cfg.num_experts = 6;
  cfg.expert_dims = {64, 32};
  cfg.task_output_dims = {1, 1};
  return cfg;
}

struct Fixture {
  Fixture() : rng(21), model(MmoeShape(), rng) {
    auto sm = serve::ServeModel::FromModule(serve::BuildMmoePlan(MmoeShape()),
                                            model);
    MG_CHECK(sm.ok(), sm.status().ToString());
    serve_model = std::make_unique<serve::ServeModel>(std::move(sm).value());
  }

  Rng rng;
  mtl::MmoeModel model;
  std::unique_ptr<serve::ServeModel> serve_model;
};

// Runs `num_requests` rows through one MicroBatcher from `num_threads`
// requester threads and checks every output bitwise against a lone
// single-row forward.
void CheckInlineMatchesSingleRow(const serve::ServeModel& sm, int num_threads,
                                 int num_requests) {
  const int64_t in = sm.input_dim();
  const int tasks = sm.num_tasks();

  std::vector<float> rows(static_cast<size_t>(num_requests) * in);
  Rng xrng(22);
  for (float& v : rows) v = xrng.Uniform(-1.0f, 1.0f);

  // Reference: each row alone through a plain session.
  serve::InferenceSession session(sm);
  std::vector<std::vector<float>> want(tasks), got(tasks);
  for (int k = 0; k < tasks; ++k) {
    want[k].resize(static_cast<size_t>(num_requests) * sm.task_output_dim(k));
    got[k].resize(want[k].size());
  }
  for (int r = 0; r < num_requests; ++r) {
    std::vector<float*> outs(tasks);
    for (int k = 0; k < tasks; ++k) {
      outs[k] = want[k].data() + static_cast<int64_t>(r) * sm.task_output_dim(k);
    }
    session.Forward(rows.data() + r * in, 1, outs.data());
  }

  serve::MicroBatcher batcher(sm);
  std::vector<std::thread> workers;
  std::atomic<int> next{0};
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&] {
      std::vector<float*> outs(tasks);
      for (int r = next.fetch_add(1); r < num_requests;
           r = next.fetch_add(1)) {
        for (int k = 0; k < tasks; ++k) {
          outs[k] =
              got[k].data() + static_cast<int64_t>(r) * sm.task_output_dim(k);
        }
        batcher.Infer(rows.data() + r * in, outs.data());
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int k = 0; k < tasks; ++k) {
    for (size_t i = 0; i < want[k].size(); ++i) {
      ASSERT_EQ(want[k][i], got[k][i]) << "task " << k << " element " << i;
    }
  }
  EXPECT_EQ(batcher.rows_executed(), num_requests);
  EXPECT_EQ(batcher.batches_executed(), num_requests);
  EXPECT_EQ(batcher.max_batch(), 1);
  EXPECT_EQ(batcher.deadline_us(), 0);
}

TEST(ServeBatcherDeterminismTest, SingleCallerMatchesSingleRow) {
  Fixture f;
  CheckInlineMatchesSingleRow(*f.serve_model, /*num_threads=*/1,
                              /*num_requests=*/16);
}

TEST(ServeBatcherDeterminismTest, ConcurrentCallersMatchSingleRow) {
  Fixture f;
  CheckInlineMatchesSingleRow(*f.serve_model, /*num_threads=*/4,
                              /*num_requests=*/64);
}

TEST(ServeBatcherDeterminismTest, OversubscribedCallersMatchSingleRow) {
  Fixture f;
  // More callers than cores: requests interleave at arbitrary points.
  CheckInlineMatchesSingleRow(*f.serve_model, /*num_threads=*/16,
                              /*num_requests=*/257);
}

}  // namespace
}  // namespace mocograd
