// Steady-state memory behaviour of MtlTrainer::Step (docs/ARCHITECTURE.md
// "Tensor storage"): once warmed up, a step on fixed shapes takes every
// tensor buffer of at least TensorStorage::kRecycleMinBytes from the free
// list and reuses one GradMatrix, and recycled (unset) storage never
// changes a result — the same steps at pools 1 and 4 give the same bits.
//
// The two model shapes are the benchmark's training workloads: the
// AliExpress EmbeddingHps model at K = 2 and the QM9 HPS {512, 384} trunk
// at K = 11.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/executor.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/registry.h"
#include "data/aliexpress.h"
#include "data/qm9.h"
#include "harness/experiment.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace mocograd {
namespace {

struct Workload {
  std::string name;
  int batch = 0;
};

const Workload kWorkloads[] = {{"paper_k2", 64}, {"wide_k11", 32}};

// Dataset, model, aggregator, optimizer and trainer of one workload, all
// seeded from `seed`.
struct Setup {
  std::unique_ptr<data::MtlDataset> dataset;
  std::unique_ptr<mtl::MtlModel> model;
  std::unique_ptr<core::GradientAggregator> aggregator;
  std::unique_ptr<optim::Optimizer> optimizer;
  std::unique_ptr<mtl::MtlTrainer> trainer;
  Rng data_rng{0};
  int batch = 0;

  std::vector<float> Step() {
    return trainer->Step(dataset->SampleTrainBatches(batch, data_rng)).losses;
  }
};

std::unique_ptr<Setup> Build(const Workload& w, uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->batch = w.batch;
  harness::ModelFactory factory;
  if (w.name == "paper_k2") {
    data::AliExpressConfig cfg;
    cfg.seed = seed;
    s->dataset = std::make_unique<data::AliExpressSim>(cfg);
    factory = harness::EmbeddingHpsFactory(/*dense_dim=*/8,
                                           /*num_user_segments=*/16,
                                           /*num_item_categories=*/32);
  } else {
    data::Qm9Config cfg;
    cfg.seed = seed;
    s->dataset = std::make_unique<data::Qm9Sim>(cfg);
    factory = harness::MlpHpsFactory(/*input_dim=*/16, {512, 384});
  }
  const int k = s->dataset->num_tasks();
  std::vector<data::TaskKind> kinds;
  for (int t = 0; t < k; ++t) kinds.push_back(s->dataset->task_kind(t));
  Rng init_rng(seed + 1);
  s->model = factory(std::vector<int64_t>(k, 1), init_rng);
  s->aggregator = core::MakeAggregator("mocograd").value();
  s->optimizer =
      std::make_unique<optim::Adam>(s->model->Parameters(), 1e-2f);
  s->trainer = std::make_unique<mtl::MtlTrainer>(
      s->model.get(), s->aggregator.get(), s->optimizer.get(), kinds,
      seed + 2);
  s->data_rng = Rng(seed + 3);
  return s;
}

class TrainerStorageTest : public ::testing::TestWithParam<Workload> {
 protected:
  void SetUp() override { previous_ = autograd::CurrentBackwardExecutor(); }
  void TearDown() override {
    autograd::SetBackwardExecutor(previous_);
    ThreadPool::SetGlobalNumThreads(1);
  }

 private:
  autograd::BackwardExecutor previous_ =
      autograd::BackwardExecutor::kReadyQueue;
};

TEST_P(TrainerStorageTest, WarmStepsTakeEveryLargeBufferFromTheFreeList) {
  ThreadPool::SetGlobalNumThreads(1);
  auto s = Build(GetParam(), /*seed=*/7);
  for (int step = 0; step < 3; ++step) s->Step();
  const core::GradMatrix* grads = s->trainer->last_task_grads();
  ASSERT_NE(grads, nullptr);
  const float* row0 = grads->Row(0);

  const TensorStorage::Stats before = TensorStorage::GetStats();
  for (int step = 0; step < 4; ++step) s->Step();
  const TensorStorage::Stats after = TensorStorage::GetStats();

  // Every recyclable request is a hit; a miss is a heap allocation.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(s->trainer->last_task_grads(), grads);
  EXPECT_EQ(s->trainer->last_task_grads()->Row(0), row0);
}

TEST_P(TrainerStorageTest, PoolsOneAndFourGiveBitwiseEqualLosses) {
  autograd::SetBackwardExecutor(autograd::BackwardExecutor::kReadyQueue);
  auto run = [](int threads) {
    ThreadPool::SetGlobalNumThreads(threads);
    auto s = Build(GetParam(), /*seed=*/11);
    std::vector<float> losses;
    for (int step = 0; step < 4; ++step) {
      const std::vector<float> l = s->Step();
      losses.insert(losses.end(), l.begin(), l.end());
    }
    return losses;
  };
  const std::vector<float> pool1 = run(1);
  const std::vector<float> pool4 = run(4);
  ASSERT_EQ(pool1.size(), pool4.size());
  EXPECT_EQ(std::memcmp(pool1.data(), pool4.data(),
                        pool1.size() * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(BenchmarkShapes, TrainerStorageTest,
                         ::testing::ValuesIn(kWorkloads),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace mocograd
