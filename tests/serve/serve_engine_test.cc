// The serving engine's two contracts (docs/SERVING.md): (1) equivalence —
// a frozen ServeModel forward is bitwise identical to the training
// MtlModel::Forward it snapshots, whether the weights came from the live
// module or from a nn/serialize checkpoint; (2) zero steady-state heap
// allocations on the request path — after warm-up, neither Forward nor
// MicroBatcher::Infer touches the allocator (activations on the thread's
// ScratchArena) or grows the arena's backing chunks.

#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "autograd/variable.h"
#include "base/scratch.h"
#include "base/thread_pool.h"
#include "mtl/cgc.h"
#include "mtl/hps.h"
#include "mtl/mmoe.h"
#include "nn/serialize.h"
#include "serve/batcher.h"
#include "serve/plan.h"

// Global operator new/delete instrumentation for the steady-state
// assertion. Counting is always on (plain relaxed atomics), asserted only
// inside the zero-alloc test.
static std::atomic<long long> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mocograd {
namespace {

using autograd::Variable;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The harness's AliExpress-style shapes (harness::ArchitectureFactory).
mtl::HpsConfig HpsShape() {
  mtl::HpsConfig cfg;
  cfg.input_dim = 10;
  cfg.shared_dims = {64, 32};
  cfg.task_output_dims = {1, 1};
  return cfg;
}

mtl::MmoeConfig MmoeShape() {
  mtl::MmoeConfig cfg;
  cfg.input_dim = 10;
  cfg.num_experts = 6;
  cfg.expert_dims = {64, 32};
  cfg.task_output_dims = {1, 1};
  return cfg;
}

mtl::CgcConfig CgcShape() {
  mtl::CgcConfig cfg;
  cfg.input_dim = 10;
  cfg.num_shared_experts = 3;
  cfg.num_task_experts = 1;
  cfg.expert_dims = {64, 32};
  cfg.task_output_dims = {1, 1};
  return cfg;
}

// The serving contract has two bitwise halves (docs/SERVING.md):
//  1. a single-row serve forward reproduces the training model's
//     single-row forward exactly, and
//  2. a batched serve forward of N rows reproduces N single-row serve
//     forwards exactly (a row's bits never depend on its batch-mates).
// Together they pin every served row, at any batch size, to the training
// model's single-row arithmetic. (A *batched* training forward is NOT the
// reference: for width-1 task heads Gemm's m>=2 dispatch reduces in a
// different lane order than m==1, so training itself is not row-invariant
// there — the serve engine mirrors the m==1 path instead.)
void ExpectSingleRowMatchesTraining(mtl::MtlModel& model,
                                    const serve::ServeModel& sm) {
  serve::InferenceSession session(sm);
  Rng rng(0x0b5e77e);
  Tensor x = Tensor::Randn({1, sm.input_dim()}, rng);

  std::vector<Variable> inputs(model.num_tasks(), Variable(x, false));
  std::vector<Variable> want = model.Forward(inputs);

  std::vector<std::vector<float>> got(sm.num_tasks());
  std::vector<float*> out_ptrs;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    got[k].resize(sm.task_output_dim(k));
    out_ptrs.push_back(got[k].data());
  }
  session.Forward(x.data(), 1, out_ptrs.data());

  for (int k = 0; k < sm.num_tasks(); ++k) {
    const Tensor& w = want[k].value();
    ASSERT_EQ(w.NumElements(), static_cast<int64_t>(got[k].size()));
    for (int64_t i = 0; i < w.NumElements(); ++i) {
      // Bitwise, not approximate: the serve kernels mirror the training
      // kernels' summation order and rounding exactly.
      EXPECT_EQ(w[i], got[k][i]) << "task " << k << " element " << i;
    }
  }
}

// Batched forward of `rows` == `rows` independent single-row forwards.
void ExpectRowInvariant(const serve::ServeModel& sm, int64_t rows) {
  serve::InferenceSession session(sm);
  Rng rng(0x5eed + rows);
  std::vector<float> x(rows * sm.input_dim());
  for (float& v : x) v = rng.Uniform(-2.0f, 2.0f);

  std::vector<std::vector<float>> batched(sm.num_tasks()), single(sm.num_tasks());
  std::vector<float*> out_ptrs(sm.num_tasks());
  for (int k = 0; k < sm.num_tasks(); ++k) {
    batched[k].resize(rows * sm.task_output_dim(k));
    single[k].resize(batched[k].size());
    out_ptrs[k] = batched[k].data();
  }
  session.Forward(x.data(), rows, out_ptrs.data());

  for (int64_t r = 0; r < rows; ++r) {
    for (int k = 0; k < sm.num_tasks(); ++k) {
      out_ptrs[k] = single[k].data() + r * sm.task_output_dim(k);
    }
    session.Forward(x.data() + r * sm.input_dim(), 1, out_ptrs.data());
  }
  for (int k = 0; k < sm.num_tasks(); ++k) {
    for (size_t i = 0; i < batched[k].size(); ++i) {
      EXPECT_EQ(batched[k][i], single[k][i])
          << "rows=" << rows << " task " << k << " element " << i;
    }
  }
}

TEST(ServeEngineTest, HpsMatchesTrainingModelBitwise) {
  Rng rng(11);
  mtl::HpsModel model(HpsShape(), rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildHpsPlan(HpsShape()),
                                          model);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  ExpectSingleRowMatchesTraining(model, sm.value());
  for (int64_t rows : {2, 7, 32}) ExpectRowInvariant(sm.value(), rows);
}

TEST(ServeEngineTest, MmoeMatchesTrainingModelBitwise) {
  Rng rng(12);
  mtl::MmoeModel model(MmoeShape(), rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildMmoePlan(MmoeShape()),
                                          model);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  ExpectSingleRowMatchesTraining(model, sm.value());
  for (int64_t rows : {2, 7, 32}) ExpectRowInvariant(sm.value(), rows);
}

TEST(ServeEngineTest, CgcMatchesTrainingModelBitwise) {
  Rng rng(13);
  mtl::CgcModel model(CgcShape(), rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildCgcPlan(CgcShape()),
                                          model);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  ExpectSingleRowMatchesTraining(model, sm.value());
  for (int64_t rows : {2, 7, 32}) ExpectRowInvariant(sm.value(), rows);
}

TEST(ServeEngineTest, FromCheckpointMatchesFromModule) {
  Rng rng(14);
  mtl::MmoeModel model(MmoeShape(), rng);
  const std::string path = TempPath("serve_mmoe.ckpt");
  ASSERT_TRUE(nn::SaveParameters(model, path).ok());

  const serve::ServePlan plan = serve::BuildMmoePlan(MmoeShape());
  auto from_ckpt = serve::ServeModel::FromCheckpoint(plan, path);
  ASSERT_TRUE(from_ckpt.ok()) << from_ckpt.status().ToString();
  ExpectSingleRowMatchesTraining(model, from_ckpt.value());
  ExpectRowInvariant(from_ckpt.value(), 5);
  std::remove(path.c_str());
}

TEST(ServeEngineTest, FromCheckpointRejectsMissingAndMismatched) {
  const serve::ServePlan plan = serve::BuildMmoePlan(MmoeShape());
  auto missing = serve::ServeModel::FromCheckpoint(
      plan, TempPath("serve_does_not_exist.ckpt"));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A checkpoint of a different architecture must be rejected on shapes.
  Rng rng(15);
  mtl::HpsModel hps(HpsShape(), rng);
  const std::string path = TempPath("serve_wrong_arch.ckpt");
  ASSERT_TRUE(nn::SaveParameters(hps, path).ok());
  auto wrong = serve::ServeModel::FromCheckpoint(plan, path);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ServeEngineTest, FromModuleRejectsWrongModule) {
  Rng rng(16);
  mtl::HpsModel hps(HpsShape(), rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildMmoePlan(MmoeShape()),
                                          hps);
  EXPECT_EQ(sm.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, ServingShapesAreBatchInvariant) {
  EXPECT_TRUE(serve::PlanIsBatchInvariant(serve::BuildHpsPlan(HpsShape())));
  EXPECT_TRUE(serve::PlanIsBatchInvariant(serve::BuildMmoePlan(MmoeShape())));
  EXPECT_TRUE(serve::PlanIsBatchInvariant(serve::BuildCgcPlan(CgcShape())));
}

TEST(ServeEngineTest, ForwardIsHeapAllocationFreeInSteadyState) {
  // Pool of 1: ParallelFor with more participants allocates its fork-join
  // state, which is kernel plumbing, not request-path work.
  ThreadPool::SetGlobalNumThreads(1);
  Rng rng(17);
  mtl::MmoeModel model(MmoeShape(), rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildMmoePlan(MmoeShape()),
                                          model);
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  serve::InferenceSession session(sm.value());
  serve::MicroBatcher batcher(sm.value());

  constexpr int64_t kRows = 16;
  std::vector<float> input(kRows * sm.value().input_dim());
  Rng xrng(18);
  for (float& v : input) v = xrng.Uniform() - 0.5f;
  std::vector<std::vector<float>> out(sm.value().num_tasks());
  std::vector<float*> out_ptrs;
  for (int k = 0; k < sm.value().num_tasks(); ++k) {
    out[k].resize(kRows * sm.value().task_output_dim(k));
    out_ptrs.push_back(out[k].data());
  }

  // Warm up: grows the scratch arena to its high-water mark.
  for (int i = 0; i < 3; ++i) {
    session.Forward(input.data(), kRows, out_ptrs.data());
    batcher.Infer(input.data(), out_ptrs.data());
  }

  const long long heap_before = g_heap_allocs.load();
  const int64_t chunks_before = ScratchArena::TotalChunkAllocs();
  for (int i = 0; i < 50; ++i) {
    session.Forward(input.data(), kRows, out_ptrs.data());
    session.Forward(input.data(), 1, out_ptrs.data());
    batcher.Infer(input.data(), out_ptrs.data());
  }
  EXPECT_EQ(g_heap_allocs.load(), heap_before)
      << "request path touched the heap";
  EXPECT_EQ(ScratchArena::TotalChunkAllocs(), chunks_before)
      << "request path grew the scratch arena";
}

}  // namespace
}  // namespace mocograd
