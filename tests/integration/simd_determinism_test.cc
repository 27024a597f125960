// The SIMD layer's core guarantee (docs/SIMD.md): every runtime-dispatch
// kernel tier — scalar, SSE, NEON, AVX2, AVX-512 — produces bit-identical
// results, for every kernel, at every pool size. Combined with the
// thread-determinism contract this means a training run's bits depend on
// none of MOCOGRAD_SIMD, MOCOGRAD_SIMD_ISA, or MOCOGRAD_NUM_THREADS.
//
// On builds without a hardware backend (MOCOGRAD_ENABLE_SIMD=OFF or an ISA
// without one) SetEnabled is a no-op, only the scalar tier exists, and the
// comparisons trivially hold.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "base/bf16.h"
#include "base/rng.h"
#include "base/simd.h"
#include "base/thread_pool.h"
#include "base/vec_ops.h"
#include "core/grad_matrix.h"
#include "core/registry.h"
#include "mtl/hps.h"
#include "mtl/trainer.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mocograd {
namespace {

using autograd::Variable;
using data::Batch;
using data::TaskKind;

// (simd enabled, pool size) grid; the (true, 1) cell is the reference.
const std::pair<bool, int> kConfigs[] = {
    {true, 1}, {true, 2}, {true, 8}, {false, 1}, {false, 2}, {false, 8}};

// Every tier this host can actually run (SetTier clamps unavailable
// requests down, so requesting each tier and keeping the exact grants
// enumerates the usable set — always at least {scalar}).
std::vector<simd::IsaTier> AvailableTiers() {
  std::vector<simd::IsaTier> tiers;
  for (simd::IsaTier t :
       {simd::IsaTier::kScalar, simd::IsaTier::kSse, simd::IsaTier::kNeon,
        simd::IsaTier::kAvx2, simd::IsaTier::kAvx512}) {
    simd::SetTier(t);
    if (simd::ActiveTier() == t) tiers.push_back(t);
  }
  simd::SetEnabled(true);
  return tiers;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.NumElements() == b.NumElements() &&
         std::memcmp(a.data(), b.data(), a.NumElements() * sizeof(float)) ==
             0;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class SimdDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalNumThreads(1);
    simd::SetEnabled(true);  // no-op on scalar-only builds
  }
};

TEST_F(SimdDeterminismTest, GemmBitIdenticalAcrossBackendsAndPools) {
  Rng rng(42);
  const int64_t m = 67, n = 83, k = 129;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c0 = Tensor::Randn({m, n}, rng);
  Tensor at = tops::Transpose2D(a);
  Tensor bt = tops::Transpose2D(b);

  Tensor ref_plain, ref_trans;
  for (const auto& [enabled, threads] : kConfigs) {
    simd::SetEnabled(enabled);
    ThreadPool::SetGlobalNumThreads(threads);
    Tensor c = c0.Clone();
    Gemm(false, false, m, n, k, 1.3f, a.data(), k, b.data(), n, 0.7f,
         c.data(), n);
    Tensor ct = c0.Clone();
    Gemm(true, true, m, n, k, -0.5f, at.data(), m, bt.data(), k, 1.0f,
         ct.data(), n);
    if (!ref_plain.defined()) {
      ref_plain = c;
      ref_trans = ct;
    } else {
      EXPECT_TRUE(BitIdentical(ref_plain, c))
          << "Gemm differs (simd=" << enabled << ", threads=" << threads
          << ")";
      EXPECT_TRUE(BitIdentical(ref_trans, ct))
          << "transposed Gemm differs (simd=" << enabled
          << ", threads=" << threads << ")";
    }
  }
}

TEST_F(SimdDeterminismTest, TensorKernelsBitIdenticalAcrossBackendsAndPools) {
  Rng rng(7);
  // Large enough for several reduction blocks and elementwise chunks.
  Tensor a = Tensor::Randn({100003}, rng);
  Tensor b = Tensor::Randn({100003}, rng);
  // Salt the inputs with the values on which Max/Min backends can disagree
  // (the contract pins second-operand-wins on unordered and +/-0 ties):
  // NaN, +/-Inf and -0.0, placed both inside full 8-lane blocks and in the
  // scalar <8-element tail (n = 100003, tail = indices 100000..100002).
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const int64_t kSpecial[][2] = {
      // {index, 0 = a / 1 = b}
      {5, 0},     {6, 1},     {777, 0},    {778, 0},    {4096, 1},
      {4097, 0},  {50001, 0}, {50002, 1},  {100000, 0}, {100001, 1},
      {100002, 0}};
  const float kVals[] = {kNan, kNan, -0.0f, kInf,  -kInf, kNan,
                         -0.0f, kInf, kNan,  -0.0f, -kInf};
  for (size_t i = 0; i < std::size(kSpecial); ++i) {
    (kSpecial[i][1] ? b : a).data()[kSpecial[i][0]] = kVals[i];
  }
  // Pairs where a lane of a is special while the same lane of b is finite
  // (and vice versa) so Maximum's tie-breaking is actually exercised.
  a.data()[9] = kNan;
  b.data()[9] = 1.0f;
  a.data()[10] = 2.0f;
  b.data()[10] = kNan;
  a.data()[11] = -0.0f;
  b.data()[11] = 0.0f;
  a.data()[12] = 0.0f;
  b.data()[12] = -0.0f;

  bool have_ref = false;
  float sum0 = 0, norm0 = 0, dot0 = 0;
  Tensor add0, mul0, relu0, clamp0, max0, axpy0;
  for (const auto& [enabled, threads] : kConfigs) {
    simd::SetEnabled(enabled);
    ThreadPool::SetGlobalNumThreads(threads);
    const float sum = tops::SumAll(a);
    const float norm = tops::Norm(a);
    const float dot = tops::Dot(a, b);
    Tensor add = tops::Add(a, b);
    Tensor mul = tops::Mul(a, b);
    Tensor relu = tops::Relu(a);
    Tensor clamp = tops::Clamp(a, -0.5f, 0.5f);
    Tensor max = tops::Maximum(a, b);
    Tensor axpy = a.Clone();
    tops::Axpy(0.37f, b, axpy);
    if (!have_ref) {
      have_ref = true;
      sum0 = sum;
      norm0 = norm;
      dot0 = dot;
      add0 = add;
      mul0 = mul;
      relu0 = relu;
      clamp0 = clamp;
      max0 = max;
      axpy0 = axpy;
      // The contract's pinned semantics, identical on every backend: the
      // second operand of Max/Min wins on unordered comparisons and on
      // +/-0 ties.
      auto bits = [](float x) {
        uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return u;
      };
      EXPECT_EQ(bits(relu.data()[5]), bits(0.0f));    // Relu(NaN) == +0.0
      EXPECT_EQ(bits(relu.data()[777]), bits(0.0f));  // Relu(-0.0) == +0.0
      // tops::Maximum(a, b) == std::max(a, b) lane-for-lane: the FIRST
      // tensor's element wins on unordered comparisons and +/-0 ties.
      EXPECT_TRUE(std::isnan(max.data()[9]));         // Maximum(NaN, 1)
      EXPECT_EQ(bits(max.data()[10]), bits(2.0f));    // Maximum(2, NaN)
      EXPECT_EQ(bits(max.data()[11]), bits(-0.0f));   // Maximum(-0, +0)
      EXPECT_EQ(bits(max.data()[12]), bits(0.0f));    // Maximum(+0, -0)
    } else {
      EXPECT_EQ(std::memcmp(&sum, &sum0, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&norm, &norm0, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&dot, &dot0, sizeof(float)), 0);
      EXPECT_TRUE(BitIdentical(add0, add));
      EXPECT_TRUE(BitIdentical(mul0, mul));
      EXPECT_TRUE(BitIdentical(relu0, relu))
          << "Relu differs (simd=" << enabled << ", threads=" << threads
          << ")";
      EXPECT_TRUE(BitIdentical(clamp0, clamp))
          << "Clamp differs (simd=" << enabled << ", threads=" << threads
          << ")";
      EXPECT_TRUE(BitIdentical(max0, max))
          << "Maximum differs (simd=" << enabled << ", threads=" << threads
          << ")";
      EXPECT_TRUE(BitIdentical(axpy0, axpy))
          << "Axpy differs (simd=" << enabled << ", threads=" << threads
          << ")";
    }
  }
}

TEST_F(SimdDeterminismTest, GradMatrixOpsBitIdenticalAcrossBackendsAndPools) {
  Rng rng(11);
  const int kTasks = 3;
  const int64_t dim = 120001;
  core::GradMatrix grads(kTasks, dim);
  for (int t = 0; t < kTasks; ++t) {
    float* row = grads.Row(t);
    for (int64_t p = 0; p < dim; ++p) row[p] = rng.Normal();
  }
  const std::vector<double> w = {0.2, 1.7, -0.4};

  bool have_ref = false;
  double dot0 = 0;
  std::vector<float> sum0, wsum0;
  std::vector<std::vector<double>> gram0;
  for (const auto& [enabled, threads] : kConfigs) {
    simd::SetEnabled(enabled);
    ThreadPool::SetGlobalNumThreads(threads);
    const double dot = grads.RowDot(0, 1);
    std::vector<float> sum = grads.SumRows();
    std::vector<float> wsum = grads.WeightedSumRows(w);
    std::vector<std::vector<double>> gram = grads.Gram();
    if (!have_ref) {
      have_ref = true;
      dot0 = dot;
      sum0 = std::move(sum);
      wsum0 = std::move(wsum);
      gram0 = std::move(gram);
      EXPECT_EQ(std::memcmp(&gram0[0][1], &dot0, sizeof(double)), 0);
    } else {
      EXPECT_EQ(std::memcmp(&dot, &dot0, sizeof(double)), 0);
      for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(std::memcmp(gram[i].data(), gram0[i].data(),
                              kTasks * sizeof(double)),
                  0)
            << "Gram row " << i << " differs (simd=" << enabled
            << ", threads=" << threads << ")";
      }
      EXPECT_TRUE(BitIdentical(sum0, sum));
      EXPECT_TRUE(BitIdentical(wsum0, wsum));
    }
  }
}

TEST_F(SimdDeterminismTest, OptimizerStepsBitIdenticalAcrossBackendsAndPools) {
  auto run = [](bool enabled, int threads) {
    simd::SetEnabled(enabled);
    ThreadPool::SetGlobalNumThreads(threads);
    Rng rng(99);
    Variable w(Tensor::Randn({37, 21}, rng), /*requires_grad=*/true);
    Tensor g = Tensor::Randn({37, 21}, rng);
    optim::Adam opt({&w}, 1e-2f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
    for (int step = 0; step < 5; ++step) {
      w.mutable_grad().CopyFrom(g);
      opt.Step();
    }
    return w.value().Clone();
  };
  Tensor ref = run(true, 1);
  for (const auto& [enabled, threads] : kConfigs) {
    EXPECT_TRUE(BitIdentical(ref, run(enabled, threads)))
        << "Adam differs (simd=" << enabled << ", threads=" << threads << ")";
  }
}

// End to end: a short MoCoGrad training run — forward, per-task backward,
// aggregation (dots, axpys, EMA), Adam — leaves bit-identical parameters
// whatever the backend and pool size.
TEST_F(SimdDeterminismTest, TrainerStepsBitIdenticalAcrossBackendsAndPools) {
  auto run = [](bool enabled, int threads) {
    simd::SetEnabled(enabled);
    ThreadPool::SetGlobalNumThreads(threads);
    Rng rng(123);
    mtl::HpsConfig cfg;
    cfg.input_dim = 48;
    cfg.shared_dims = {96, 64};
    cfg.task_output_dims = {1, 1, 1};
    mtl::HpsModel model(cfg, rng);

    Tensor x = Tensor::Randn({64, 48}, rng);
    std::vector<Batch> batches;
    for (int t = 0; t < 3; ++t) {
      Tensor y = Tensor::Randn({64, 1}, rng);
      batches.push_back(Batch{.x = x, .y = y, .labels = {}});
    }

    auto aggregator = core::MakeAggregator("mocograd").value();
    optim::Adam opt(model.Parameters(), 1e-2f);
    mtl::MtlTrainer trainer(&model, aggregator.get(), &opt,
                            {TaskKind::kRegression, TaskKind::kRegression,
                             TaskKind::kRegression},
                            /*seed=*/17);
    std::vector<float> losses;
    for (int step = 0; step < 4; ++step) {
      mtl::StepStats stats = trainer.Step(batches);
      losses.insert(losses.end(), stats.losses.begin(), stats.losses.end());
    }
    std::vector<Tensor> params;
    for (Variable* p : model.Parameters()) {
      params.push_back(p->value().Clone());
    }
    return std::make_pair(params, losses);
  };

  auto [params0, losses0] = run(true, 1);
  for (const auto& [enabled, threads] : kConfigs) {
    auto [params, losses] = run(enabled, threads);
    ASSERT_EQ(params.size(), params0.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(BitIdentical(params0[i], params[i]))
          << "parameter " << i << " differs (simd=" << enabled
          << ", threads=" << threads << ")";
    }
    ASSERT_EQ(losses.size(), losses0.size());
    EXPECT_TRUE(BitIdentical(losses0, losses))
        << "losses differ (simd=" << enabled << ", threads=" << threads
        << ")";
  }
}

// The per-tier battery: every tier the host can run — not just the
// enabled/disabled pair above — produces bit-identical GEMM (all shape
// paths), bf16 GEMM, elementwise, reduction, and optimizer results at
// several pool sizes. This is the cross-tier half of the runtime-dispatch
// contract; run_tests.sh additionally re-runs whole suites under
// MOCOGRAD_SIMD_ISA=scalar / sse to pin the startup-selection half.
TEST_F(SimdDeterminismTest, AllTiersBitIdentical) {
  Rng rng(314);
  const int64_t m = 37, n = 51, k = 129;  // streaming path, ragged panels
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c0 = Tensor::Randn({m, n}, rng);
  const int64_t bm = 33, bn = 300;  // blocked path (m >= 16, n >= 256)
  Tensor ba = Tensor::Randn({bm, k}, rng);
  Tensor bb = Tensor::Randn({k, bn}, rng);
  Tensor ew = Tensor::Randn({10007}, rng);
  std::vector<uint16_t> b16(static_cast<size_t>(k) * n);
  for (size_t i = 0; i < b16.size(); ++i) b16[i] = Bf16FromF32(bb.data()[i]);
  // Rows for the multi-pair dot tile: a ragged tail (1003 = 125 full 8-lane
  // steps + 3), ±0 salt in rows 0-1, and a NaN in row 3 (one in a full
  // step, one in the tail), so both finite and NaN tile entries compare.
  const int64_t tn = 1003;
  Tensor trows = Tensor::Randn({vec::kDotTile, tn}, rng);
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  trows.data()[0] = -0.0f;
  trows.data()[tn - 1] = 0.0f;
  trows.data()[tn + 17] = -0.0f;
  trows.data()[2 * tn - 2] = -0.0f;
  trows.data()[3 * tn + 40] = kNan;
  trows.data()[4 * tn - 1] = kNan;
  const float* tr[vec::kDotTile];
  for (int r = 0; r < vec::kDotTile; ++r) tr[r] = trows.data() + r * tn;
  // Every tile shape, rectangular and upper-triangular; each entry must be
  // bitwise the single-pair DotF64 of the same tier.
  auto tile_dots = [&]() {
    std::vector<double> dots;
    for (bool upper : {false, true}) {
      for (int na = 1; na <= vec::kDotTile; ++na) {
        for (int nb = 1; nb <= vec::kDotTile; ++nb) {
          if (upper && na != nb) continue;
          const float* const* b = upper ? tr : tr + (vec::kDotTile - nb);
          double out[vec::kDotTile * vec::kDotTile];
          vec::DotF64Tile(tn, tr, na, b, nb, upper, out);
          for (int r = 0; r < na; ++r) {
            for (int c = upper ? r : 0; c < nb; ++c) {
              const double want = vec::DotF64(tn, tr[r], b[c]);
              EXPECT_EQ(std::memcmp(&out[r * nb + c], &want, sizeof(double)),
                        0)
                  << "tile " << na << "x" << nb << " upper=" << upper
                  << " (" << r << ", " << c << ")";
              dots.push_back(out[r * nb + c]);
            }
          }
        }
      }
    }
    return dots;
  };

  // Row broadcasts ([n, d] against [d] and [1, d], the bias add) for every
  // binary op, on a ragged width and on one wide enough to split rows
  // across the pool, with NaN/±0 salt in both operands (and a zero divisor).
  // Each must be bitwise the generic strided walk, reached here through a
  // rank-3 view of the same [n, d] operand.
  std::vector<std::pair<Tensor, Tensor>> rb_inputs;
  for (auto [rn, rd] : {std::pair<int64_t, int64_t>{5, 37}, {200, 301}}) {
    Tensor ra = Tensor::Randn({rn, rd}, rng);
    Tensor rb = Tensor::Randn({rd}, rng);
    ra.data()[0] = -0.0f;
    ra.data()[3] = kNan;
    ra.data()[rd + 2] = 0.0f;
    ra.data()[rd + 5] = -0.0f;
    ra.data()[rn * rd - 1] = -0.0f;
    rb.data()[0] = 0.0f;
    rb.data()[2] = -0.0f;
    rb.data()[5] = 0.0f;
    rb.data()[rd - 1] = kNan;
    rb_inputs.emplace_back(ra, rb);
  }
  using BinaryOp = Tensor (*)(const Tensor&, const Tensor&);
  const std::pair<const char*, BinaryOp> kBinaryOps[] = {
      {"Add", tops::Add},
      {"Sub", tops::Sub},
      {"Mul", tops::Mul},
      {"Div", tops::Div},
      {"Maximum", tops::Maximum}};
  auto row_broadcasts = [&]() {
    std::vector<Tensor> outs;
    for (const auto& [ra, rb] : rb_inputs) {
      const int64_t rn = ra.Dim(0), rd = ra.Dim(1);
      const Tensor ra3 = ra.Reshape({rn, 1, rd});
      for (const auto& [name, op] : kBinaryOps) {
        const Tensor generic = op(ra3, rb);
        for (const Tensor& b : {rb, rb.Reshape({1, rd})}) {
          Tensor row = op(ra, b);
          EXPECT_TRUE(BitIdentical(row, generic))
              << name << " row broadcast [" << rn << ", " << rd
              << "] x " << b.shape().ToString()
              << " differs from the strided walk";
          outs.push_back(row);
        }
      }
    }
    return outs;
  };

  const std::vector<simd::IsaTier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());

  Tensor ref_c, ref_blk, ref_relu, ref_opt;
  std::vector<Tensor> ref_rows;
  std::vector<float> ref_bf16, ref_bf16_row;
  std::vector<double> ref_tile;
  float ref_sum = 0.0f;
  bool have_ref = false;
  for (simd::IsaTier tier : tiers) {
    for (int threads : {1, 4}) {
      simd::SetTier(tier);
      ASSERT_EQ(simd::ActiveTier(), tier);
      ThreadPool::SetGlobalNumThreads(threads);

      Tensor c = c0.Clone();
      Gemm(false, false, m, n, k, 1.3f, a.data(), k, b.data(), n, 0.7f,
           c.data(), n);
      Tensor blk = Tensor::Zeros({bm, bn});
      Gemm(false, false, bm, bn, k, 1.0f, ba.data(), k, bb.data(), bn, 0.0f,
           blk.data(), bn);
      std::vector<float> cbf(static_cast<size_t>(m) * n);
      GemmBf16B(m, n, k, a.data(), k, b16.data(), n, cbf.data(), n);
      std::vector<float> cbf_row(static_cast<size_t>(n));
      GemmBf16B(1, n, k, a.data(), k, b16.data(), n, cbf_row.data(), n);
      Tensor relu = tops::Relu(ew);
      const float sum = tops::SumAll(ew);
      Rng wrng(5), grng(6);
      Variable w(Tensor::Randn({13, 7}, wrng), /*requires_grad=*/true);
      optim::Adam opt({&w}, 1e-2f);
      w.mutable_grad().CopyFrom(Tensor::Randn({13, 7}, grng));
      opt.Step();
      const std::vector<double> tile = tile_dots();
      const std::vector<Tensor> rows = row_broadcasts();

      if (!have_ref) {
        have_ref = true;
        ref_c = c;
        ref_blk = blk;
        ref_bf16 = cbf;
        ref_bf16_row = cbf_row;
        ref_relu = relu;
        ref_sum = sum;
        ref_opt = w.value().Clone();
        ref_tile = tile;
        ref_rows = rows;
        // The bf16 batched rows and the m == 1 row agree per element
        // (batch-invariant serving).
        for (int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(cbf[static_cast<size_t>(j)], cbf_row[j]) << j;
        }
      } else {
        const char* name = simd::TierName(tier);
        EXPECT_TRUE(BitIdentical(ref_c, c))
            << "Gemm differs (tier=" << name << ", threads=" << threads
            << ")";
        EXPECT_TRUE(BitIdentical(ref_blk, blk))
            << "blocked Gemm differs (tier=" << name
            << ", threads=" << threads << ")";
        EXPECT_TRUE(BitIdentical(ref_bf16, cbf))
            << "GemmBf16B differs (tier=" << name << ", threads=" << threads
            << ")";
        EXPECT_TRUE(BitIdentical(ref_bf16_row, cbf_row))
            << "GemmBf16B m=1 differs (tier=" << name
            << ", threads=" << threads << ")";
        EXPECT_TRUE(BitIdentical(ref_relu, relu))
            << "Relu differs (tier=" << name << ", threads=" << threads
            << ")";
        EXPECT_EQ(std::memcmp(&sum, &ref_sum, sizeof(float)), 0)
            << "SumAll differs (tier=" << name << ", threads=" << threads
            << ")";
        EXPECT_TRUE(BitIdentical(ref_opt, w.value()))
            << "Adam differs (tier=" << name << ", threads=" << threads
            << ")";
        EXPECT_TRUE(tile.size() == ref_tile.size() &&
                    std::memcmp(tile.data(), ref_tile.data(),
                                tile.size() * sizeof(double)) == 0)
            << "DotF64Tile differs (tier=" << name << ", threads=" << threads
            << ")";
        ASSERT_EQ(rows.size(), ref_rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_TRUE(BitIdentical(ref_rows[i], rows[i]))
              << "row broadcast " << i << " differs (tier=" << name
              << ", threads=" << threads << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace mocograd
