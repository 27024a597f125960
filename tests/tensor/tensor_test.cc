#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "base/scratch.h"
#include "tensor/ops.h"

namespace mocograd {
namespace {

namespace t = tops;

TEST(ShapeTest, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.Rank(), 3);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.Dim(1), 3);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(s.Strides(), (std::vector<int64_t>{12, 4, 1}));
}

TEST(ShapeTest, ScalarShape) {
  Shape s{};
  EXPECT_EQ(s.Rank(), 0);
  EXPECT_EQ(s.NumElements(), 1);
}

TEST(ShapeTest, BroadcastRules) {
  EXPECT_EQ(Shape::Broadcast({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(Shape::Broadcast({2, 1}, {1, 3}), (Shape{2, 3}));
  EXPECT_EQ(Shape::Broadcast({4, 1, 5}, {2, 1}), (Shape{4, 2, 5}));
  EXPECT_TRUE(Shape::BroadcastsTo({3}, {2, 3}));
  EXPECT_FALSE(Shape::BroadcastsTo({2}, {2, 3}));
}

TEST(TensorTest, FactoriesAndAccess) {
  Tensor z = Tensor::Zeros({2, 2});
  EXPECT_EQ(z.NumElements(), 4);
  EXPECT_FLOAT_EQ(z[3], 0.0f);

  Tensor o = Tensor::Ones({3});
  EXPECT_FLOAT_EQ(o[1], 1.0f);

  Tensor f = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(f.At(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(f.At(0, 1), 2.0f);

  Tensor a = Tensor::Arange(5);
  EXPECT_FLOAT_EQ(a[4], 4.0f);

  Tensor s = Tensor::Scalar(7.0f);
  EXPECT_FLOAT_EQ(s.Item(), 7.0f);
}

TEST(TensorTest, SharedStorageSemantics) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = a;  // shares storage
  b[0] = 9.0f;
  EXPECT_FLOAT_EQ(a[0], 9.0f);
  EXPECT_TRUE(a.SharesStorageWith(b));

  Tensor c = a.Clone();
  c[0] = 5.0f;
  EXPECT_FLOAT_EQ(a[0], 9.0f);
  EXPECT_FALSE(a.SharesStorageWith(c));
}

// 8192 floats = 32 KiB: at or above TensorStorage::kRecycleMinBytes.
constexpr int64_t kRecyclable = 8192;
static_assert(kRecyclable * 4 >= TensorStorage::kRecycleMinBytes);

TEST(TensorStorageTest, RecycledBufferIsZeroedForZeros) {
  { Tensor dirty = Tensor::Full({kRecyclable}, 7.0f); }
  const TensorStorage::Stats before = TensorStorage::GetStats();
  Tensor z = Tensor::Zeros({kRecyclable});
  const TensorStorage::Stats after = TensorStorage::GetStats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  for (int64_t i = 0; i < kRecyclable; ++i) ASSERT_EQ(z[i], 0.0f) << i;
}

TEST(TensorStorageTest, SmallBuffersBypassTheFreeList) {
  const TensorStorage::Stats before = TensorStorage::GetStats();
  { Tensor small = Tensor::Zeros({kRecyclable / 2 - 1}); }
  Tensor again = Tensor::Zeros({kRecyclable / 2 - 1});
  const TensorStorage::Stats after = TensorStorage::GetStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(TensorStorageTest, UninitializedIsPoisonedInPoisonBuilds) {
  if (!ScratchArena::PoisoningEnabled()) {
    GTEST_SKIP() << "MOCOGRAD_DEBUG_POISON is off in this build";
  }
  for (int64_t n : {int64_t{3}, kRecyclable}) {
    { Tensor dirty = Tensor::Full({n}, 1.0f); }  // recycled when large
    Tensor u = Tensor::Uninitialized({n});
    for (int64_t i = 0; i < n; ++i) {
      uint32_t bits;
      std::memcpy(&bits, u.data() + i, sizeof(bits));
      ASSERT_EQ(bits, ScratchArena::kPoisonPattern) << n << " at " << i;
    }
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(TensorStorageDeathTest, UseAfterReleaseTripsAsan) {
  EXPECT_DEATH(
      {
        const float* stale = nullptr;
        {
          Tensor t = Tensor::Zeros({kRecyclable});
          stale = t.data();
        }  // cached on the free list, poisoned for ASan
        volatile float v = stale[kRecyclable / 2];
        (void)v;
      },
      "use-after-poison");
}
#endif

TEST(TensorTest, ReshapeSharesAndInfers) {
  Tensor a = Tensor::Arange(6);
  Tensor m = a.Reshape({2, -1});
  EXPECT_EQ(m.shape(), (Shape{2, 3}));
  EXPECT_TRUE(m.SharesStorageWith(a));
  m.At(1, 2) = 42.0f;
  EXPECT_FLOAT_EQ(a[5], 42.0f);
}

TEST(TensorTest, RandomFactoriesDeterministic) {
  Rng rng1(7), rng2(7);
  Tensor a = Tensor::Randn({4, 4}, rng1);
  Tensor b = Tensor::Randn({4, 4}, rng2);
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

TEST(OpsTest, ElementwiseSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  Tensor sum = t::Add(a, b);
  EXPECT_FLOAT_EQ(sum[0], 11.0f);
  EXPECT_FLOAT_EQ(sum[3], 44.0f);
  Tensor prod = t::Mul(a, b);
  EXPECT_FLOAT_EQ(prod[2], 90.0f);
  Tensor diff = t::Sub(b, a);
  EXPECT_FLOAT_EQ(diff[1], 18.0f);
  Tensor quot = t::Div(b, a);
  EXPECT_FLOAT_EQ(quot[3], 10.0f);
}

TEST(OpsTest, BroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector({3}, {10, 20, 30});
  Tensor sum = t::Add(a, row);
  EXPECT_EQ(sum.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(sum.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(sum.At(1, 2), 36.0f);
}

TEST(OpsTest, BroadcastColVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = Tensor::FromVector({2, 1}, {100, 200});
  Tensor sum = t::Add(a, col);
  EXPECT_FLOAT_EQ(sum.At(0, 2), 103.0f);
  EXPECT_FLOAT_EQ(sum.At(1, 0), 204.0f);
}

TEST(OpsTest, MatMulAgainstHandComputed) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = t::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsTest, MatMulTransposedOperands) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  // a^T: [3,2]; a^T x b^T undefined; test (a^T)^T path via trans flags:
  Tensor at = t::Transpose2D(a);
  Tensor c1 = t::MatMul(at, b, /*trans_a=*/true, /*trans_b=*/false);
  Tensor c0 = t::MatMul(a, b);
  for (int64_t i = 0; i < c0.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(c1[i], c0[i]);
  }
  Tensor bt = t::Transpose2D(b);
  Tensor c2 = t::MatMul(a, bt, /*trans_a=*/false, /*trans_b=*/true);
  for (int64_t i = 0; i < c0.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(c2[i], c0[i]);
  }
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t::SumAll(a), 21.0f);
  EXPECT_FLOAT_EQ(t::MeanAll(a), 3.5f);
  EXPECT_FLOAT_EQ(t::MaxAll(a), 6.0f);
  EXPECT_NEAR(t::Norm(Tensor::FromVector({2}, {3, 4})), 5.0f, 1e-6);
  EXPECT_FLOAT_EQ(t::Dot(a, a), 91.0f);

  Tensor s0 = t::Sum(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0[0], 5.0f);
  EXPECT_FLOAT_EQ(s0[2], 9.0f);

  Tensor s1 = t::Sum(a, 1, /*keepdims=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1[0], 6.0f);
  EXPECT_FLOAT_EQ(s1[1], 15.0f);

  Tensor m1 = t::Mean(a, 1);
  EXPECT_FLOAT_EQ(m1[0], 2.0f);
  EXPECT_FLOAT_EQ(m1[1], 5.0f);
}

TEST(OpsTest, SumToShapeReducesBroadcastAxes) {
  Tensor g = Tensor::Ones({2, 3});
  Tensor r = t::SumToShape(g, Shape{3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(r[0], 2.0f);

  Tensor c = t::SumToShape(g, Shape{2, 1});
  EXPECT_EQ(c.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(c[1], 3.0f);

  Tensor same = t::SumToShape(g, Shape{2, 3});
  EXPECT_TRUE(same.SharesStorageWith(g));
}

TEST(OpsTest, SoftmaxRowsSumsToOne) {
  Rng rng(3);
  Tensor a = Tensor::Randn({5, 7}, rng, 0.0f, 3.0f);
  Tensor s = t::SoftmaxRows(a);
  for (int64_t i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.At(i, j), 0.0f);
      sum += s.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor ls = t::LogSoftmaxRows(a);
  Tensor s = t::SoftmaxRows(a);
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5);
  }
}

TEST(OpsTest, ArgMaxRows) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 5, 2, 9, 0, 3});
  auto idx = t::ArgMaxRows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(OpsTest, GatherScatterRoundTrip) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = t::GatherRows(table, {2, 0, 2});
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(g.At(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.At(1, 1), 2.0f);

  Tensor scattered = t::ScatterAddRows(g, {2, 0, 2}, 3);
  EXPECT_FLOAT_EQ(scattered.At(0, 0), 1.0f);   // from row 1 of g
  EXPECT_FLOAT_EQ(scattered.At(2, 0), 10.0f);  // rows 0 and 2 of g
  EXPECT_FLOAT_EQ(scattered.At(1, 0), 0.0f);
}

TEST(OpsTest, SliceColsAndConcatInverse) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor left = t::SliceCols(a, 0, 2);
  Tensor right = t::SliceCols(a, 2, 2);
  EXPECT_FLOAT_EQ(left.At(1, 1), 6.0f);
  EXPECT_FLOAT_EQ(right.At(0, 0), 3.0f);
  Tensor back = t::Concat({left, right}, 1);
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(back[i], a[i]);
  }
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = t::Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(c.At(2, 1), 6.0f);
}

TEST(OpsTest, SplitInvertsConcat) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto parts = t::Split(a, 1, {1, 2});
  EXPECT_EQ(parts[0].shape(), (Shape{2, 1}));
  EXPECT_EQ(parts[1].shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(parts[0].At(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(parts[1].At(0, 0), 2.0f);
}

TEST(OpsTest, UnaryFunctions) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0.5, 2});
  Tensor r = t::Relu(a);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[3], 2.0f);
  Tensor s = t::Sigmoid(Tensor::Zeros({1}));
  EXPECT_FLOAT_EQ(s[0], 0.5f);
  Tensor abs = t::Abs(a);
  EXPECT_FLOAT_EQ(abs[0], 2.0f);
  Tensor sign = t::Sign(a);
  EXPECT_FLOAT_EQ(sign[0], -1.0f);
  EXPECT_FLOAT_EQ(sign[2], 1.0f);
  Tensor cl = t::Clamp(a, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(cl[0], -1.0f);
  EXPECT_FLOAT_EQ(cl[3], 1.0f);
}

TEST(OpsTest, InPlaceHelpers) {
  Tensor x = Tensor::FromVector({3}, {1, 2, 3});
  Tensor y = Tensor::FromVector({3}, {10, 10, 10});
  t::Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 16.0f);
  t::ScaleInPlace(y, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  t::AddInPlace(y, x);
  EXPECT_FLOAT_EQ(y[1], 9.0f);
}

TEST(Im2ColTest, IdentityKernelLayout) {
  // 1x1 kernel, stride 1, no padding: im2col is the identity layout.
  tops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 1;
  spec.kernel = 1;
  spec.stride = 1;
  spec.padding = 0;
  Tensor x = Tensor::Arange(2 * 3 * 3).Reshape({2, 3, 3});
  std::vector<float> cols(2 * 9);
  t::Im2Col(x.data(), spec, 3, 3, cols.data());
  for (int i = 0; i < 18; ++i) EXPECT_FLOAT_EQ(cols[i], float(i));
}

TEST(Im2ColTest, PaddingProducesZeros) {
  tops::Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = 3;
  spec.stride = 1;
  spec.padding = 1;
  Tensor x = Tensor::Ones({1, 2, 2});
  std::vector<float> cols(9 * 4);
  t::Im2Col(x.data(), spec, 2, 2, cols.data());
  // First patch (output (0,0)) has its top-left corner in padding.
  EXPECT_FLOAT_EQ(cols[0 * 4 + 0], 0.0f);  // (ki=0,kj=0) at output 0
  EXPECT_FLOAT_EQ(cols[4 * 4 + 0], 1.0f);  // center tap sees the image
}

TEST(Im2ColTest, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
  tops::Conv2dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 1;
  spec.kernel = 3;
  spec.stride = 2;
  spec.padding = 1;
  const int64_t h = 5, w = 4;
  const int64_t oh = spec.OutDim(h), ow = spec.OutDim(w);
  const int64_t patch = spec.in_channels * 9;
  Rng rng(11);
  Tensor x = Tensor::Randn({2, h, w}, rng);
  std::vector<float> cols(patch * oh * ow);
  t::Im2Col(x.data(), spec, h, w, cols.data());

  Tensor y = Tensor::Randn({patch * oh * ow}, rng);
  double lhs = 0.0;
  for (size_t i = 0; i < cols.size(); ++i) lhs += double(cols[i]) * y[i];

  Tensor xg = Tensor::Zeros({2, h, w});
  t::Col2Im(y.data(), spec, h, w, xg.data());
  double rhs = 0.0;
  for (int64_t i = 0; i < x.NumElements(); ++i) {
    rhs += double(x[i]) * xg[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace mocograd
