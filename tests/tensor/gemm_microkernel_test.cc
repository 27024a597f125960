// Property tests for the register-blocked SIMD Gemm microkernel
// (tensor/gemm.cc): exhaustive small-shape sweep against a double-precision
// naive reference, with non-contiguous leading dimensions, both transpose
// flags, and the alpha/beta edge cases — plus regression tests for the
// IEEE-754 corners the old kernel got wrong (a zero A value used to skip
// the B row entirely, swallowing NaN/Inf from B; beta == 0 now overwrites C
// without reading it, BLAS-style).

#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/scratch.h"
#include "base/thread_pool.h"

namespace mocograd {
namespace {

// Reference C = alpha*op(A)*op(B) + beta*C with double accumulation and
// BLAS beta==0 semantics (C written, never read).
void ReferenceGemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                   float alpha, const std::vector<float>& a, int64_t lda,
                   const std::vector<float>& b, int64_t ldb, float beta,
                   std::vector<float>& c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      const float scaled = alpha * static_cast<float>(acc);
      c[i * ldc + j] =
          beta == 0.0f ? scaled : scaled + beta * c[i * ldc + j];
    }
  }
}

TEST(GemmMicrokernelTest, SmallShapeSweepVsReference) {
  // Covers every row-block remainder (m % 6), panel remainder (n % 16) and
  // lane tail (k parity), including shapes smaller than one tile.
  const int dims[] = {1, 2, 3, 7, 8, 9, 17, 64};
  const struct {
    float alpha, beta;
  } scalings[] = {{1.0f, 0.0f}, {2.5f, -1.0f}, {-1.0f, 1.0f}, {0.0f, 0.5f}};

  for (int m : dims) {
    for (int n : dims) {
      for (int k : dims) {
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            const auto& s = scalings[(m + n + k + ta + 2 * tb) %
                                     (sizeof(scalings) / sizeof(scalings[0]))];
            Rng rng(static_cast<uint64_t>(m * 1009 + n * 131 + k * 17 +
                                          ta * 3 + tb * 5));
            // Non-contiguous storage: every matrix carries padding columns
            // that the kernel must stride over, never read past.
            const int64_t lda = (ta ? m : k) + 3;
            const int64_t ldb = (tb ? k : n) + 5;
            const int64_t ldc = n + 2;
            std::vector<float> a(static_cast<size_t>(ta ? k : m) * lda);
            std::vector<float> b(static_cast<size_t>(tb ? n : k) * ldb);
            std::vector<float> c0(static_cast<size_t>(m) * ldc);
            for (float& v : a) v = rng.Normal();
            for (float& v : b) v = rng.Normal();
            for (float& v : c0) v = rng.Normal();

            std::vector<float> c_fast = c0, c_ref = c0;
            Gemm(ta, tb, m, n, k, s.alpha, a.data(), lda, b.data(), ldb,
                 s.beta, c_fast.data(), ldc);
            ReferenceGemm(ta, tb, m, n, k, s.alpha, a, lda, b, ldb, s.beta,
                          c_ref, ldc);

            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = 0; j < ldc; ++j) {
                const float got = c_fast[i * ldc + j];
                const float want = c_ref[i * ldc + j];
                ASSERT_NEAR(got, want, 1e-3f + 1e-4f * std::fabs(want))
                    << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
                    << " tb=" << tb << " alpha=" << s.alpha
                    << " beta=" << s.beta << " at (" << i << "," << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

// The macro-kernel's cache blocking (mc,kc,nc) must never change *what* is
// computed, only the loop order it is computed in — modulo the documented
// kc-slice summation order, every block configuration has to agree with the
// reference to float tolerance. Sweeping deliberately tiny and ragged
// blocks forces every boundary in the blocked path: mc that does not divide
// m, kc slices of uneven depth, nc groups narrower than one panel group,
// and blocks larger than the whole problem.
TEST(GemmMicrokernelTest, TinyRaggedBlockSweepVsReference) {
  struct Blocks {
    int64_t mc, kc, nc;
  };
  const Blocks configs[] = {
      {1, 1, 16},    // degenerate: one row, one k step at a time
      {7, 5, 32},    // ragged everything
      {2, 3, 16},    // mc below the 6-row tile
      {5, 7, 48},    // nc not a power of two
      {1000, 1000, 1008},  // blocks larger than any test shape
  };
  // Shapes chosen to cross the blocked-path dispatch threshold
  // (m >= 16, n >= 256) as well as the streaming/GEMV shapes, so every
  // path runs under every blocking.
  const struct {
    int64_t m, n, k;
  } shapes[] = {
      {17, 256, 19}, {16, 272, 64}, {33, 304, 9},
      {1, 300, 40},  {40, 1, 300},  {12, 512, 31},  {6, 40, 1},
  };
  for (const Blocks& blk : configs) {
    SetGemmBlockingForTest(blk.mc, blk.kc, blk.nc);
    for (const auto& s : shapes) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          Rng rng(static_cast<uint64_t>(s.m * 31 + s.n * 7 + s.k * 3 +
                                        blk.mc * 1009 + blk.kc * 131 +
                                        blk.nc + ta + 2 * tb));
          const int64_t lda = (ta ? s.m : s.k) + 1;
          const int64_t ldb = (tb ? s.k : s.n) + 2;
          const int64_t ldc = s.n + 1;
          std::vector<float> a(static_cast<size_t>(ta ? s.k : s.m) * lda);
          std::vector<float> b(static_cast<size_t>(tb ? s.n : s.k) * ldb);
          std::vector<float> c0(static_cast<size_t>(s.m) * ldc);
          for (float& v : a) v = rng.Normal();
          for (float& v : b) v = rng.Normal();
          for (float& v : c0) v = rng.Normal();

          std::vector<float> c_fast = c0, c_ref = c0;
          Gemm(ta, tb, s.m, s.n, s.k, 1.5f, a.data(), lda, b.data(), ldb,
               0.5f, c_fast.data(), ldc);
          ReferenceGemm(ta, tb, s.m, s.n, s.k, 1.5f, a, lda, b, ldb, 0.5f,
                        c_ref, ldc);
          for (int64_t i = 0; i < s.m; ++i) {
            for (int64_t j = 0; j < s.n; ++j) {
              const float got = c_fast[i * ldc + j];
              const float want = c_ref[i * ldc + j];
              ASSERT_NEAR(got, want, 1e-3f + 1e-4f * std::fabs(want))
                  << "blocks=(" << blk.mc << "," << blk.kc << "," << blk.nc
                  << ") m=" << s.m << " n=" << s.n << " k=" << s.k
                  << " ta=" << ta << " tb=" << tb << " at (" << i << "," << j
                  << ")";
            }
          }
        }
      }
    }
  }
  SetGemmBlockingForTest(0, 0, 0);  // restore env/default configuration
}

// SetGemmBlockingForTest sanitizes its inputs the same way the env knob
// does: nc snaps up to a whole panel group, and non-positive values reset
// to the default configuration.
TEST(GemmMicrokernelTest, BlockingOverrideRoundsAndResets) {
  const GemmBlockSizes defaults = GemmBlocking();
  SetGemmBlockingForTest(10, 24, 17);
  GemmBlockSizes b = GemmBlocking();
  EXPECT_EQ(b.mc, 10);
  EXPECT_EQ(b.kc, 24);
  EXPECT_EQ(b.nc % 16, 0);
  EXPECT_GE(b.nc, 17);
  SetGemmBlockingForTest(0, 0, 0);
  b = GemmBlocking();
  EXPECT_EQ(b.mc, defaults.mc);
  EXPECT_EQ(b.kc, defaults.kc);
  EXPECT_EQ(b.nc, defaults.nc);
}

// Garbage in MOCOGRAD_GEMM_BLOCK must fall back to the default blocking
// without crashing — the GetEnvIntList contract (src/base/env.h) is that an
// env typo never aborts a training run. SetGemmBlockingForTest(0,0,0)
// re-reads the env, so each garbage value exercises the same parse path the
// first Gemm call takes.
TEST(GemmMicrokernelTest, GarbageGemmBlockEnvFallsBackToDefaults) {
  unsetenv("MOCOGRAD_GEMM_BLOCK");
  SetGemmBlockingForTest(0, 0, 0);
  const GemmBlockSizes defaults = GemmBlocking();

  const char* garbage[] = {"banana", "10,24", "10,24,32,64", "10,,32",
                           "0,24,32", "-96,256,256", "99999999999999999999",
                           "10,24,32trailing"};
  for (const char* value : garbage) {
    ASSERT_EQ(setenv("MOCOGRAD_GEMM_BLOCK", value, 1), 0);
    SetGemmBlockingForTest(0, 0, 0);
    const GemmBlockSizes b = GemmBlocking();
    EXPECT_EQ(b.mc, defaults.mc) << "value: " << value;
    EXPECT_EQ(b.kc, defaults.kc) << "value: " << value;
    EXPECT_EQ(b.nc, defaults.nc) << "value: " << value;

    // And a Gemm under the fallen-back configuration still computes.
    Rng rng(7);
    const int64_t m = 5, n = 6, k = 4;
    std::vector<float> a(m * k), bm(k * n), c(m * n, 0.0f), c_ref = c;
    for (float& v : a) v = rng.Normal();
    for (float& v : bm) v = rng.Normal();
    Gemm(false, false, m, n, k, 1.0f, a.data(), k, bm.data(), n, 0.0f,
         c.data(), n);
    ReferenceGemm(false, false, m, n, k, 1.0f, a, k, bm, n, 0.0f, c_ref, n);
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], 1e-4f) << "value: " << value;
    }
  }
  unsetenv("MOCOGRAD_GEMM_BLOCK");
  SetGemmBlockingForTest(0, 0, 0);
}

// The point of the scratch arena: once a Gemm shape has run a couple of
// times, later calls must not touch the heap at all — packing buffers come
// from each thread's settled arena. A new backing chunk in steady state
// means a regression back to per-call allocation.
TEST(GemmMicrokernelTest, SteadyStateGemmAllocatesNoChunks) {
  const int saved_threads = ThreadPool::GlobalNumThreads();
  ThreadPool::SetGlobalNumThreads(1);
  const int64_t m = 64, n = 320, k = 48;  // blocked path, packs A and B
  Rng rng(0xabcdef);
  std::vector<float> a(m * k), b(k * n), c(m * n, 0.0f);
  for (float& v : a) v = rng.Normal();
  for (float& v : b) v = rng.Normal();
  auto run = [&] {
    Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
    // The m==1 GEMV path allocates its accumulator from the arena too.
    Gemm(false, false, 1, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
  };
  run();
  run();  // reach the high-water mark
  const int64_t before = ScratchArena::TotalChunkAllocs();
  for (int i = 0; i < 20; ++i) run();
  EXPECT_EQ(ScratchArena::TotalChunkAllocs(), before)
      << "Gemm allocated backing chunks after warm-up";
  ThreadPool::SetGlobalNumThreads(saved_threads);
}

// Regression: the old kernel skipped the whole B row whenever an A value
// was exactly zero, so NaN/Inf in B silently vanished from the product.
// IEEE-754 says 0 * NaN = NaN and 0 * Inf = NaN; they must propagate.
TEST(GemmMicrokernelTest, NanInBPropagatesThroughZeroA) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();

  // A zero A value multiplies the B row holding the NaN; the old kernel
  // skipped that row and returned 4 here instead of NaN.
  std::vector<float> a = {0.0f, 2.0f};                  // 1x2
  std::vector<float> b = {nan, 1.0f, 2.0f, 3.0f};      // 2x2
  std::vector<float> c(2, 0.0f);
  Gemm(false, false, 1, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(),
       2);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * NaN must stay NaN, got " << c[0];
  EXPECT_FLOAT_EQ(c[1], 6.0f);  // 0*1 + 2*3

  // Same for Inf: 0 * Inf = NaN.
  b[0] = inf;
  Gemm(false, false, 1, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(),
       2);
  EXPECT_TRUE(std::isnan(c[0])) << "0 * Inf must become NaN, got " << c[0];
}

// beta == 0 means "overwrite": stale NaN in the output buffer must not
// leak into the result via 0 * NaN.
TEST(GemmMicrokernelTest, BetaZeroOverwritesPoisonedC) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> a = {1.0f};
  std::vector<float> b = {2.0f};
  std::vector<float> c = {nan};
  Gemm(false, false, 1, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 0.0f, c.data(),
       1);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

// k == 0 (and alpha == 0) with beta == 0: C is not read (BLAS semantics),
// so NaN, Inf and −0 already in C all become exact +0.
TEST(GemmMicrokernelTest, EmptyProductWithBetaZeroStoresPositiveZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b = {5.0f, 6.0f, 7.0f, 8.0f};
  for (const auto& [k, alpha] :
       {std::pair<int64_t, float>{0, 1.0f}, {2, 0.0f}}) {
    // 2x2 C inside a 2x3 buffer (ldc = 3): the padding column stays put.
    std::vector<float> c = {nan, -inf, nan, -0.0f, inf, nan};
    Gemm(false, false, 2, 2, k, alpha, k > 0 ? a.data() : nullptr, 2,
         k > 0 ? b.data() : nullptr, 2, 0.0f, c.data(), 3);
    for (int idx : {0, 1, 3, 4}) {
      EXPECT_EQ(c[idx], 0.0f) << "k=" << k << " alpha=" << alpha << " at "
                              << idx;
      EXPECT_FALSE(std::signbit(c[idx])) << "k=" << k << " at " << idx;
    }
    EXPECT_TRUE(std::isnan(c[2]));
    EXPECT_TRUE(std::isnan(c[5]));
  }
}

}  // namespace
}  // namespace mocograd
