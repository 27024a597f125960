#include "core/grad_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/conflict.h"

namespace mocograd {
namespace {

using core::GradMatrix;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Normal rows with a few exact ±0 entries (in full 8-lane steps and in the
// tail) so the sign-of-zero paths of the accumulators are exercised too.
GradMatrix RandomGrads(int k, int64_t d, uint64_t seed) {
  Rng rng(seed);
  GradMatrix g(k, d);
  for (int i = 0; i < k; ++i) {
    float* row = g.Row(i);
    for (int64_t q = 0; q < d; ++q) row[q] = rng.Normal();
    row[0] = (i % 2 == 0) ? -0.0f : 0.0f;
    row[d - 1] = (i % 3 == 0) ? -0.0f : row[d - 1];
  }
  return g;
}

class GradMatrixGramTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetGlobalNumThreads(1); }
};

TEST_F(GradMatrixGramTest, GramEqualsRowDotBitwise) {
  for (int k : {1, 2, 3, 4, 5, 11, 16}) {
    for (int64_t d : {1, 7, 8, 4064, 32768, 32769, 205696}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " d=" + std::to_string(d));
      const GradMatrix g = RandomGrads(k, d, 1000 * k + d);
      ThreadPool::SetGlobalNumThreads(1);
      std::vector<double> want(static_cast<size_t>(k) * k);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) want[i * k + j] = g.RowDot(i, j);
      }
      for (int threads : {1, 2, 4}) {
        ThreadPool::SetGlobalNumThreads(threads);
        const std::vector<std::vector<double>> gram = g.Gram();
        ASSERT_EQ(static_cast<int>(gram.size()), k);
        for (int i = 0; i < k; ++i) {
          ASSERT_EQ(static_cast<int>(gram[i].size()), k);
          for (int j = 0; j < k; ++j) {
            ASSERT_TRUE(SameBits(gram[i][j], want[i * k + j]))
                << "threads=" << threads << " (" << i << ", " << j
                << "): " << gram[i][j] << " vs " << want[i * k + j];
          }
        }
      }
    }
  }
}

TEST(PairwiseCosinesTest, MatchesScalarReferenceWithinTolerance) {
  // Rows around a shared direction with random signs, so the cosines sit
  // well away from 0 where a relative bound is meaningful; row 3 is zero
  // (cosine 0 by the zero-norm rule on both paths).
  const int k = 5;
  const int64_t d = 100003;
  Rng rng(9);
  GradMatrix g(k, d);
  std::vector<float> common(d);
  for (int64_t q = 0; q < d; ++q) common[q] = rng.Normal();
  for (int i = 0; i < k; ++i) {
    const float sign = (i % 2 == 0) ? 1.0f : -1.0f;
    float* row = g.Row(i);
    for (int64_t q = 0; q < d; ++q) {
      row[q] = i == 3 ? 0.0f : sign * common[q] + 1.5f * rng.Normal();
    }
  }
  const std::vector<double> cos = core::PairwiseCosines(g);
  ASSERT_EQ(cos.size(), static_cast<size_t>(k) * k);
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(cos[i * k + i], 1.0);
    for (int j = 0; j < k; ++j) {
      if (j == i) continue;
      const double want = core::CosineSimilarity(g.Row(i), g.Row(j), d);
      EXPECT_EQ(cos[i * k + j], cos[j * k + i]);
      if (i == 3 || j == 3) {
        EXPECT_EQ(cos[i * k + j], 0.0);
        EXPECT_EQ(want, 0.0);
        continue;
      }
      EXPECT_GT(std::fabs(want), 0.1) << i << "," << j;
      EXPECT_LE(std::fabs(cos[i * k + j] - want), 1e-12 * std::fabs(want))
          << i << "," << j << ": " << cos[i * k + j] << " vs " << want;
    }
  }
}

}  // namespace
}  // namespace mocograd
