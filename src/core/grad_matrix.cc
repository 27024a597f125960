#include "core/grad_matrix.h"

#include <algorithm>
#include <cmath>

#include "base/scratch.h"
#include "base/thread_pool.h"
#include "base/vec_ops.h"

namespace mocograd {
namespace core {

namespace {

// Fixed block length for the dot-product reductions, mirroring the scheme
// in tensor/ops.cc: each block is summed sequentially and the per-block
// partials are combined in block order, so the result is bit-identical for
// any thread-pool size (including the serial path).
constexpr int64_t kReduceBlock = 1 << 15;

// Minimum columns per chunk for the column-parallel row combinations.
constexpr int64_t kColGrain = 1 << 14;

}  // namespace

void GradMatrix::SetRow(int k, const std::vector<float>& src) {
  MG_CHECK_EQ(static_cast<int64_t>(src.size()), dim_, "SetRow size");
  std::copy(src.begin(), src.end(), Row(k));
}

std::vector<float> GradMatrix::RowVector(int k) const {
  const float* r = Row(k);
  return std::vector<float>(r, r + dim_);
}

double GradMatrix::RowDot(int i, int j) const {
  const float* a = Row(i);
  const float* b = Row(j);
  const int64_t num_blocks = (dim_ + kReduceBlock - 1) / kReduceBlock;
  auto block_sum = [a, b](int64_t p0, int64_t p1) {
    return vec::DotF64(p1 - p0, a + p0, b + p0);
  };
  if (num_blocks <= 1) return block_sum(0, dim_);
  std::vector<double> partials(num_blocks);
  ParallelFor(0, num_blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t blk = b0; blk < b1; ++blk) {
      partials[blk] = block_sum(blk * kReduceBlock,
                                std::min(dim_, (blk + 1) * kReduceBlock));
    }
  });
  double s = 0.0;
  for (double p : partials) s += p;
  return s;
}

double GradMatrix::RowNorm(int i) const { return std::sqrt(RowDot(i, i)); }

void GradMatrix::Gram(double* out) const {
  // RowDot's blocks and partial order, with the upper triangle of each
  // block computed in vec::kDotTile-row tiles (the diagonal tiles skip the
  // lower pairs), so every entry is bitwise RowDot(i, j) at any pool size.
  const int k = num_tasks_;
  const size_t kk = static_cast<size_t>(k) * k;
  const int64_t num_blocks = (dim_ + kReduceBlock - 1) / kReduceBlock;
  ScratchScope scope;
  double* partials = static_cast<double*>(
      scope.Alloc(static_cast<size_t>(num_blocks) * kk * sizeof(double)));
  ParallelFor(0, num_blocks, 1, [&](int64_t b0, int64_t b1) {
    const float* a[vec::kDotTile];
    const float* b[vec::kDotTile];
    double tile[vec::kDotTile * vec::kDotTile];
    for (int64_t blk = b0; blk < b1; ++blk) {
      const int64_t p0 = blk * kReduceBlock;
      const int64_t n = std::min(dim_, p0 + kReduceBlock) - p0;
      double* part = partials + blk * kk;
      for (int i0 = 0; i0 < k; i0 += vec::kDotTile) {
        const int ni = std::min(vec::kDotTile, k - i0);
        for (int r = 0; r < ni; ++r) a[r] = Row(i0 + r) + p0;
        for (int j0 = i0; j0 < k; j0 += vec::kDotTile) {
          const int nj = std::min(vec::kDotTile, k - j0);
          const bool diag = j0 == i0;
          for (int c = 0; c < nj; ++c) b[c] = Row(j0 + c) + p0;
          vec::DotF64Tile(n, diag ? b : a, ni, b, nj, diag, tile);
          for (int r = 0; r < ni; ++r) {
            for (int c = diag ? r : 0; c < nj; ++c) {
              part[static_cast<size_t>(i0 + r) * k + j0 + c] =
                  tile[r * nj + c];
            }
          }
        }
      }
    }
  });
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < k; ++j) {
      const size_t e = static_cast<size_t>(i) * k + j;
      double s = partials[e];
      if (num_blocks > 1) {
        s = 0.0;
        for (int64_t blk = 0; blk < num_blocks; ++blk) {
          s += partials[blk * kk + e];
        }
      }
      out[e] = out[static_cast<size_t>(j) * k + i] = s;
    }
  }
}

std::vector<std::vector<double>> GradMatrix::Gram() const {
  const int k = num_tasks_;
  ScratchScope scope;
  double* flat = static_cast<double*>(
      scope.Alloc(static_cast<size_t>(k) * k * sizeof(double)));
  Gram(flat);
  std::vector<std::vector<double>> m(k);
  for (int i = 0; i < k; ++i) m[i].assign(flat + i * k, flat + (i + 1) * k);
  return m;
}

std::vector<float> GradMatrix::SumRows() const {
  std::vector<float> out(dim_, 0.0f);
  float* po = out.data();
  // Column ranges are disjoint; every output element accumulates its K
  // contributions in fixed task order, so any partition is bit-identical.
  ParallelFor(0, dim_, kColGrain, [&](int64_t p0, int64_t p1) {
    for (int k = 0; k < num_tasks_; ++k) {
      vec::Add(p1 - p0, Row(k) + p0, po + p0);
    }
  });
  return out;
}

std::vector<float> GradMatrix::WeightedSumRows(
    const std::vector<double>& w) const {
  MG_CHECK_EQ(static_cast<int>(w.size()), num_tasks_, "weight count");
  std::vector<float> out(dim_, 0.0f);
  float* po = out.data();
  ParallelFor(0, dim_, kColGrain, [&](int64_t p0, int64_t p1) {
    for (int k = 0; k < num_tasks_; ++k) {
      vec::Axpy(p1 - p0, static_cast<float>(w[k]), Row(k) + p0, po + p0);
    }
  });
  return out;
}

}  // namespace core
}  // namespace mocograd
