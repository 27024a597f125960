#ifndef MOCOGRAD_CORE_GRAD_MATRIX_H_
#define MOCOGRAD_CORE_GRAD_MATRIX_H_

#include <cstdint>
#include <vector>

#include "base/check.h"

namespace mocograd {
namespace core {

/// Dense K×P matrix holding one flattened shared-parameter gradient per
/// task. This is the common currency of every gradient-manipulation method:
/// the trainer fills one row per task-backward pass and hands the matrix to
/// a GradientAggregator.
class GradMatrix {
 public:
  GradMatrix(int num_tasks, int64_t dim)
      : num_tasks_(num_tasks),
        dim_(dim),
        data_(static_cast<size_t>(num_tasks) * dim, 0.0f) {
    MG_CHECK_GT(num_tasks, 0);
    MG_CHECK_GT(dim, 0);
  }

  int num_tasks() const { return num_tasks_; }
  int64_t dim() const { return dim_; }

  float* Row(int k) {
    MG_CHECK_GE(k, 0);
    MG_CHECK_LT(k, num_tasks_);
    return data_.data() + static_cast<size_t>(k) * dim_;
  }
  const float* Row(int k) const {
    MG_CHECK_GE(k, 0);
    MG_CHECK_LT(k, num_tasks_);
    return data_.data() + static_cast<size_t>(k) * dim_;
  }

  /// Copies `src` (size dim) into row k.
  void SetRow(int k, const std::vector<float>& src);

  /// Row k as a std::vector copy.
  std::vector<float> RowVector(int k) const;

  /// g_i · g_j in double precision.
  double RowDot(int i, int j) const;

  /// ‖g_i‖₂.
  double RowNorm(int i) const;

  /// Full K×K Gram matrix in one pass over the rows; entry (i, j) is
  /// bitwise RowDot(i, j), at any pool size and kernel tier.
  std::vector<std::vector<double>> Gram() const;

  /// The same Gram, written row-major into `out` (K·K doubles); its only
  /// scratch comes from the thread's ScratchArena, so a per-step caller
  /// adds no heap allocation.
  void Gram(double* out) const;

  /// Σ_k g_k.
  std::vector<float> SumRows() const;

  /// Σ_k w_k g_k with per-task weights.
  std::vector<float> WeightedSumRows(const std::vector<double>& w) const;

 private:
  int num_tasks_;
  int64_t dim_;
  std::vector<float> data_;
};

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_GRAD_MATRIX_H_
