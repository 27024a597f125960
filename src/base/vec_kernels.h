#ifndef MOCOGRAD_BASE_VEC_KERNELS_H_
#define MOCOGRAD_BASE_VEC_KERNELS_H_

// Per-tier function table behind the vec:: span kernels (base/vec_ops.h)
// and the optimizer update loops (optim/optimizer.cc). Each kernel tier
// (docs/SIMD.md "Runtime dispatch") compiles one instantiation of the
// kernels in base/vec_kernels_impl.h into its own translation unit
// (base/vec_kernels_tier_*.cc) with per-file ISA flags, and exposes it
// through the Get* functions below; tiers the build or target cannot
// produce return nullptr. The selector (vec_kernels.cc) hands callers the
// table for the active tier.
//
// Every tier computes bit-identical results — the kernels are written
// against the exactly-rounded base/simd.h vocabulary with scalar tails
// performing the identical per-element arithmetic — so the tier choice
// changes speed, never outputs.
//
// The kernels are serial over their span: callers that want threads wrap
// them in ParallelFor chunks (elementwise kernels are lane-grouping
// independent; the f64 reductions must be called on the fixed reduction
// blocks of tensor/ops.cc, whose lane decomposition anchors at the span
// start).

#include <cstdint>

#include "base/simd.h"
#include "base/vec_ops.h"

namespace mocograd {
namespace vec {

struct VecKernels {
  const char* name;  // tier name, equals simd::TierName of the source tier

  // Surgery / reduction spans (see base/vec_ops.h for contracts).
  void (*axpy)(int64_t n, float alpha, const float* x, float* y);
  void (*add)(int64_t n, const float* x, float* y);
  void (*scale)(int64_t n, float alpha, float* y);
  void (*ema)(int64_t n, float beta, const float* g, float* m);
  double (*dot_f64)(int64_t n, const float* a, const float* b);
  double (*sum_f64)(int64_t n, const float* a);
  // out[r * nb + c] = dot_f64(n, a[r], b[c]) bitwise, for r < na, c < nb
  // (1 <= na, nb <= kDotTile): every pair keeps its own accumulators in
  // dot_f64's lane order, while each loaded row is shared by the tile. With
  // `upper` (a == b, na == nb: a diagonal tile of a Gram matrix) only the
  // c >= r entries are computed; the others are left untouched.
  void (*dot_f64_tile)(int64_t n, const float* const* a, int na,
                       const float* const* b, int nb, bool upper,
                       double* out);

  // Elementwise spans (tensor/ops.cc). o may alias a or b.
  void (*ew_add)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_sub)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_mul)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_div)(int64_t n, const float* a, const float* b, float* o);
  // o[i] = Max(b[i], a[i]): the second operand (a) wins on unordered —
  // preserves tensor/ops.cc Maximum semantics (NaN in a propagates).
  void (*ew_maximum)(int64_t n, const float* a, const float* b, float* o);
  void (*ew_add_scalar)(int64_t n, const float* a, float s, float* o);
  void (*ew_mul_scalar)(int64_t n, const float* a, float s, float* o);
  void (*ew_neg)(int64_t n, const float* a, float* o);
  void (*ew_sqrt)(int64_t n, const float* a, float* o);
  void (*ew_abs)(int64_t n, const float* a, float* o);
  void (*ew_relu)(int64_t n, const float* a, float* o);
  void (*ew_clamp)(int64_t n, const float* a, float lo, float hi, float* o);

  // Optimizer per-tensor update spans (optim/optimizer.cc documents the
  // exact update arithmetic; weight decay folds in via fused multiply-add).
  void (*sgd_momentum)(int64_t n, float lr, float momentum, float wd,
                       const float* g, float* v, float* x);
  void (*sgd_plain)(int64_t n, float lr, float wd, const float* g, float* x);
  void (*adam)(int64_t n, float lr, float b1, float b2, float eps, float wd,
               float bc1, float bc2, const float* g, float* m, float* v,
               float* x);
  void (*adagrad)(int64_t n, float lr, float eps, const float* g, float* a,
                  float* x);
};

// Per-tier tables, defined in base/vec_kernels_tier_*.cc. nullptr when the
// tier is not compiled in (wrong architecture, missing compiler support, or
// a force-scalar build). The scalar table always exists.
const VecKernels* GetVecKernelsScalar();
const VecKernels* GetVecKernelsSse();
const VecKernels* GetVecKernelsAvx2();
const VecKernels* GetVecKernelsAvx512();
const VecKernels* GetVecKernelsNeon();

/// Table for `tier`, or nullptr when that tier was not compiled in. The
/// tier selector (base/simd.cc) uses this to discover the best compiled
/// tier at startup.
const VecKernels* VecKernelsForTier(simd::IsaTier tier);

/// Table for simd::ActiveTier(), walking down to the nearest available
/// tier (defensively — the active tier is already clamped to availability).
const VecKernels& ActiveVecKernels();

}  // namespace vec
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_VEC_KERNELS_H_
