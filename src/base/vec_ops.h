#ifndef MOCOGRAD_BASE_VEC_OPS_H_
#define MOCOGRAD_BASE_VEC_OPS_H_

#include <cstdint>

namespace mocograd {
namespace vec {

// Serial SIMD span kernels shared by the hot paths (tensor/ops.cc,
// core/grad_matrix.cc, the gradient-surgery loops in src/core, and the
// optimizer update loops). Each function processes [0, n) in 8-lane blocks
// with a scalar tail that performs the identical per-element arithmetic,
// so the result is bit-identical across kernel tiers and across the
// MOCOGRAD_SIMD / MOCOGRAD_SIMD_ISA knobs. Since the runtime ISA dispatch
// (docs/SIMD.md) these are thin front-ends over the per-tier function
// table in base/vec_kernels.h; the bodies live in base/vec_kernels_impl.h,
// compiled once per tier. None of these parallelize internally — callers
// that want threads wrap them in ParallelFor chunks (safe for the
// elementwise kernels, whose per-element results do not depend on lane
// grouping) or call them on the fixed reduction blocks (for the dots/sums,
// whose lane decomposition is anchored at the span start).

/// y[i] += alpha * x[i] (fused multiply-add per element).
void Axpy(int64_t n, float alpha, const float* x, float* y);

/// y[i] += x[i].
void Add(int64_t n, const float* x, float* y);

/// y[i] *= alpha.
void Scale(int64_t n, float alpha, float* y);

/// m[i] = beta * m[i] + (1 - beta) * g[i] — the EMA/momentum update
/// (computed as fma(beta, m, (1-beta)*g)).
void Ema(int64_t n, float beta, const float* g, float* m);

/// Σ a[i]·b[i] accumulated in double precision: 8 floats per step widen
/// into two 4-lane double accumulators, combined lane-wise and reduced in
/// fixed lane order at the end; tail elements fold in sequentially.
double DotF64(int64_t n, const float* a, const float* b);

/// Largest row count on either side of one DotF64Tile call.
constexpr int kDotTile = 4;

/// out[r * nb + c] = DotF64(n, a[r], b[c]) bitwise for r < na, c < nb
/// (1 <= na, nb <= kDotTile): one pass computes the whole tile. With
/// `upper` (a == b, na == nb) only the c >= r entries are written.
void DotF64Tile(int64_t n, const float* const* a, int na,
                const float* const* b, int nb, bool upper, double* out);

/// Σ a[i]² in double precision (same decomposition as DotF64).
double SquaredNormF64(int64_t n, const float* a);

/// Σ a[i] in double precision (same decomposition as DotF64).
double SumF64(int64_t n, const float* a);

// Elementwise spans (tensor/ops.cc fast paths). `o` may alias an input.

/// o[i] = a[i] + b[i].
void EwAdd(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] - b[i].
void EwSub(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] * b[i].
void EwMul(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] / b[i].
void EwDiv(int64_t n, const float* a, const float* b, float* o);
/// o[i] = Max(b[i], a[i]) — the second operand (a) wins on unordered
/// comparisons, preserving tensor/ops.cc Maximum semantics.
void EwMaximum(int64_t n, const float* a, const float* b, float* o);
/// o[i] = a[i] + s.
void EwAddScalar(int64_t n, const float* a, float s, float* o);
/// o[i] = a[i] * s.
void EwMulScalar(int64_t n, const float* a, float s, float* o);
/// o[i] = -a[i] (sign-bit flip).
void EwNeg(int64_t n, const float* a, float* o);
/// o[i] = sqrt(a[i]) (exactly rounded).
void EwSqrt(int64_t n, const float* a, float* o);
/// o[i] = |a[i]| (sign-bit clear).
void EwAbs(int64_t n, const float* a, float* o);
/// o[i] = Max(a[i], 0) — NaN inputs map to 0.
void EwRelu(int64_t n, const float* a, float* o);
/// o[i] = Min(Max(a[i], lo), hi) — NaN inputs clamp to lo.
void EwClamp(int64_t n, const float* a, float lo, float hi, float* o);

// Optimizer per-tensor update spans (optim/optimizer.cc). Weight decay
// folds into the gradient via fused multiply-add, matching the lane op.

/// v = momentum*v + (wd*x + g); x -= lr*v.
void SgdMomentum(int64_t n, float lr, float momentum, float wd,
                 const float* g, float* v, float* x);
/// x -= lr * (wd*x + g).
void SgdPlain(int64_t n, float lr, float wd, const float* g, float* x);
/// Adam moment updates + bias-corrected step (bc1/bc2 precomputed).
void Adam(int64_t n, float lr, float b1, float b2, float eps, float wd,
          float bc1, float bc2, const float* g, float* m, float* v, float* x);
/// a += g²; x -= lr*g / (sqrt(a) + eps).
void Adagrad(int64_t n, float lr, float eps, const float* g, float* a,
             float* x);

}  // namespace vec
}  // namespace mocograd

#endif  // MOCOGRAD_BASE_VEC_OPS_H_
