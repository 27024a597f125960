#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "base/simd.h"
#include "base/thread_pool.h"
#include "base/vec_ops.h"
#include "tensor/gemm.h"

namespace mocograd {
namespace tops {

namespace {

// Minimum elements per parallel chunk for elementwise loops; smaller
// tensors run inline on the caller.
constexpr int64_t kElemGrain = 1 << 14;

// Fixed block length for reductions. Every reduction below sums each block
// sequentially and then combines the per-block partials in block order —
// the same decomposition regardless of thread count — so serial and
// parallel runs are bit-identical for any pool size.
constexpr int64_t kReduceBlock = 1 << 15;

// Blocked reduction over [0, n): `block_fn(begin, end)` returns one block's
// partial (computed sequentially); partials are combined in block order.
template <typename BlockFn>
double BlockedReduce(int64_t n, BlockFn block_fn) {
  const int64_t num_blocks = (n + kReduceBlock - 1) / kReduceBlock;
  if (num_blocks <= 1) return n > 0 ? block_fn(int64_t{0}, n) : 0.0;
  std::vector<double> partials(num_blocks);
  ParallelFor(0, num_blocks, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      partials[b] =
          block_fn(b * kReduceBlock, std::min(n, (b + 1) * kReduceBlock));
    }
  });
  double s = 0.0;
  for (double p : partials) s += p;
  return s;
}

// Applies one elementwise op over the broadcast of a and b. `span_fn(n,
// pa, pb, po)` is the op's vectorized span kernel (a vec::Ew* front-end
// routed through the per-tier table — 8-lane blocks with a scalar tail
// doing the identical per-element arithmetic); `fn(x, y)` is the same op
// on one float pair, used by the strided broadcast walk. Shapes are padded
// to a common rank; strides of broadcast (size-1) axes are zero. Every
// output element is written independently, so flat-index ranges
// parallelize with bit-identical results — and the output needs no
// zero-fill.
template <typename SpanFn, typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, SpanFn span_fn,
                       Fn fn) {
  MG_CHECK(a.defined() && b.defined());
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);

  // Fast path: identical shapes — vectorized.
  if (a.shape() == b.shape()) {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = out.NumElements();
    ParallelFor(0, n, kElemGrain, [&](int64_t i0, int64_t i1) {
      span_fn(i1 - i0, pa + i0, pb + i0, po + i0);
    });
    return out;
  }

  // Row broadcast: a [n, d] against a bias-like b of shape [d] or [1, d]
  // (every Linear's bias add). The span kernel runs once per row; it does
  // the same per-element arithmetic as `fn`, so the bits match the strided
  // walk below.
  if (a.Rank() == 2 && a.shape() == out_shape &&
      b.NumElements() == a.Dim(1) &&
      (b.Rank() == 1 || (b.Rank() == 2 && b.Dim(0) == 1))) {
    const int64_t rows = a.Dim(0), d = a.Dim(1);
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t grain =
        std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, d));
    ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        span_fn(d, pa + r * d, pb, po + r * d);
      }
    });
    return out;
  }

  const int rank = out_shape.Rank();
  auto padded_strides = [&](const Tensor& t) {
    std::vector<int64_t> s(rank, 0);
    const auto native = t.shape().Strides();
    const int off = rank - t.Rank();
    for (int i = 0; i < t.Rank(); ++i) {
      s[off + i] = t.shape().Dim(i) == 1 ? 0 : native[i];
    }
    return s;
  };
  const std::vector<int64_t> sa = padded_strides(a);
  const std::vector<int64_t> sb = padded_strides(b);
  const std::vector<int64_t> so = out_shape.Strides();

  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.NumElements();
  ParallelFor(0, n, kElemGrain, [&](int64_t f0, int64_t f1) {
    for (int64_t flat = f0; flat < f1; ++flat) {
      int64_t oa = 0, ob = 0;
      int64_t rem = flat;
      for (int d = 0; d < rank; ++d) {
        const int64_t i = rem / so[d];
        rem -= i * so[d];
        oa += i * sa[d];
        ob += i * sb[d];
      }
      po[flat] = fn(pa[oa], pb[ob]);
    }
  });
  return out;
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  MG_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.NumElements();
  ParallelFor(0, n, kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

// Vectorized Unary for ops with a vec::Ew* span kernel; `span_fn(n, pa,
// po)` processes one chunk (transcendental ops stay on scalar Unary).
template <typename SpanFn>
Tensor UnaryV(const Tensor& a, SpanFn span_fn) {
  MG_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.NumElements();
  ParallelFor(0, n, kElemGrain, [&](int64_t i0, int64_t i1) {
    span_fn(i1 - i0, pa + i0, po + i0);
  });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, vec::EwAdd,
                         [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, vec::EwSub,
                         [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, vec::EwMul,
                         [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, vec::EwDiv,
                         [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  // simd::Max(y, x) ≡ std::max(x, y) lane-for-lane, NaN handling included
  // (the second operand — x — wins on unordered comparisons).
  return BroadcastBinary(a, b, vec::EwMaximum, [](float x, float y) {
    return simd::Max(y, x);
  });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryV(a, [s](int64_t n, const float* pa, float* po) {
    vec::EwAddScalar(n, pa, s, po);
  });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryV(a, [s](int64_t n, const float* pa, float* po) {
    vec::EwMulScalar(n, pa, s, po);
  });
}
Tensor PowScalar(const Tensor& a, float exponent) {
  return Unary(a, [exponent](float x) { return std::pow(x, exponent); });
}

Tensor Neg(const Tensor& a) { return UnaryV(a, vec::EwNeg); }
Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return Unary(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) { return UnaryV(a, vec::EwSqrt); }
Tensor Tanh(const Tensor& a) {
  return Unary(a, [](float x) { return std::tanh(x); });
}
Tensor Sigmoid(const Tensor& a) {
  return Unary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Relu(const Tensor& a) {
  // Max(x, 0) = (x > 0) ? x : 0 — NaN inputs map to 0, exactly the
  // behavior of the previous scalar ternary.
  return UnaryV(a, vec::EwRelu);
}
Tensor Abs(const Tensor& a) { return UnaryV(a, vec::EwAbs); }
Tensor Sign(const Tensor& a) {
  return Unary(a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  // Min(Max(x, lo), hi) matches std::min(hi, std::max(lo, x)) lane-for-lane
  // (NaN x clamps to lo on both).
  return UnaryV(a, [lo, hi](int64_t n, const float* pa, float* po) {
    vec::EwClamp(n, pa, lo, hi, po);
  });
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  MG_CHECK_EQ(x.NumElements(), y.NumElements(), "Axpy size mismatch");
  const float* px = x.data();
  float* py = y.data();
  const int64_t n = x.NumElements();
  ParallelFor(0, n, kElemGrain, [&](int64_t i0, int64_t i1) {
    vec::Axpy(i1 - i0, alpha, px + i0, py + i0);
  });
}

void ScaleInPlace(Tensor& y, float s) {
  float* py = y.data();
  const int64_t n = y.NumElements();
  ParallelFor(0, n, kElemGrain, [&](int64_t i0, int64_t i1) {
    vec::Scale(i1 - i0, s, py + i0);
  });
}

void AddInPlace(Tensor& y, const Tensor& x) { Axpy(1.0f, x, y); }

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  MG_CHECK_EQ(a.Rank(), 2, "MatMul expects 2-D lhs, got ",
              a.shape().ToString());
  MG_CHECK_EQ(b.Rank(), 2, "MatMul expects 2-D rhs, got ",
              b.shape().ToString());
  const int64_t m = trans_a ? a.Dim(1) : a.Dim(0);
  const int64_t k = trans_a ? a.Dim(0) : a.Dim(1);
  const int64_t kb = trans_b ? b.Dim(1) : b.Dim(0);
  const int64_t n = trans_b ? b.Dim(0) : b.Dim(1);
  MG_CHECK_EQ(k, kb, "MatMul inner dims: ", a.shape().ToString(), " x ",
              b.shape().ToString());
  // beta = 0: Gemm writes every element of C without reading it.
  Tensor out = Tensor::Uninitialized(Shape{m, n});
  Gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), a.Dim(1), b.data(),
       b.Dim(1), 0.0f, out.data(), n);
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  MG_CHECK_EQ(a.Rank(), 2);
  const int64_t r = a.Dim(0), c = a.Dim(1);
  Tensor out = Tensor::Uninitialized(Shape{c, r});
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, c));
  ParallelFor(0, r, grain, [&](int64_t r0, int64_t r1) {
    // Each source row scatters into its own output column — disjoint writes.
    for (int64_t i = r0; i < r1; ++i) {
      for (int64_t j = 0; j < c; ++j) po[j * r + i] = pa[i * c + j];
    }
  });
  return out;
}

float SumAll(const Tensor& a) {
  const float* p = a.data();
  return static_cast<float>(
      BlockedReduce(a.NumElements(), [p](int64_t b, int64_t e) {
        return vec::SumF64(e - b, p + b);
      }));
}

float MeanAll(const Tensor& a) {
  MG_CHECK_GT(a.NumElements(), 0);
  return SumAll(a) / static_cast<float>(a.NumElements());
}

float MaxAll(const Tensor& a) {
  MG_CHECK_GT(a.NumElements(), 0);
  const float* p = a.data();
  return *std::max_element(p, p + a.NumElements());
}

float Norm(const Tensor& a) {
  const float* p = a.data();
  return static_cast<float>(
      std::sqrt(BlockedReduce(a.NumElements(), [p](int64_t b, int64_t e) {
        return vec::SquaredNormF64(e - b, p + b);
      })));
}

float Dot(const Tensor& a, const Tensor& b) {
  MG_CHECK_EQ(a.NumElements(), b.NumElements(), "Dot size mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  return static_cast<float>(
      BlockedReduce(a.NumElements(), [pa, pb](int64_t b, int64_t e) {
        return vec::DotF64(e - b, pa + b, pb + b);
      }));
}

Tensor Sum(const Tensor& a, int axis, bool keepdims) {
  MG_CHECK_GE(axis, 0);
  MG_CHECK_LT(axis, a.Rank());
  // Collapse the shape to [outer, axis, inner].
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= a.Dim(i);
  for (int i = axis + 1; i < a.Rank(); ++i) inner *= a.Dim(i);
  const int64_t mid = a.Dim(axis);

  std::vector<int64_t> out_dims;
  for (int i = 0; i < a.Rank(); ++i) {
    if (i == axis) {
      if (keepdims) out_dims.push_back(1);
    } else {
      out_dims.push_back(a.Dim(i));
    }
  }
  Tensor out = Tensor::Uninitialized(Shape(std::move(out_dims)));
  const float* pa = a.data();
  float* po = out.data();
  // One independent reduction per output element (fixed m-order), so output
  // ranges parallelize bit-identically.
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, mid));
  ParallelFor(0, outer * inner, grain, [&](int64_t f0, int64_t f1) {
    for (int64_t flat = f0; flat < f1; ++flat) {
      const int64_t o = flat / inner;
      const int64_t in = flat - o * inner;
      double s = 0.0;
      for (int64_t m = 0; m < mid; ++m) {
        s += pa[(o * mid + m) * inner + in];
      }
      po[flat] = static_cast<float>(s);
    }
  });
  return out;
}

Tensor Mean(const Tensor& a, int axis, bool keepdims) {
  Tensor s = Sum(a, axis, keepdims);
  ScaleInPlace(s, 1.0f / static_cast<float>(a.Dim(axis)));
  return s;
}

Tensor SumToShape(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  MG_CHECK(Shape::BroadcastsTo(target, a.shape()),
           "SumToShape: ", target.ToString(), " does not broadcast to ",
           a.shape().ToString());
  // Reduce leading extra axes, then axes where target has size 1.
  Tensor cur = a;
  while (cur.Rank() > target.Rank()) {
    cur = Sum(cur, 0, /*keepdims=*/false);
  }
  for (int i = 0; i < target.Rank(); ++i) {
    if (target.Dim(i) == 1 && cur.Dim(i) != 1) {
      cur = Sum(cur, i, /*keepdims=*/true);
    }
  }
  MG_CHECK(cur.shape() == target, "SumToShape internal error");
  return cur;
}

std::vector<int64_t> ArgMaxRows(const Tensor& a) {
  MG_CHECK_EQ(a.Rank(), 2);
  const int64_t n = a.Dim(0), c = a.Dim(1);
  std::vector<int64_t> out(n);
  const float* p = a.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, c));
  ParallelFor(0, n, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = p + i * c;
      out[i] = std::max_element(row, row + c) - row;
    }
  });
  return out;
}

Tensor SoftmaxRows(const Tensor& a) {
  MG_CHECK_EQ(a.Rank(), 2);
  const int64_t n = a.Dim(0), c = a.Dim(1);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* p = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, c));
  ParallelFor(0, n, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = p + i * c;
      float* orow = po + i * c;
      const float mx = *std::max_element(row, row + c);
      double denom = 0.0;
      for (int64_t j = 0; j < c; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < c; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  MG_CHECK_EQ(a.Rank(), 2);
  const int64_t n = a.Dim(0), c = a.Dim(1);
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* p = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, c));
  ParallelFor(0, n, grain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = p + i * c;
      float* orow = po + i * c;
      const float mx = *std::max_element(row, row + c);
      double denom = 0.0;
      for (int64_t j = 0; j < c; ++j) denom += std::exp(row[j] - mx);
      const float lse = mx + static_cast<float>(std::log(denom));
      for (int64_t j = 0; j < c; ++j) orow[j] = row[j] - lse;
    }
  });
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  MG_CHECK_EQ(a.Rank(), 2);
  const int64_t d = a.Dim(1);
  Tensor out = Tensor::Uninitialized(
      Shape{static_cast<int64_t>(indices.size()), d});
  const float* pa = a.data();
  float* po = out.data();
  const int64_t grain = std::max<int64_t>(1, kElemGrain / std::max<int64_t>(1, d));
  ParallelFor(0, static_cast<int64_t>(indices.size()), grain,
              [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  const int64_t r = indices[i];
                  MG_CHECK_GE(r, 0);
                  MG_CHECK_LT(r, a.Dim(0), "GatherRows index out of range");
                  std::copy(pa + r * d, pa + (r + 1) * d, po + i * d);
                }
              });
  return out;
}

Tensor ScatterAddRows(const Tensor& g, const std::vector<int64_t>& indices,
                      int64_t num_rows) {
  MG_CHECK_EQ(g.Rank(), 2);
  MG_CHECK_EQ(g.Dim(0), static_cast<int64_t>(indices.size()));
  const int64_t d = g.Dim(1);
  Tensor out(Shape{num_rows, d});
  const float* pg = g.data();
  float* po = out.data();
  // Deliberately serial: duplicate indices make output rows race under a
  // naive parallel split, and a deterministic parallel scatter would need a
  // sort-by-destination pass that costs more than it saves at this
  // library's embedding sizes.
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t r = indices[i];
    MG_CHECK_GE(r, 0);
    MG_CHECK_LT(r, num_rows, "ScatterAddRows index out of range");
    for (int64_t j = 0; j < d; ++j) po[r * d + j] += pg[i * d + j];
  }
  return out;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  MG_CHECK_EQ(a.Rank(), 2);
  MG_CHECK_GE(start, 0);
  MG_CHECK_LE(start + len, a.Dim(1), "SliceCols out of range");
  const int64_t n = a.Dim(0), c = a.Dim(1);
  Tensor out = Tensor::Uninitialized(Shape{n, len});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i) {
    std::copy(pa + i * c + start, pa + i * c + start + len, po + i * len);
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  MG_CHECK(!parts.empty(), "Concat of zero tensors");
  const int rank = parts[0].Rank();
  MG_CHECK_GE(axis, 0);
  MG_CHECK_LT(axis, rank);
  int64_t axis_total = 0;
  for (const Tensor& t : parts) {
    MG_CHECK_EQ(t.Rank(), rank, "Concat rank mismatch");
    for (int i = 0; i < rank; ++i) {
      if (i != axis) {
        MG_CHECK_EQ(t.Dim(i), parts[0].Dim(i), "Concat dim mismatch");
      }
    }
    axis_total += t.Dim(axis);
  }
  std::vector<int64_t> out_dims = parts[0].shape().dims();
  out_dims[axis] = axis_total;
  Tensor out = Tensor::Uninitialized(Shape(out_dims));

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= parts[0].Dim(i);
  for (int i = axis + 1; i < rank; ++i) inner *= parts[0].Dim(i);

  float* po = out.data();
  const int64_t out_row = axis_total * inner;
  int64_t axis_off = 0;
  for (const Tensor& t : parts) {
    const int64_t mid = t.Dim(axis);
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pt + o * mid * inner, pt + (o + 1) * mid * inner,
                po + o * out_row + axis_off * inner);
    }
    axis_off += mid;
  }
  return out;
}

std::vector<Tensor> Split(const Tensor& a, int axis,
                          const std::vector<int64_t>& sizes) {
  MG_CHECK_GE(axis, 0);
  MG_CHECK_LT(axis, a.Rank());
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  MG_CHECK_EQ(total, a.Dim(axis), "Split sizes must cover the axis");

  int64_t outer = 1, inner = 1;
  for (int i = 0; i < axis; ++i) outer *= a.Dim(i);
  for (int i = axis + 1; i < a.Rank(); ++i) inner *= a.Dim(i);

  std::vector<Tensor> out;
  out.reserve(sizes.size());
  const float* pa = a.data();
  const int64_t in_row = a.Dim(axis) * inner;
  int64_t axis_off = 0;
  for (int64_t s : sizes) {
    std::vector<int64_t> dims = a.shape().dims();
    dims[axis] = s;
    Tensor part = Tensor::Uninitialized(Shape(dims));
    float* pp = part.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pa + o * in_row + axis_off * inner,
                pa + o * in_row + (axis_off + s) * inner, pp + o * s * inner);
    }
    axis_off += s;
    out.push_back(std::move(part));
  }
  return out;
}

void Im2Col(const float* input, const Conv2dSpec& spec, int64_t h, int64_t w,
            float* columns) {
  const int64_t oh = spec.OutDim(h);
  const int64_t ow = spec.OutDim(w);
  const int64_t k = spec.kernel;
  const int64_t c = spec.in_channels;
  // columns layout: [c*k*k, oh*ow], row index = (ch*k + ki)*k + kj.
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ki = 0; ki < k; ++ki) {
      for (int64_t kj = 0; kj < k; ++kj) {
        float* col_row = columns + ((ch * k + ki) * k + kj) * oh * ow;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * spec.stride + ki - spec.padding;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * spec.stride + kj - spec.padding;
            float v = 0.0f;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              v = input[(ch * h + iy) * w + ix];
            }
            col_row[oy * ow + ox] = v;
          }
        }
      }
    }
  }
}

void Col2Im(const float* columns, const Conv2dSpec& spec, int64_t h,
            int64_t w, float* input_grad) {
  const int64_t oh = spec.OutDim(h);
  const int64_t ow = spec.OutDim(w);
  const int64_t k = spec.kernel;
  const int64_t c = spec.in_channels;
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t ki = 0; ki < k; ++ki) {
      for (int64_t kj = 0; kj < k; ++kj) {
        const float* col_row = columns + ((ch * k + ki) * k + kj) * oh * ow;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * spec.stride + ki - spec.padding;
          if (iy < 0 || iy >= h) continue;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * spec.stride + kj - spec.padding;
            if (ix < 0 || ix >= w) continue;
            input_grad[(ch * h + iy) * w + ix] += col_row[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace tops
}  // namespace mocograd
