#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "base/bf16.h"
#include "base/check.h"
#include "base/env.h"
#include "base/scratch.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm_kernels.h"

// Cache-hierarchy-aware GEMM (docs/SIMD.md "The GEMM macro-kernel"):
//
//   - a 6×16 register-blocked microkernel (12 vector accumulators) at the
//     core, identical on every SIMD backend;
//   - a Goto-style macro-kernel around it for m >= kPackBMinRows: the k
//     dimension is split into ~kc-deep slices accumulated into C in slice
//     order, mc×kc blocks of op(A) are packed per slice into a per-thread
//     scratch arena in microkernel order, op(B) is packed once into
//     contiguous k×16 panels, and C columns are walked in nc-wide groups —
//     mc/kc/nc chosen so the A block and the B slice stay L1/L2 resident
//     (MOCOGRAD_GEMM_BLOCK overrides them for testing/tuning);
//   - shape-specialized paths that bypass packing entirely: SIMD GEMV
//     kernels for m == 1 and n == 1, and a rank-update path for k <=
//     kRankUpdateMaxK, so no shape class pays packing cost it cannot
//     amortize (the m == 1 case used to be slower than the seed kernel).
//
// This file is the orchestration front-end: path selection, grain sizes,
// ParallelFor partitioning, scratch allocation, and B packing. The compute
// bodies live behind the per-tier GemmKernels table
// (tensor/gemm_kernels.h) — chunk-level kernels compiled once per ISA tier
// and selected at runtime (docs/SIMD.md "Runtime dispatch").
//
// All scratch (packed operands, GEMV accumulators) lives in grow-only
// per-thread arenas (base/scratch.h): zero heap allocations on the
// steady-state path.
//
// Determinism: block sizes are process-wide constants, independent of
// thread count and ISA. Each output element's value depends only on its
// row/column and the fixed (kc, nc, panel) decomposition — never on the
// ParallelFor partition, the mc/kMR row grouping, the backend, or the
// dispatch tier — so any pool size and any tier produce bit-identical
// results for a given block configuration (changing MOCOGRAD_GEMM_BLOCK
// changes the accumulation tree, like swapping BLAS versions would).

namespace mocograd {

namespace {

// Minimum multiply-adds a parallel chunk should amortize; below this the
// range runs on the calling thread.
constexpr int64_t kMinFlopsPerChunk = 1 << 16;

// Below this many C rows, packing a non-transposed B into panels costs more
// than the in-place strided reads it saves (each B element is only reused
// m times), and the blocked macro-kernel's A packing cannot amortize
// either — such shapes take the streaming full-k path. m == 1 peels off
// earlier into the GEMV kernels, so the in-place path serves 2 <= m < 16;
// BENCH_gemm.json's cutover_12x512x256 row records the heuristic's win.
constexpr int64_t kPackBMinRows = 16;

// The blocked macro-kernel packs mc×kc blocks of op(A); every packed
// element is reused once per 16-column panel, so the (gather-order) pack
// only amortizes when op(B) is at least this wide — 16 panels, one full
// default column group. Narrower shapes (tall_512x32x64 in
// BENCH_gemm.json is the cautionary datapoint: n = 32 gives two reuses
// per packed element, and packing cost it a third of its throughput) take
// the streaming full-k path, which reads A in place and re-reads it once
// per panel instead — few panels is exactly when that is cheap.
constexpr int64_t kBlockedMinCols = 256;

// Default macro-kernel blocking, sized for typical 32–48 KiB L1d / >=512
// KiB L2: the packed B slice of one column group (kc×nc×4 = 256 KiB) plus
// one packed A block (mc×kc×4 = 96 KiB) stay L2-resident, while the
// microkernel streams one kc×16 B panel (16 KiB) from L1 against six
// packed A rows.
constexpr GemmBlockSizes kDefaultBlocks = {96, 256, 256};

GemmBlockSizes Sanitize(GemmBlockSizes b) {
  b.mc = std::clamp<int64_t>(b.mc, 1, 1 << 16);
  b.kc = std::clamp<int64_t>(b.kc, 1, 1 << 16);
  b.nc = std::clamp<int64_t>(b.nc, 1, 1 << 20);
  b.nc = (b.nc + kNR - 1) / kNR * kNR;
  return b;
}

GemmBlockSizes BlocksFromEnv() {
  const std::vector<int> v =
      GetEnvIntList("MOCOGRAD_GEMM_BLOCK", 1, 1 << 20);
  GemmBlockSizes b = kDefaultBlocks;
  if (v.size() == 1) {
    b = {v[0], v[0], v[0]};
  } else if (v.size() == 3) {
    b = {v[0], v[1], v[2]};
  }
  return Sanitize(b);
}

GemmBlockSizes& BlockConfig() {
  // MG_COLD_PATH: magic-static init — the env parse (which allocates) runs
  // exactly once, on the first GEMM; every later call just loads the ref.
  static GemmBlockSizes cfg = BlocksFromEnv();
  // MG_COLD_PATH_END
  return cfg;
}

// MG_HOT_PATH — everything below is the per-step steady state: all scratch
// must come from ScratchScope, never the heap (docs/CORRECTNESS.md; the
// steady-state allocation tests in tests/tensor/gemm_microkernel_test.cc
// measure the same contract dynamically).

// Packs columns [j0, j0+cols) of op(B) into dst as a k×kNR panel,
// zero-padding columns past `cols`. Pure copies — deterministic for any
// caller-side parallelization over panels.
void PackPanel(const float* b, int64_t ldb, bool trans_b, int64_t k,
               int64_t j0, int64_t cols, float* dst) {
  for (int64_t p = 0; p < k; ++p) {
    float* row = dst + p * kNR;
    if (trans_b) {
      for (int64_t j = 0; j < cols; ++j) row[j] = b[(j0 + j) * ldb + p];
    } else {
      const float* src = b + p * ldb + j0;
      for (int64_t j = 0; j < cols; ++j) row[j] = src[j];
    }
    for (int64_t j = cols; j < kNR; ++j) row[j] = 0.0f;
  }
}

// m == 1 front end: packs the op(A) row when it is strided, then fans the
// axpy (op(B) = B) or dot (op(B) = Bᵀ) kernel over disjoint j-chunks.
void GemvRow(const GemmKernels& kern, bool trans_a, bool trans_b, int64_t n,
             int64_t k, float alpha, const float* a, int64_t lda,
             const float* b, int64_t ldb, float beta, float* c) {
  ScratchScope scope;
  if (!trans_b) {
    const int64_t a_stride = trans_a ? lda : 1;
    const int64_t grain =
        std::max<int64_t>(kNR, kMinFlopsPerChunk / std::max<int64_t>(1, k));
    ParallelFor(0, n, grain, [&](int64_t j0, int64_t j1) {
      ScratchScope chunk_scope;
      float* acc = chunk_scope.AllocFloats(static_cast<size_t>(j1 - j0));
      kern.gemv_row_axpy(j0, j1, k, alpha, a, a_stride, b, ldb, beta, c,
                         acc);
    });
    return;
  }
  const float* a_vec = a;
  if (trans_a) {
    float* packed = scope.AllocFloats(static_cast<size_t>(k));
    for (int64_t p = 0; p < k; ++p) packed[p] = a[p * lda];
    a_vec = packed;
  }
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(1, k));
  ParallelFor(0, n, grain, [&](int64_t j0, int64_t j1) {
    kern.gemv_row_dot(j0, j1, k, alpha, a_vec, b, ldb, beta, c);
  });
}

// n == 1 front end: packs the op(B) column when it is strided, then fans
// the axpy (op(A) = Aᵀ) or dot (op(A) = A) kernel over disjoint i-chunks.
void GemvCol(const GemmKernels& kern, bool trans_a, bool trans_b, int64_t m,
             int64_t k, float alpha, const float* a, int64_t lda,
             const float* b, int64_t ldb, float beta, float* c,
             int64_t ldc) {
  ScratchScope scope;
  if (trans_a) {
    const int64_t b_stride = trans_b ? 1 : ldb;
    const int64_t grain =
        std::max<int64_t>(kNR, kMinFlopsPerChunk / std::max<int64_t>(1, k));
    ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
      ScratchScope chunk_scope;
      float* acc = chunk_scope.AllocFloats(static_cast<size_t>(i1 - i0));
      kern.gemv_col_axpy(i0, i1, k, alpha, a, lda, b, b_stride, beta, c,
                         ldc, acc);
    });
    return;
  }
  // op(B) column: stored contiguously when trans_b (B is 1×k), strided
  // by ldb otherwise.
  const float* b_vec = b;
  if (!trans_b && ldb != 1) {
    float* packed = scope.AllocFloats(static_cast<size_t>(k));
    for (int64_t p = 0; p < k; ++p) packed[p] = b[p * ldb];
    b_vec = packed;
  }
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(1, k));
  ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    kern.gemv_col_dot(i0, i1, k, alpha, a, lda, b_vec, beta, c, ldc);
  });
}

}  // namespace

GemmBlockSizes GemmBlocking() { return BlockConfig(); }

// MG_COLD_PATH: test-only configuration hook, never on the request path —
// re-parsing the env knob (which allocates) is fine here even though it
// lexically sits inside the file's hot region.
void SetGemmBlockingForTest(int64_t mc, int64_t kc, int64_t nc) {
  if (mc < 1 || kc < 1 || nc < 1) {
    BlockConfig() = BlocksFromEnv();
  } else {
    BlockConfig() = Sanitize({mc, kc, nc});
  }
}
// MG_COLD_PATH_END

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, int64_t lda, const float* b,
          int64_t ldb, float beta, float* c, int64_t ldc) {
  MG_CHECK_GE(m, 0);
  MG_CHECK_GE(n, 0);
  MG_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  MG_CHECK(c != nullptr, "Gemm: null C for m=", m, " n=", n);
  MG_CHECK_GE(ldc, n, "Gemm: ldc below row width");
  if (k > 0) {
    MG_CHECK(a != nullptr && b != nullptr, "Gemm: null operand for m=", m,
             " n=", n, " k=", k);
    MG_CHECK_GE(lda, trans_a ? m : k, "Gemm: lda below op(A) row width");
    MG_CHECK_GE(ldb, trans_b ? k : n, "Gemm: ldb below op(B) row width");
  }
  MG_TRACE_SCOPE("gemm");
  MG_METRIC_TIME_SCOPE("gemm.seconds");
  MG_METRIC_COUNT("gemm.calls", 1);
  MG_METRIC_COUNT("gemm.flops", 2 * m * n * k);
  if (k == 0 || alpha == 0.0f) {
    // Pure C-scaling; rows are independent. With beta == 0, C is not read
    // (BLAS semantics), so NaN/Inf or unset memory in C becomes +0.
    if (beta != 1.0f) {
      const int64_t grain = std::max<int64_t>(1, kMinFlopsPerChunk / n);
      ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float* c_row = c + i * ldc;
          if (beta == 0.0f) {
            std::memset(c_row, 0, static_cast<size_t>(n) * sizeof(float));
          } else {
            for (int64_t j = 0; j < n; ++j) c_row[j] *= beta;
          }
        }
      });
    }
    return;
  }

  // One table lookup per call (a relaxed atomic load behind ActiveTier);
  // the tier is stable for the duration of the call.
  const GemmKernels& kern = ActiveGemmKernels();

  // Degenerate output shapes take the packing-free GEMV kernels.
  if (m == 1) {
    return GemvRow(kern, trans_a, trans_b, n, k, alpha, a, lda, b, ldb,
                   beta, c);
  }
  if (n == 1) {
    return GemvCol(kern, trans_a, trans_b, m, k, alpha, a, lda, b, ldb,
                   beta, c, ldc);
  }
  if (k <= kRankUpdateMaxK && !trans_b) {
    const int64_t grain = std::max<int64_t>(
        1, kMinFlopsPerChunk / std::max<int64_t>(1, n * k));
    ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
      kern.rank_update_rows(i0, i1, n, k, alpha, a, lda, trans_a, b, ldb,
                            beta, c, ldc);
    });
    return;
  }

  const GemmBlockSizes bs = BlockConfig();
  // The macro-kernel needs both dimensions: enough rows that packed B
  // panels amortize, and enough columns that packed A blocks do. Anything
  // narrower streams A in place over the full k extent.
  const bool blocked = m >= kPackBMinRows && n >= kBlockedMinCols;
  const int64_t num_panels = (n + kNR - 1) / kNR;
  const int64_t num_full_panels = n / kNR;

  // The blocked macro-kernel interleaves packing and compute per k-slice:
  // for each ~kc-deep slice, B's panels for that slice are packed (in
  // parallel) into the caller's arena and then immediately consumed by the
  // row-parallel compute pass while still cache-hot. Packing B upfront in
  // full is a trap this layout dodges: a conv-sized B (1 MiB+) packed
  // whole falls out of L2 between pack and use, and the im2col shape lost
  // a third of its throughput to exactly that before the slice
  // interleave. Packed and in-place reads see the same values in the same
  // order, and packing happens before the row partition, so neither the
  // pack choice nor chunk boundaries ever affect results.
  if (blocked) {
    ScratchScope scope;
    const int64_t num_kb = (k + bs.kc - 1) / bs.kc;
    const int64_t kc_max = (k + num_kb - 1) / num_kb;
    float* b_slice =
        scope.AllocFloats(static_cast<size_t>(num_panels) * kc_max * kNR);
    const int64_t grain = std::max<int64_t>(
        bs.mc, kMinFlopsPerChunk / std::max<int64_t>(1, n * k));
    for (int64_t kb = 0; kb < num_kb; ++kb) {
      // Near-equal slices (each <= kc): k=288 with kc=256 becomes
      // 144+144, not 256+32, so no slice degenerates.
      const int64_t p0 = kb * k / num_kb;
      const int64_t kc = (kb + 1) * k / num_kb - p0;
      {
        MG_TRACE_SCOPE("gemm.pack");
        MG_METRIC_TIME_SCOPE("gemm.pack.seconds");
        // Rows [p0, p0+kc) of op(B): offsetting the base pointer reduces
        // the slice to a fresh k=kc pack.
        const float* b_base = trans_b ? b + p0 : b + p0 * ldb;
        const int64_t panel_grain = std::max<int64_t>(
            1, kMinFlopsPerChunk / std::max<int64_t>(1, kc * kNR));
        ParallelFor(0, num_panels, panel_grain, [&](int64_t q0, int64_t q1) {
          for (int64_t jp = q0; jp < q1; ++jp) {
            PackPanel(b_base, ldb, trans_b, kc, jp * kNR,
                      std::min<int64_t>(kNR, n - jp * kNR),
                      b_slice + jp * kc * kNR);
          }
        });
      }
      MG_TRACE_SCOPE("gemm.compute");
      MG_METRIC_TIME_SCOPE("gemm.compute.seconds");
      const bool accumulate = kb > 0;
      ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
        ScratchScope chunk_scope;
        float* a_buf =
            chunk_scope.AllocFloats(static_cast<size_t>(bs.mc) * bs.kc);
        kern.blocked_slice_rows(i0, i1, n, kc, alpha, a, lda, trans_a, p0,
                                b_slice, beta, c, ldc, bs.mc, bs.nc,
                                accumulate, a_buf);
      });
    }
    return;
  }

  // Streaming full-k path. B panels: packed panel-major whenever the cost
  // amortizes — a transposed B always, a non-transposed B once enough C
  // rows reuse it (kPackBMinRows). Below the cutover a non-transposed B
  // is read in place (the microkernel strides by ldb) with only the
  // ragged n % kNR edge packed zero-padded.
  ScratchScope scope;
  float* b_packed = nullptr;
  const float* b_inplace = nullptr;
  const float* a_eff = a;
  int64_t lda_eff = lda;
  {
    MG_TRACE_SCOPE("gemm.pack");
    MG_METRIC_TIME_SCOPE("gemm.pack.seconds");
    if (trans_b || m >= kPackBMinRows) {
      b_packed =
          scope.AllocFloats(static_cast<size_t>(num_panels) * k * kNR);
      const int64_t panel_grain = std::max<int64_t>(
          1, kMinFlopsPerChunk / std::max<int64_t>(1, k * kNR));
      ParallelFor(0, num_panels, panel_grain, [&](int64_t p0, int64_t p1) {
        for (int64_t jp = p0; jp < p1; ++jp) {
          PackPanel(b, ldb, trans_b, k, jp * kNR,
                    std::min<int64_t>(kNR, n - jp * kNR),
                    b_packed + jp * k * kNR);
        }
      });
    } else {
      b_inplace = b;
      if (num_full_panels < num_panels) {
        b_packed = scope.AllocFloats(static_cast<size_t>(k) * kNR);
        PackPanel(b, ldb, /*trans_b=*/false, k, num_full_panels * kNR,
                  n - num_full_panels * kNR, b_packed);
      }
    }

    // A transposed operand: the blocked macro-kernel's per-block packing
    // gathers op(A) directly, but the streaming path reads A in place, so
    // it gets a row-major copy of op(A) here (pure copies, parallel over
    // rows) — no path keeps a whole-matrix transposed copy beyond the
    // call.
    if (trans_a) {
      float* a_packed = scope.AllocFloats(static_cast<size_t>(m) * k);
      const int64_t row_grain =
          std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(1, k));
      ParallelFor(0, m, row_grain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          for (int64_t p = 0; p < k; ++p) {
            a_packed[i * k + p] = a[p * lda + i];
          }
        }
      });
      a_eff = a_packed;
      lda_eff = k;
    }
  }

  // Disjoint C row ranges per chunk; each row's accumulation tree is fixed
  // independent of the partition, so any chunking — and any dispatch
  // tier — is bit-identical.
  MG_TRACE_SCOPE("gemm.compute");
  MG_METRIC_TIME_SCOPE("gemm.compute.seconds");
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(1, n * k));
  ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    kern.gemm_rows(i0, i1, n, k, alpha, a_eff, lda_eff, b_inplace, ldb,
                   b_packed, num_full_panels, beta, c, ldc);
  });
}

void GemmBf16B(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
               const uint16_t* b, int64_t ldb, float* c, int64_t ldc) {
  MG_CHECK_GE(m, 0);
  MG_CHECK_GE(n, 0);
  MG_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  MG_CHECK(c != nullptr, "GemmBf16B: null C for m=", m, " n=", n);
  MG_CHECK_GE(ldc, n, "GemmBf16B: ldc below row width");
  if (k == 0) {
    // alpha = 1, beta = 0 semantics: C = A·B over zero terms is zero.
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, static_cast<size_t>(n) * sizeof(float));
    }
    return;
  }
  MG_CHECK(a != nullptr && b != nullptr, "GemmBf16B: null operand for m=", m,
           " n=", n, " k=", k);
  MG_CHECK_GE(lda, k, "GemmBf16B: lda below A row width");
  MG_CHECK_GE(ldb, n, "GemmBf16B: ldb below B row width");
  MG_TRACE_SCOPE("gemm.bf16");
  MG_METRIC_TIME_SCOPE("gemm.seconds");
  MG_METRIC_COUNT("gemm.calls", 1);
  MG_METRIC_COUNT("gemm.flops", 2 * m * n * k);

  const GemmKernels& kern = ActiveGemmKernels();

  if (m == 1) {
    const int64_t grain =
        std::max<int64_t>(kNR, kMinFlopsPerChunk / std::max<int64_t>(1, k));
    ParallelFor(0, n, grain, [&](int64_t j0, int64_t j1) {
      ScratchScope chunk_scope;
      float* acc = chunk_scope.AllocFloats(static_cast<size_t>(j1 - j0));
      kern.gemv_row_axpy_bf16(j0, j1, k, a, b, ldb, c, acc);
    });
    return;
  }

  // Streaming rows path: full 16-column panels widen bf16 on load in
  // place; only a ragged n % kNR edge panel is pre-widened (scalar, exact)
  // and zero-padded here, so tier TUs never duplicate the pack logic.
  ScratchScope scope;
  float* b_edge = nullptr;
  const int64_t num_full_panels = n / kNR;
  const int64_t edge_cols = n - num_full_panels * kNR;
  if (edge_cols > 0) {
    b_edge = scope.AllocFloats(static_cast<size_t>(k) * kNR);
    const int64_t j0 = num_full_panels * kNR;
    for (int64_t p = 0; p < k; ++p) {
      const uint16_t* src = b + p * ldb + j0;
      float* row = b_edge + p * kNR;
      for (int64_t j = 0; j < edge_cols; ++j) row[j] = F32FromBf16(src[j]);
      for (int64_t j = edge_cols; j < kNR; ++j) row[j] = 0.0f;
    }
  }
  const int64_t grain =
      std::max<int64_t>(1, kMinFlopsPerChunk / std::max<int64_t>(1, n * k));
  ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    kern.gemm_rows_bf16(i0, i1, n, k, a, lda, b, ldb, b_edge, c, ldc);
  });
}

// MG_HOT_PATH_END

}  // namespace mocograd
