#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "base/bf16.h"
#include "base/env.h"
#include "base/scratch.h"
#include "base/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"

namespace mocograd {
namespace serve {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

constexpr uint32_t kCheckpointMagic = 0x4d4f4347;  // "MOCG", nn/serialize.cc

bool ReadU32(std::FILE* f, uint32_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}

std::string ShapeString(const ParamSpec& spec) {
  std::string s = "[";
  s += std::to_string(spec.rows);
  if (spec.cols != 0) {
    s += ", ";
    s += std::to_string(spec.cols);
  }
  s += "]";
  return s;
}

std::vector<int64_t> ParamOffsets(const ServePlan& plan) {
  std::vector<int64_t> offsets;
  offsets.reserve(plan.params.size());
  int64_t off = 0;
  for (const ParamSpec& p : plan.params) {
    offsets.push_back(off);
    off += p.NumElements();
  }
  return offsets;
}

}  // namespace

ServePrecision DefaultServePrecision() {
  return GetEnvString("MOCOGRAD_SERVE_PRECISION", "fp32") == "bf16"
             ? ServePrecision::kBf16
             : ServePrecision::kFp32;
}

const char* ServePrecisionName(ServePrecision p) {
  return p == ServePrecision::kBf16 ? "bf16" : "fp32";
}

ServeModel::ServeModel(ServePlan plan, std::vector<float> arena,
                       std::vector<int64_t> offsets, ServePrecision precision)
    : plan_(std::move(plan)),
      arena_(std::move(arena)),
      offsets_(std::move(offsets)),
      precision_(precision) {
  if (precision_ == ServePrecision::kBf16) {
    // One-time storage rounding (round-to-nearest-even); the f32 copy is
    // released so a bf16 model holds half the weight bytes.
    arena_bf16_.resize(arena_.size());
    for (size_t i = 0; i < arena_.size(); ++i) {
      arena_bf16_[i] = Bf16FromF32(arena_[i]);
    }
    arena_.clear();
    arena_.shrink_to_fit();
  }
}

Result<ServeModel> ServeModel::FromModule(const ServePlan& plan,
                                          nn::Module& module,
                                          ServePrecision precision) {
  const auto named = module.NamedParameters();
  if (named.size() != plan.params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: module has " +
        std::to_string(named.size()) + ", plan expects " +
        std::to_string(plan.params.size()));
  }
  std::vector<float> arena(plan.TotalParamElements());
  std::vector<int64_t> offsets = ParamOffsets(plan);
  for (size_t i = 0; i < named.size(); ++i) {
    const ParamSpec& spec = plan.params[i];
    const auto& [name, var] = named[i];
    if (name != spec.name) {
      return Status::InvalidArgument("parameter name mismatch at index " +
                                     std::to_string(i) + ": module has \"" +
                                     name + "\", plan expects \"" + spec.name +
                                     "\"");
    }
    const Tensor& t = var->value();
    const bool shape_ok =
        spec.cols == 0
            ? (t.Rank() == 1 && t.Dim(0) == spec.rows)
            : (t.Rank() == 2 && t.Dim(0) == spec.rows && t.Dim(1) == spec.cols);
    if (!shape_ok) {
      return Status::InvalidArgument("shape mismatch for \"" + spec.name +
                                     "\": plan expects " + ShapeString(spec));
    }
    std::memcpy(arena.data() + offsets[i], t.data(),
                static_cast<size_t>(t.NumElements()) * sizeof(float));
  }
  return ServeModel(plan, std::move(arena), std::move(offsets), precision);
}

Result<ServeModel> ServeModel::FromCheckpoint(const ServePlan& plan,
                                              const std::string& path,
                                              ServePrecision precision) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open: " + path);

  uint32_t magic = 0, count = 0;
  if (!ReadU32(f.get(), &magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a mocograd checkpoint: " + path);
  }
  if (!ReadU32(f.get(), &count)) {
    return Status::InvalidArgument("truncated checkpoint: " + path);
  }
  if (count != plan.params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: checkpoint has " + std::to_string(count) +
        ", plan expects " + std::to_string(plan.params.size()));
  }
  std::vector<float> arena(plan.TotalParamElements());
  std::vector<int64_t> offsets = ParamOffsets(plan);
  for (size_t i = 0; i < plan.params.size(); ++i) {
    const ParamSpec& spec = plan.params[i];
    uint32_t rank = 0;
    if (!ReadU32(f.get(), &rank)) {
      return Status::InvalidArgument("truncated checkpoint: " + path);
    }
    std::vector<int64_t> dims(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      uint32_t v = 0;
      if (!ReadU32(f.get(), &v)) {
        return Status::InvalidArgument("truncated checkpoint: " + path);
      }
      dims[d] = v;
    }
    const bool shape_ok =
        spec.cols == 0
            ? (rank == 1 && dims[0] == spec.rows)
            : (rank == 2 && dims[0] == spec.rows && dims[1] == spec.cols);
    if (!shape_ok) {
      return Status::InvalidArgument("shape mismatch for \"" + spec.name +
                                     "\": plan expects " + ShapeString(spec));
    }
    const size_t n = static_cast<size_t>(spec.NumElements());
    if (std::fread(arena.data() + offsets[i], sizeof(float), n, f.get()) !=
        n) {
      return Status::InvalidArgument("truncated checkpoint: " + path);
    }
  }
  return ServeModel(plan, std::move(arena), std::move(offsets), precision);
}

InferenceSession::InferenceSession(const ServeModel& model) : model_(&model) {
  const ServePlan& plan = model.plan();
  // Buffer 0 is the caller's input, read in place — the scratch slab only
  // holds buffers 1..N. That is sound because no op ever writes buffer 0,
  // which the plan builders guarantee and this loop enforces.
  buffer_prefix_.reserve(plan.buffer_widths.size());
  buffer_prefix_.push_back(0);
  for (size_t b = 1; b < plan.buffer_widths.size(); ++b) {
    buffer_prefix_.push_back(total_width_);
    total_width_ += plan.buffer_widths[b];
  }
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOp::Kind::kLinear) {
      max_linear_width_ =
          std::max(max_linear_width_, plan.buffer_widths[op.out]);
    }
    const bool writes_input =
        ((op.kind == PlanOp::Kind::kRelu || op.kind == PlanOp::Kind::kSoftmax)
             ? op.in
             : op.out) == 0 &&
        op.kind != PlanOp::Kind::kCopyOut;
    MG_CHECK(!writes_input, "plan op writes the input buffer");
  }
}

void InferenceSession::Forward(const float* input, int64_t rows,
                               float* const* outputs) const {
  MG_CHECK_GT(rows, 0);
  MG_TRACE_SCOPE("serve.forward");
  MG_METRIC_TIME_SCOPE("serve.forward");
  const ServePlan& plan = model_->plan();
  ScratchScope scope;
  float* slab = scope.AllocFloats(static_cast<size_t>(rows * total_width_));
  // A single row skips Gemm's front end and calls its m == 1 GEMV kernel
  // on the whole row (see the kLinear case): this table and the
  // accumulator are all it needs.
  const GemmKernels& kern = ActiveGemmKernels();
  float* gemv_acc =
      rows == 1 ? scope.AllocFloats(static_cast<size_t>(max_linear_width_))
                : nullptr;
  // Buffer b >= 1 holds its [rows, width_b] activations contiguously at
  // rows * prefix_b; buffer 0 aliases the caller's input, which no op
  // writes (checked in the constructor) — the cast only unifies the
  // return type.
  const auto buf = [&](int b) {
    return b == 0 ? const_cast<float*>(input)
                  : slab + rows * buffer_prefix_[b];
  };

  // MG_HOT_PATH — the request path: no tape, no heap, no input copy.
  // Activations come from the scratch slab above; Gemm's packing buffers
  // come from its own nested ScratchScope on the same arena. Every kernel
  // below mirrors its training-time counterpart in tensor/ops.cc
  // bit-for-bit (same summation order and rounding) — see docs/SERVING.md
  // "Bit-exactness".
  for (const PlanOp& op : plan.ops) {
    switch (op.kind) {
      case PlanOp::Kind::kLinear: {
        const int64_t k = plan.buffer_widths[op.in];
        const int64_t n = plan.buffer_widths[op.out];
        float* out = buf(op.out);
        if (model_->precision() == ServePrecision::kBf16) {
          // Reduced-precision serving (docs/SERVING.md): weights stored
          // bf16, widened to f32 on load (exact), f32 accumulation. The
          // same per-element chains as the fp32 branch below — including
          // the n == 1 scalar path and the batch-invariance of
          // GemmBf16B's m == 1 / m >= 2 pair — so a served row's bits
          // never depend on its batch-mates; only the weights' one-time
          // storage rounding differs from fp32 serving.
          const uint16_t* w = model_->param_data_bf16(op.weight);
          if (n == 1) {
            const float* src = buf(op.in);
            for (int64_t i = 0; i < rows; ++i) {
              float acc = 0.0f;
              const float* row = src + i * k;
              for (int64_t p = 0; p < k; ++p) {
                acc = simd::MulAdd(row[p], F32FromBf16(w[p]), acc);
              }
              out[i] = acc;
            }
          } else if (rows == 1) {
            kern.gemv_row_axpy_bf16(0, n, k, buf(op.in), w, n, out, gemv_acc);
          } else {
            GemmBf16B(rows, n, k, buf(op.in), k, w, n, out, n);
          }
          if (op.bias >= 0) {
            const uint16_t* bias = model_->param_data_bf16(op.bias);
            for (int64_t i = 0; i < rows; ++i) {
              float* row = out + i * n;
              for (int64_t j = 0; j < n; ++j) row[j] += F32FromBf16(bias[j]);
            }
          }
          break;
        }
        if (n == 1) {
          // Per-row ascending-k scalar FMA chain — exactly what a lone
          // rows=1 Gemm does for this shape (GemvRowAxpy's n=1 tail). A
          // batched Gemm would dispatch to GemvColDot, whose lane-blocked
          // dot reduces in a different order: the one shape in our plans
          // where Gemm's result depends on the row count, and the serving
          // contract (a row's bits never depend on its batch-mates) forbids
          // that. See docs/SERVING.md "Bit-exactness".
          const float* src = buf(op.in);
          const float* w = model_->param_data(op.weight);
          for (int64_t i = 0; i < rows; ++i) {
            float acc = 0.0f;
            const float* row = src + i * k;
            for (int64_t p = 0; p < k; ++p) acc = simd::MulAdd(row[p], w[p], acc);
            out[i] = acc;
          }
        } else if (rows == 1) {
          // Gemm's m == 1 path runs this same kernel over column chunks
          // whose elements are independent, so the bits match. Calling it
          // directly keeps the request path off the front end's shared
          // state: ThreadPool::Global() takes a process-wide mutex on every
          // call, which concurrent callers contend on.
          kern.gemv_row_axpy(0, n, k, 1.0f, buf(op.in), 1,
                             model_->param_data(op.weight), n, 0.0f, out,
                             gemv_acc);
        } else {
          Gemm(false, false, rows, n, k, 1.0f, buf(op.in), k,
               model_->param_data(op.weight), n, 0.0f, out, n);
        }
        if (op.bias >= 0) {
          // Broadcast bias add, scalar: addition is exactly rounded, so the
          // result matches the training path's vectorized Add.
          const float* bias = model_->param_data(op.bias);
          for (int64_t i = 0; i < rows; ++i) {
            float* row = out + i * n;
            for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
          }
        }
        break;
      }
      case PlanOp::Kind::kRelu: {
        // (x > 0) ? x : 0 — simd::Max(x, 0) semantics: NaN and -0 map to +0.
        const int64_t w = plan.buffer_widths[op.in];
        float* p = buf(op.in);
        const int64_t n = rows * w;
        for (int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
        break;
      }
      case PlanOp::Kind::kSoftmax: {
        // Per-row mirror of tensor SoftmaxRows: max-shift, exp, sequential
        // double-precision denominator, multiply by float(1/denom).
        const int64_t c = plan.buffer_widths[op.in];
        float* p = buf(op.in);
        for (int64_t i = 0; i < rows; ++i) {
          float* row = p + i * c;
          const float mx = *std::max_element(row, row + c);
          double denom = 0.0;
          for (int64_t j = 0; j < c; ++j) {
            row[j] = std::exp(row[j] - mx);
            denom += row[j];
          }
          const float inv = static_cast<float>(1.0 / denom);
          for (int64_t j = 0; j < c; ++j) row[j] *= inv;
        }
        break;
      }
      case PlanOp::Kind::kGateMulAcc: {
        // contrib = z * gate[:, col] rounded, then acc += contrib rounded —
        // two roundings, exactly like the training graph's Mul then Add
        // (an FMA here would produce different bits).
        const int64_t w = plan.buffer_widths[op.in];
        const int64_t gw = plan.buffer_widths[op.gate];
        const float* src = buf(op.in);
        const float* gate = buf(op.gate);
        float* acc = buf(op.out);
        for (int64_t i = 0; i < rows; ++i) {
          const float g = gate[i * gw + op.gate_col];
          const float* zrow = src + i * w;
          float* arow = acc + i * w;
          if (op.first) {
            for (int64_t j = 0; j < w; ++j) arow[j] = zrow[j] * g;
          } else {
            for (int64_t j = 0; j < w; ++j) {
              const float contrib = zrow[j] * g;
              arow[j] = arow[j] + contrib;
            }
          }
        }
        break;
      }
      case PlanOp::Kind::kCopyOut: {
        const int64_t w = plan.buffer_widths[op.in];
        std::memcpy(outputs[op.task], buf(op.in),
                    static_cast<size_t>(rows * w) * sizeof(float));
        break;
      }
    }
  }
  // MG_HOT_PATH_END
}

}  // namespace serve
}  // namespace mocograd
