#ifndef MOCOGRAD_SERVE_ENGINE_H_
#define MOCOGRAD_SERVE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "nn/module.h"
#include "serve/plan.h"

namespace mocograd {
namespace serve {

/// Storage precision of a ServeModel's parameter arena (docs/SERVING.md
/// "Reduced precision"). kFp32 is bit-exact against training; kBf16 stores
/// weights as bf16 (round-to-nearest-even truncation of the f32 pattern,
/// half the bytes and memory traffic) and widens them to f32 on load —
/// activations and accumulation stay f32, so the only deviation from fp32
/// serving is each weight's one-time storage rounding. Training is never
/// affected: precision is a property of the frozen snapshot only.
enum class ServePrecision { kFp32, kBf16 };

/// Precision selected by MOCOGRAD_SERVE_PRECISION ("fp32" | "bf16";
/// default, unset, and unrecognized values all mean fp32).
ServePrecision DefaultServePrecision();

/// "fp32" or "bf16" (telemetry / bench labels).
const char* ServePrecisionName(ServePrecision p);

/// A frozen model ready to serve: a ServePlan plus every parameter packed
/// into one immutable contiguous float arena (cache-friendly sequential
/// layout, no Variable / autograd machinery, no shared_ptr indirection per
/// layer). Snapshot a trained model with FromModule, or load a
/// nn/serialize checkpoint directly with FromCheckpoint — both validate
/// the parameter names/shapes against the plan before packing
/// (docs/SERVING.md).
class ServeModel {
 public:
  /// Packs the live parameters of `module` (typically the trained
  /// MtlModel the plan was built for). Names and shapes from
  /// Module::NamedParameters() must match the plan's ParamSpecs.
  /// Validation always runs at full precision; a kBf16 snapshot converts
  /// the arena after packing.
  static Result<ServeModel> FromModule(
      const ServePlan& plan, nn::Module& module,
      ServePrecision precision = DefaultServePrecision());

  /// Reads a checkpoint written by nn::SaveParameters straight into the
  /// arena — no module instantiation, no RNG, no tape. Shapes must match
  /// the plan's ParamSpecs in order.
  static Result<ServeModel> FromCheckpoint(
      const ServePlan& plan, const std::string& path,
      ServePrecision precision = DefaultServePrecision());

  const ServePlan& plan() const { return plan_; }
  int64_t input_dim() const { return plan_.input_dim; }
  int num_tasks() const { return plan_.num_tasks(); }
  int64_t task_output_dim(int k) const { return plan_.task_output_dims[k]; }

  ServePrecision precision() const { return precision_; }

  /// Start of parameter `idx` in the f32 arena. Valid only for a kFp32
  /// model (a kBf16 model keeps no f32 copy — halving resident weight
  /// bytes is the point).
  const float* param_data(int idx) const {
    return arena_.data() + offsets_[idx];
  }

  /// Start of parameter `idx` in the bf16 arena. Valid only for kBf16.
  const uint16_t* param_data_bf16(int idx) const {
    return arena_bf16_.data() + offsets_[idx];
  }

 private:
  ServeModel(ServePlan plan, std::vector<float> arena,
             std::vector<int64_t> offsets, ServePrecision precision);

  ServePlan plan_;
  std::vector<float> arena_;
  std::vector<uint16_t> arena_bf16_;  // non-empty iff precision_ == kBf16
  std::vector<int64_t> offsets_;
  ServePrecision precision_ = ServePrecision::kFp32;
};

/// Executes a ServeModel's plan over batches of feature rows. Construction
/// precomputes the activation-buffer layout ("build once"); Forward is the
/// run-many hot path: activations live in the calling thread's
/// ScratchArena, so after warm-up a forward performs zero heap allocations
/// regardless of batch size (the steady-state assertion in
/// tests/serve/serve_engine_test.cc). Forward is safe to call concurrently
/// from several threads — all mutable state is per-call scratch.
class InferenceSession {
 public:
  explicit InferenceSession(const ServeModel& model);

  /// Runs the plan on `input` ([rows, input_dim], row-major) and writes
  /// task k's predictions to outputs[k] ([rows, task_output_dim(k)]).
  /// Two bitwise guarantees (docs/SERVING.md "Bit-exactness"): a rows == 1
  /// call reproduces the training model's single-row Forward exactly, and
  /// a batched call reproduces `rows` independent single-row calls exactly
  /// whenever PlanIsBatchInvariant(plan) holds — so every served row gets
  /// the training model's single-row bits at any batch size. The input is
  /// read in place (never copied or written).
  void Forward(const float* input, int64_t rows, float* const* outputs) const;

  const ServeModel& model() const { return *model_; }

 private:
  const ServeModel* model_;
  std::vector<int64_t> buffer_prefix_;  // per-row float offset of each buffer
  int64_t total_width_ = 0;
  int64_t max_linear_width_ = 0;  // widest kLinear output: GEMV accumulator
};

}  // namespace serve
}  // namespace mocograd

#endif  // MOCOGRAD_SERVE_ENGINE_H_
