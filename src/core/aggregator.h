#ifndef MOCOGRAD_CORE_AGGREGATOR_H_
#define MOCOGRAD_CORE_AGGREGATOR_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "core/grad_matrix.h"
#include "obs/phase_profile.h"
#include "obs/telemetry.h"

namespace mocograd {
namespace core {

/// Inputs available to a gradient-aggregation strategy at one optimization
/// step.
struct AggregationContext {
  /// K×P per-task gradients of the shared parameters. Never null.
  const GradMatrix* task_grads = nullptr;
  /// Current raw per-task losses (size K); loss-weighting methods use them.
  const std::vector<float>* losses = nullptr;
  /// 0-based optimization step index.
  int64_t step = 0;
  /// Randomness source for stochastic methods (task-order shuffles in
  /// PCGrad/MoCoGrad, RLW weight sampling, GradDrop masks). Never null.
  Rng* rng = nullptr;
  /// Optional sub-phase attribution sink. When non-null, methods with
  /// non-trivial inner work add their wall-clock split here (canonical
  /// bucket names: "gram", "solver", "eigen", "surgery", "calibrate",
  /// "combine" — see docs/OBSERVABILITY.md). May stay null;
  /// methods must not change behavior based on it.
  obs::PhaseProfile* profile = nullptr;
  /// Optional decision-trace sink (docs/OBSERVABILITY.md "Conflict
  /// telemetry"). When non-null (the trainer calls Begin before
  /// Aggregate), methods report which pairs conflicted, the repair
  /// magnitudes applied, solver iterations/weights, and — when they already
  /// computed them — the raw pairwise cosines. Same contract as `profile`:
  /// may stay null, and methods must not change any computed value, RNG
  /// draw, or accumulation order because of it.
  obs::AggregatorTrace* trace = nullptr;
};

/// Output of one aggregation step.
struct AggregationResult {
  /// Combined gradient for the shared parameters (size P).
  std::vector<float> shared_grad;
  /// Per-task scaling applied to each task's specific-parameter gradients
  /// (and conceptually to its loss); all-ones for pure gradient-surgery
  /// methods, the learned/sampled weights for loss-weighting methods.
  std::vector<float> task_weights;
  /// Number of conflicting (GCD > 1) ordered pairs the method acted on;
  /// 0 for methods that do not inspect conflicts.
  int num_conflicts = 0;
};

/// Strategy interface for combining per-task gradients into a single update
/// direction for the shared parameters. Implementations may keep state
/// across steps (momentum buffers, loss history, EMA targets); Reset()
/// clears it so one instance can be reused across training runs.
class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;

  /// Canonical lower-case method name (e.g. "mocograd").
  virtual std::string name() const = 0;

  /// Combines the per-task gradients for this step.
  virtual AggregationResult Aggregate(const AggregationContext& ctx) = 0;

  /// Clears any cross-step state. Default: stateless.
  virtual void Reset() {}

 protected:
  /// All-ones task weights helper.
  static std::vector<float> OnesWeights(int k) {
    return std::vector<float>(k, 1.0f);
  }
};

/// Plain joint training (equal weighting): g = Σ_k g_k. The no-surgery
/// baseline every other method is compared against.
class EqualWeight : public GradientAggregator {
 public:
  std::string name() const override { return "ew"; }
  AggregationResult Aggregate(const AggregationContext& ctx) override;
};

}  // namespace core
}  // namespace mocograd

#endif  // MOCOGRAD_CORE_AGGREGATOR_H_
