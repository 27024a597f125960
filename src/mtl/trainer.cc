#include "mtl/trainer.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "autograd/ops.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "core/grad_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mocograd {
namespace mtl {

namespace ag = autograd;
using data::Batch;
using data::TaskKind;

Variable TaskLoss(TaskKind kind, const Variable& pred, const Batch& batch) {
  switch (kind) {
    case TaskKind::kBinaryLogistic:
      return ag::BceWithLogits(pred, batch.y);
    case TaskKind::kRegression:
    case TaskKind::kRegressionMae:
      return ag::MseLoss(pred, batch.y);
    case TaskKind::kRegressionL1:
      return ag::L1Loss(pred, batch.y);
    case TaskKind::kClassification:
      return ag::SoftmaxCrossEntropy(pred, batch.labels);
    case TaskKind::kPixelClassification:
      return ag::SoftmaxCrossEntropy(ag::ChannelsToLast(pred), batch.labels);
    case TaskKind::kPixelRegression:
      return ag::MseLoss(pred, batch.y);
  }
  MG_FATAL("unhandled TaskKind");
}

MtlTrainer::MtlTrainer(MtlModel* model, core::GradientAggregator* aggregator,
                       optim::Optimizer* optimizer,
                       std::vector<data::TaskKind> kinds, uint64_t seed)
    : model_(model),
      aggregator_(aggregator),
      optimizer_(optimizer),
      kinds_(std::move(kinds)),
      rng_(seed) {
  MG_CHECK(model_ != nullptr && aggregator_ != nullptr &&
           optimizer_ != nullptr);
  method_name_ = aggregator_->name();
  MG_CHECK_EQ(static_cast<int>(kinds_.size()), model_->num_tasks(),
              "one TaskKind per task");
}

StepStats MtlTrainer::Step(const std::vector<Batch>& batches) {
  MG_TRACE_SCOPE("trainer.step");
  MG_METRIC_COUNT("trainer.steps", 1);
  const int k = model_->num_tasks();
  MG_CHECK_EQ(static_cast<int>(batches.size()), k, "one batch per task");

  StepStats stats;
  Stopwatch phase_timer;

  // Forward all tasks on one shared tape.
  std::vector<Variable> preds;
  std::vector<Variable> losses;
  {
    MG_TRACE_SCOPE("trainer.forward");
    std::vector<Variable> inputs;
    inputs.reserve(k);
    for (const Batch& b : batches) {
      inputs.emplace_back(b.x, /*requires_grad=*/false);
    }
    preds = model_->Forward(inputs);
    MG_CHECK_EQ(static_cast<int>(preds.size()), k);

    losses.reserve(k);
    for (int t = 0; t < k; ++t) {
      losses.push_back(TaskLoss(kinds_[t], preds[t], batches[t]));
      stats.losses.push_back(losses.back().value().Item());
    }
  }
  stats.phase.forward = phase_timer.ElapsedSeconds();

  Stopwatch backward_timer;

  // One backward per task. Each task's sweep only *reads* the shared tape —
  // leaf gradients are routed into a per-task sink instead of the nodes'
  // grad buffers — so the K sweeps launch concurrently on the pool, with
  // each task's flattened gradients written straight into its own GradMatrix
  // row (a merge that is deterministic by construction: row t belongs to
  // task t). Under the default ready-queue executor the sweeps additionally
  // overlap at tape-node granularity: every sweep feeds its ready nodes to
  // the shared pool, so workers drain whichever task currently has runnable
  // branches instead of being pinned one-per-task, and the GEMMs inside each
  // grad_fn still parallelize underneath (nested ParallelFor). Results are
  // bit-identical to a serial ZeroGrad+Backward loop for any pool size and
  // either executor — see docs/AUTOGRAD.md.
  std::vector<Variable*> shared = model_->SharedParameters();
  int64_t shared_dim = 0;
  for (Variable* p : shared) shared_dim += p->NumElements();
  // Kept across steps: the flatten below writes every element of every
  // row (copy or zero), so nothing from the previous step survives.
  if (task_grads_ == nullptr || task_grads_->num_tasks() != k ||
      task_grads_->dim() != shared_dim) {
    task_grads_ = std::make_unique<core::GradMatrix>(k, shared_dim);
  }
  core::GradMatrix& task_grads = *task_grads_;
  std::vector<std::vector<Tensor>> task_specific_grads(k);

  {
    MG_TRACE_SCOPE("trainer.backward");
    // Per-task backward/flatten split, accumulated per task and summed in
    // task order below so the reported phase times are independent of how
    // the pool interleaved the sweeps.
    std::vector<double> bwd_seconds(k, 0.0);
    std::vector<double> flat_seconds(k, 0.0);
    std::vector<Variable::GradSink> sinks(k);
    ParallelFor(0, k, 1, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        MG_TRACE_SCOPE("trainer.task_backward");
        MG_METRIC_TIME_SCOPE("trainer.task_backward.seconds");
        Stopwatch task_timer;
        Variable::GradSink& sink = sinks[t];
        losses[t].BackwardInto(&sink);
        bwd_seconds[t] = task_timer.ElapsedSeconds();

        MG_TRACE_SCOPE("trainer.task_flatten");
        task_timer.Restart();
        float* row = task_grads.Row(static_cast<int>(t));
        int64_t off = 0;
        for (Variable* p : shared) {
          const int64_t n = p->NumElements();
          auto it = sink.find(p->node().get());
          if (it != sink.end()) {
            std::memcpy(row + off, it->second.data(), n * sizeof(float));
          } else {
            std::memset(row + off, 0, n * sizeof(float));
          }
          off += n;
        }
        for (Variable* p : model_->TaskParameters(static_cast<int>(t))) {
          auto it = sink.find(p->node().get());
          // The sink tensor is freshly allocated per sweep, so sharing its
          // storage (no Clone) is safe.
          task_specific_grads[t].push_back(
              it != sink.end() ? it->second : Tensor::Zeros(p->shape()));
        }
        flat_seconds[t] = task_timer.ElapsedSeconds();
      }
    });
    for (int t = 0; t < k; ++t) {
      stats.phase.backward += bwd_seconds[t];
      stats.phase.flatten += flat_seconds[t];
    }
  }

  // Aggregate. The decision trace is attached unconditionally — it is
  // observation-only by contract, and always filling it keeps every
  // downstream value identical whether or not a telemetry sink is attached.
  core::AggregationResult agg;
  {
    MG_TRACE_SCOPE("trainer.aggregate");
    phase_timer.Restart();
    trace_.Begin(method_name_, k);
    core::AggregationContext ctx;
    ctx.task_grads = &task_grads;
    ctx.losses = &stats.losses;
    ctx.step = step_;
    ctx.rng = &rng_;
    ctx.profile = &stats.phase.aggregator;
    ctx.trace = &trace_;
    agg = aggregator_->Aggregate(ctx);
    stats.phase.aggregate = phase_timer.ElapsedSeconds();
  }
  stats.aggregator_conflicts = agg.num_conflicts;
  MG_METRIC_COUNT("trainer.aggregator_conflicts", agg.num_conflicts);
  MG_CHECK_EQ(static_cast<int64_t>(agg.shared_grad.size()), shared_dim);
  MG_CHECK_EQ(static_cast<int>(agg.task_weights.size()), k);

  // Conflict statistics, deduped against the aggregator's own pairwise
  // sweep: when the method published a complete cosine matrix through the
  // trace (MoCoGrad's calibration scan, the Gram-based solvers), those
  // cosines are reused; otherwise one O(K²·P) PairwiseCosines pass covers
  // stats, tracker, and telemetry together.
  const bool telemetry_sampled = telemetry_ != nullptr && telemetry_->ok() &&
                                 telemetry_->ShouldSample(step_);
  std::vector<double> fallback_cosines;
  const std::vector<double>* cosines = nullptr;
  if (conflict_stats_enabled_ || tracker_ != nullptr || telemetry_sampled) {
    MG_TRACE_SCOPE("trainer.conflict_stats");
    phase_timer.Restart();
    if (trace_.cosines_complete()) {
      cosines = &trace_.cosine_matrix();
    } else {
      fallback_cosines = core::PairwiseCosines(task_grads);
      cosines = &fallback_cosines;
    }
    if (conflict_stats_enabled_) {
      stats.conflicts = core::ConflictStatsFromCosines(k, *cosines);
      MG_METRIC_COUNT("trainer.conflicting_pairs",
                      stats.conflicts.num_conflicting_pairs);
    }
    if (tracker_ != nullptr) tracker_->RecordFromCosines(k, *cosines);
    stats.phase.conflict_stats = phase_timer.ElapsedSeconds();
  }

  stats.backward_seconds = backward_timer.ElapsedSeconds();

  // Watchdog scan over this step's losses and aggregated gradient.
  // Observation-only unless abort_on_event is set.
  if (watchdog_.options().enabled) {
    stats.watchdog_events = watchdog_.Observe(step_, stats.losses,
                                              agg.shared_grad);
    if (!stats.watchdog_events.empty()) {
      MG_METRIC_COUNT("trainer.watchdog_events",
                      static_cast<int64_t>(stats.watchdog_events.size()));
      for (const obs::WatchdogEvent& ev : stats.watchdog_events) {
        std::fprintf(stderr,
                     "mocograd: watchdog: step %lld: %s (task %d, value %g, "
                     "threshold %g)\n",
                     static_cast<long long>(ev.step), ev.kind.c_str(), ev.task,
                     ev.value, ev.threshold);
        if (telemetry_ != nullptr && telemetry_->ok()) {
          telemetry_->WriteWatchdogEvent(method_name_, ev);
        }
      }
      if (watchdog_.options().abort_on_event) {
        MG_FATAL("watchdog abort: ", stats.watchdog_events.size(),
                 " anomalies at step ", step_, " (first: ",
                 stats.watchdog_events.front().kind, ")");
      }
    }
  }

  // Write the combined gradient back onto the parameters and step.
  {
    MG_TRACE_SCOPE("trainer.write_back");
    phase_timer.Restart();
    model_->ZeroGrad();
    {
      int64_t off = 0;
      for (Variable* p : shared) {
        const int64_t n = p->NumElements();
        std::memcpy(p->mutable_grad().data(), agg.shared_grad.data() + off,
                    n * sizeof(float));
        off += n;
      }
    }
    for (int t = 0; t < k; ++t) {
      auto params = model_->TaskParameters(t);
      MG_CHECK_EQ(params.size(), task_specific_grads[t].size());
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor& g = params[i]->mutable_grad();
        g.CopyFrom(task_specific_grads[t][i]);
        tops::ScaleInPlace(g, agg.task_weights[t]);
      }
    }
    stats.phase.write_back = phase_timer.ElapsedSeconds();
  }
  if (max_grad_norm_ > 0.0f) {
    MG_TRACE_SCOPE("trainer.clip");
    phase_timer.Restart();
    // Global-norm clipping over every parameter gradient about to be
    // applied (the LibMTL-style safety net against aggregation spikes).
    double total = 0.0;
    for (Variable* p : model_->Parameters()) {
      if (!p->has_grad()) continue;
      const float n = tops::Norm(p->grad());
      total += static_cast<double>(n) * n;
    }
    const double norm = std::sqrt(total);
    if (norm > max_grad_norm_) {
      const float scale = max_grad_norm_ / static_cast<float>(norm);
      for (Variable* p : model_->Parameters()) {
        if (p->has_grad()) tops::ScaleInPlace(p->mutable_grad(), scale);
      }
    }
    stats.phase.clip = phase_timer.ElapsedSeconds();
  }

  {
    MG_TRACE_SCOPE("trainer.optimizer");
    phase_timer.Restart();
    optimizer_->Step();
    stats.phase.optimizer = phase_timer.ElapsedSeconds();
  }

  // Telemetry record, written last so the phase breakdown is complete.
  // Everything here *reads* finished step state — nothing feeds back.
  if (telemetry_sampled) {
    obs::TelemetryRecord rec;
    rec.step = step_;
    rec.method = method_name_;
    rec.num_tasks = k;
    rec.losses = stats.losses;
    rec.task_weights = agg.task_weights;
    rec.grad_norms = trace_.grad_norms();
    if (rec.grad_norms.empty()) {
      rec.grad_norms.reserve(k);
      for (int t = 0; t < k; ++t) {
        rec.grad_norms.push_back(task_grads.RowNorm(t));
      }
    }
    rec.momentum_norms = trace_.momentum_norms();
    if (cosines != nullptr) {
      rec.cosines = *cosines;
      const core::ConflictStats cs =
          conflict_stats_enabled_
              ? stats.conflicts
              : core::ConflictStatsFromCosines(k, *cosines);
      rec.mean_gcd = cs.mean_gcd;
      rec.max_gcd = cs.max_gcd;
      rec.num_conflicting_pairs = cs.num_conflicting_pairs;
      rec.num_pairs = cs.num_pairs;
    }
    rec.trace = &trace_;
    rec.phase_seconds = {{"forward", stats.phase.forward},
                         {"backward", stats.phase.backward},
                         {"flatten", stats.phase.flatten},
                         {"conflict_stats", stats.phase.conflict_stats},
                         {"aggregate", stats.phase.aggregate},
                         {"write_back", stats.phase.write_back},
                         {"clip", stats.phase.clip},
                         {"optimizer", stats.phase.optimizer}};
    telemetry_->WriteRecord(rec);
  }
  ++step_;
  return stats;
}

std::vector<Tensor> MtlTrainer::Predict(const std::vector<Batch>& batches) {
  const int k = model_->num_tasks();
  MG_CHECK_EQ(static_cast<int>(batches.size()), k);
  std::vector<Variable> inputs;
  inputs.reserve(k);
  for (const Batch& b : batches) {
    inputs.emplace_back(b.x, /*requires_grad=*/false);
  }
  std::vector<Variable> preds = model_->Forward(inputs);
  std::vector<Tensor> out;
  out.reserve(k);
  for (const Variable& p : preds) out.push_back(p.value());
  return out;
}

}  // namespace mtl
}  // namespace mocograd
