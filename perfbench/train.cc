// Training workloads: train_paper_k2 and train_wide_k11 (README.md).
//
// Both modes time the step at thread-pool size 1 (kTimedPool), set before
// anything creates the pool, so the timed part of the process runs on one
// thread, as a program run with MOCOGRAD_NUM_THREADS=1 does (a process that
// has started worker threads once stays slower; see README.md). On a shared
// virtual machine a step that needs every vCPU at once is stalled whenever
// the host takes one of them, and those stalls, not the program, decided
// the default-pool figures from run to run. The default pool (one thread
// per vCPU, as run.py clears MOCOGRAD_NUM_THREADS) runs after the timing.
//
// Untraced run: `MtlTrainer::Step` as users call it, timed together with
// the `SampleTrainBatches` call that feeds it, then a replay of the first
// census steps at the default pool that must reproduce every loss bitwise.
//
// Traced run: the same trainer (model A) runs beside a twin (model B, same
// seeds) whose step is rebuilt from the public calls the trainer makes —
// forward, per-task BackwardInto, flatten into a GradMatrix, Aggregate,
// write-back, Optimizer::Step, release — with a span around each. Both
// models see the same batches; every step the twin's losses must equal the
// trainer's bitwise, or the per-layer numbers would describe another
// program.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "common.h"
#include "core/aggregator.h"
#include "core/grad_matrix.h"
#include "core/registry.h"
#include "data/aliexpress.h"
#include "data/qm9.h"
#include "harness/experiment.h"
#include "mtl/trainer.h"
#include "obs/telemetry.h"
#include "optim/optimizer.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace mocograd {
namespace perfbench {
namespace {

using autograd::Variable;
using data::Batch;

/// Thread-pool size of every timed training step (see the file comment).
constexpr int kTimedPool = 1;

/// Creates the global pool at kTimedPool threads and returns the default
/// pool size, which the run switches to once the timing is done.
int UseTimedPool() {
  ThreadPool::SetGlobalNumThreads(kTimedPool);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Fixed shape of one training workload.
struct TrainSpec {
  int batch = 0;          // rows per task per step
  int census_steps = 0;   // steps of the replay, fidelity window and
                          // conflict/watchdog census (fixed: counts repeat;
                          // long enough on train_paper_k2 to reach the
                          // converged-noise watchdog flood)
  // Trunk layer-2 GEMM shapes for the tensor probe: forward
  // [rows x in]·[in x out] and weight gradient [in x rows]ᵀ·[rows x out].
  int64_t probe_rows = 0, probe_in = 0, probe_out = 0;
};

TrainSpec SpecFor(const std::string& workload) {
  if (workload == "train_paper_k2") {
    // EmbeddingHps trunk {64, 32} over 24 embedded inputs: layer 2 is 64->32.
    return {.batch = 64, .census_steps = 20000, .probe_rows = 64,
            .probe_in = 64, .probe_out = 32};
  }
  // Wide HPS trunk {512, 384}: layer 2 is 512->384, run once per task.
  return {.batch = 32, .census_steps = 60, .probe_rows = 32, .probe_in = 512,
          .probe_out = 384};
}

/// Model, aggregator and optimizer built from the workload seed.
struct Learner {
  std::unique_ptr<mtl::MtlModel> model;
  std::unique_ptr<core::GradientAggregator> aggregator;
  std::unique_ptr<optim::Optimizer> optimizer;
};

/// Everything a training run owns: dataset, sampling stream, learner and
/// the trainer driving it.
struct TrainSetup {
  std::unique_ptr<data::MtlDataset> dataset;
  std::vector<data::TaskKind> kinds;
  Rng data_rng{0};
  Learner learner;
  std::unique_ptr<mtl::MtlTrainer> trainer;
};

std::unique_ptr<data::MtlDataset> BuildDataset(const std::string& workload,
                                               uint64_t seed) {
  if (workload == "train_paper_k2") {
    data::AliExpressConfig cfg;
    cfg.seed = DeriveSeed(seed, 1);
    return std::make_unique<data::AliExpressSim>(cfg);
  }
  data::Qm9Config cfg;
  cfg.seed = DeriveSeed(seed, 1);
  return std::make_unique<data::Qm9Sim>(cfg);
}

Learner BuildLearner(const std::string& workload, int num_tasks,
                     uint64_t seed) {
  const harness::ModelFactory factory =
      workload == "train_paper_k2"
          ? harness::EmbeddingHpsFactory(/*dense_dim=*/8,
                                         /*num_user_segments=*/16,
                                         /*num_item_categories=*/32)
          : harness::MlpHpsFactory(/*input_dim=*/16, {512, 384});
  Rng init_rng(DeriveSeed(seed, 2));
  Learner l;
  l.model = factory(std::vector<int64_t>(num_tasks, 1), init_rng);
  auto agg = core::MakeAggregator("mocograd");
  MG_CHECK(agg.ok(), agg.status().ToString());
  l.aggregator = std::move(agg).value();
  l.optimizer = std::make_unique<optim::Adam>(l.model->Parameters(), 1e-2f);
  return l;
}

uint64_t TrainerSeed(uint64_t seed) { return DeriveSeed(seed, 4); }

std::unique_ptr<TrainSetup> BuildSetup(const std::string& workload,
                                       uint64_t seed) {
  auto s = std::make_unique<TrainSetup>();
  s->dataset = BuildDataset(workload, seed);
  for (int t = 0; t < s->dataset->num_tasks(); ++t) {
    s->kinds.push_back(s->dataset->task_kind(t));
  }
  s->data_rng = Rng(DeriveSeed(seed, 3));
  s->learner = BuildLearner(workload, s->dataset->num_tasks(), seed);
  s->trainer = std::make_unique<mtl::MtlTrainer>(
      s->learner.model.get(), s->learner.aggregator.get(),
      s->learner.optimizer.get(), s->kinds, TrainerSeed(seed));
  return s;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The twin of MtlTrainer::Step, rebuilt from public calls with one span
/// per layer. Mirrors the trainer's order and arithmetic exactly; it skips
/// only the trainer's observation-only passes (conflict statistics,
/// watchdog), whose cost therefore lands in mtl.unattributed_ms.
class RebuiltStep {
 public:
  RebuiltStep(Learner* learner, std::vector<data::TaskKind> kinds,
              uint64_t trainer_seed)
      : learner_(learner),
        kinds_(std::move(kinds)),
        rng_(trainer_seed),
        method_(learner->aggregator->name()) {}

  struct Out {
    std::vector<float> losses;
    int num_conflicts = 0;
  };

  Out Run(const std::vector<Batch>& batches, Tracer& tr, int64_t step) {
    mtl::MtlModel& model = *learner_->model;
    const int k = model.num_tasks();
    ScopedSpan root(tr, "mtl.rebuilt_step", step);
    Out out;

    std::vector<Variable> preds, losses;
    {
      ScopedSpan span(tr, "mtl.forward", step, root.id());
      std::vector<Variable> inputs;
      inputs.reserve(k);
      for (const Batch& b : batches) inputs.emplace_back(b.x, false);
      preds = model.Forward(inputs);
      losses.reserve(k);
      for (int t = 0; t < k; ++t) {
        losses.push_back(mtl::TaskLoss(kinds_[t], preds[t], batches[t]));
        out.losses.push_back(losses.back().value().Item());
      }
    }

    std::vector<Variable::GradSink> sinks(k);
    {
      ScopedSpan span(tr, "autograd.backward", step, root.id());
      ParallelFor(0, k, 1, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) losses[t].BackwardInto(&sinks[t]);
      });
    }

    std::vector<Variable*> shared = model.SharedParameters();
    std::optional<core::GradMatrix> task_grads;
    std::vector<std::vector<Tensor>> task_specific(k);
    {
      ScopedSpan span(tr, "core.flatten", step, root.id());
      int64_t dim = 0;
      for (Variable* p : shared) dim += p->NumElements();
      task_grads.emplace(k, dim);
      ParallelFor(0, k, 1, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const Variable::GradSink& sink = sinks[t];
          float* row = task_grads->Row(static_cast<int>(t));
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
          for (Variable* p : model.TaskParameters(static_cast<int>(t))) {
            auto it = sink.find(p->node().get());
            task_specific[t].push_back(
                it != sink.end() ? it->second : Tensor::Zeros(p->shape()));
          }
        }
      });
    }

    core::AggregationResult agg;
    {
      ScopedSpan span(tr, "core.aggregate", step, root.id());
      trace_.Begin(method_, k);
      core::AggregationContext ctx;
      ctx.task_grads = &*task_grads;
      ctx.losses = &out.losses;
      ctx.step = step_;
      ctx.rng = &rng_;
      ctx.trace = &trace_;
      agg = learner_->aggregator->Aggregate(ctx);
    }
    out.num_conflicts = agg.num_conflicts;

    {
      ScopedSpan span(tr, "autograd.write_back", step, root.id());
      model.ZeroGrad();
      int64_t off = 0;
      for (Variable* p : shared) {
        const int64_t n = p->NumElements();
        std::memcpy(p->mutable_grad().data(), agg.shared_grad.data() + off,
                    n * sizeof(float));
        off += n;
      }
      for (int t = 0; t < k; ++t) {
        std::vector<Variable*> params = model.TaskParameters(t);
        for (size_t i = 0; i < params.size(); ++i) {
          Tensor& g = params[i]->mutable_grad();
          g.CopyFrom(task_specific[t][i]);
          tops::ScaleInPlace(g, agg.task_weights[t]);
        }
      }
    }

    {
      ScopedSpan span(tr, "optim.step", step, root.id());
      learner_->optimizer->Step();
    }

    {
      // Everything the step allocated: grad sinks, the tape (held by the
      // loss and prediction Variables), the gradient matrix and the
      // aggregated gradient.
      ScopedSpan span(tr, "autograd.release", step, root.id());
      std::vector<Variable::GradSink>().swap(sinks);
      std::vector<std::vector<Tensor>>().swap(task_specific);
      std::vector<Variable>().swap(losses);
      std::vector<Variable>().swap(preds);
      task_grads.reset();
      std::vector<float>().swap(agg.shared_grad);
    }
    ++step_;
    return out;
  }

 private:
  Learner* learner_;
  std::vector<data::TaskKind> kinds_;
  Rng rng_;
  std::string method_;
  obs::AggregatorTrace trace_;
  int64_t step_ = 0;
};

/// Median microseconds of one Gemm call and its flop count.
struct GemmProbe {
  double us = 0.0;
  double flops = 0.0;
};

GemmProbe ProbeGemm(bool trans_a, int64_t m, int64_t n, int64_t k,
                    double seconds, uint64_t seed) {
  Rng rng(seed);
  // op(A) is m x k: stored k x m when transposed.
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (float& v : a) v = rng.Uniform(-1.0f, 1.0f);
  for (float& v : b) v = rng.Uniform(-1.0f, 1.0f);
  const int64_t lda = trans_a ? m : k;
  const double sec = MedianSecondsPerCall(
      [&] {
        Gemm(trans_a, false, m, n, k, 1.0f, a.data(), lda, b.data(), n, 0.0f,
             c.data(), n);
      },
      seconds);
  MG_CHECK(std::isfinite(c[0]));
  return {sec * 1e6, 2.0 * m * n * k};
}

void RunUntraced(const Args& args, const TrainSpec& spec, Result& result) {
  const int default_pool = UseTimedPool();

  // Set-up: dataset, model, aggregator, optimizer and trainer. It is built
  // kSetupReps times up front (the last build is kept) and once more after
  // each sixteenth of the timed steps, outside their timing; the median over
  // all builds is reported, so a slow moment of the host at start-up does
  // not decide it.
  constexpr int kSetupReps = 8;
  std::vector<double> setup_s;
  const auto build_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<TrainSetup> s = BuildSetup(args.workload, args.seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    return s;
  };
  std::unique_ptr<TrainSetup> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    setup.reset();
    setup = build_setup();
  }
  const int k = setup->dataset->num_tasks();

  // Warm-up (untimed), then --seconds of timed steps. The losses of the
  // first census steps are kept for the replay, in a buffer sized
  // up front. Peak RSS is read at the end of the warm-up, once the program
  // is in its steady state: later the harness's own step-time record grows
  // with the step count, and the mid-run set-ups hold a second TrainSetup.
  std::vector<float> census_losses(static_cast<size_t>(spec.census_steps) * k);
  std::vector<double> step_s;
  int64_t steps = 0, nonfinite = 0, watchdog_events = 0;
  const auto one_step = [&]() {
    std::vector<Batch> batches =
        setup->dataset->SampleTrainBatches(spec.batch, setup->data_rng);
    mtl::StepStats stats = setup->trainer->Step(batches);
    if (!AllFinite(stats.losses)) ++nonfinite;
    if (steps < spec.census_steps) {
      std::copy(stats.losses.begin(), stats.losses.end(),
                census_losses.begin() + steps * k);
    }
    watchdog_events += static_cast<int64_t>(stats.watchdog_events.size());
    ++steps;
  };
  const Clock::time_point warm_end = Deadline(0.05 * args.seconds);
  while (Clock::now() < warm_end || steps < 3) one_step();
  const double peak_rss = PeakRssMb();
  const double steal0 = HostStealSeconds();
  const Clock::time_point timed_start = Clock::now();
  const Clock::time_point end = Deadline(args.seconds);
  Clock::time_point next_build = Deadline(args.seconds / 16.0);
  while (Clock::now() < end || step_s.size() < 20) {
    const Clock::time_point t0 = Clock::now();
    one_step();
    step_s.push_back(SecondsBetween(t0, Clock::now()));
    if (Clock::now() >= next_build) {
      build_setup();
      next_build = Deadline(args.seconds / 16.0);
    }
  }
  const double steal_s = HostStealSeconds() - steal0;
  const double timed_s = SecondsBetween(timed_start, Clock::now());
  setup.reset();

  // Output check: a fresh, identically seeded trainer at the default pool
  // size must reproduce the census losses bit for bit (the pool-size
  // contract), and no loss may be non-finite.
  ThreadPool::SetGlobalNumThreads(default_pool);
  std::unique_ptr<TrainSetup> replay = BuildSetup(args.workload, args.seed);
  const int64_t census = std::min<int64_t>(steps, spec.census_steps);
  int64_t mismatched = 0;
  for (int64_t s = 0; s < census; ++s) {
    std::vector<Batch> batches =
        replay->dataset->SampleTrainBatches(spec.batch, replay->data_rng);
    const std::vector<float> expected(census_losses.begin() + s * k,
                                      census_losses.begin() + (s + 1) * k);
    if (!SameBits(replay->trainer->Step(batches).losses, expected)) {
      ++mismatched;
    }
  }
  result.Attempt(steps);
  result.Fail(mismatched, "pool-" + std::to_string(default_pool) +
                              " replay losses differ from the pool-" +
                              std::to_string(kTimedPool) + " run on " +
                              std::to_string(mismatched) + " of " +
                              std::to_string(census) + " census steps");
  result.Fail(nonfinite, "non-finite loss on " + std::to_string(nonfinite) +
                             " steps");

  // Every figure is a median over consecutive windows of the timed steps,
  // so a spell of slow host moves a few windows, not the result: p50 and
  // throughput over windows of >= 100 steps, p99 over windows of >= 1000
  // (ten steps beyond the p99), at most 64 windows.
  const double p50_ms = WindowedQuantile(step_s, 0.5, 100, 64) * 1e3;
  const double p99_ms = WindowedQuantile(step_s, 0.99, 1000, 64) * 1e3;
  const double rows = static_cast<double>(spec.batch) * k;
  const double samples_per_s =
      rows / WindowedMedian(step_s, 100, 64, [](const std::vector<double>& w) {
        return Mean(w);
      });
  const double setup_med = Quantile(setup_s, 0.5);
  const size_t n = step_s.size();
  result.Line("workload %s  seed %llu  pool %d  K=%d  batch %d  rows/step %g",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), kTimedPool, k,
              spec.batch, rows);
  result.Line("step_ms_p50   %10.4f ms   (n=%zu steps; median over windows "
              "of >= 100 steps)",
              p50_ms, n);
  result.Line("step_ms_p99   %10.4f ms   (n=%zu steps; median over windows "
              "of >= 1000 steps)",
              p99_ms, n);
  result.Line("samples_per_s %10.1f 1/s  (n=%zu steps; median over windows "
              "of >= 100 steps)",
              samples_per_s, n);
  result.Line("setup_s       %10.6f s    (median of %zu set-ups)", setup_med,
              setup_s.size());
  result.Line("peak_rss_mb   %10.2f MB", peak_rss);
  const unsigned vcpus = std::max(1u, std::thread::hardware_concurrency());
  result.Line("host steal during the timed steps: %.2f s (%.1f%% of %.1f s "
              "x %u vCPUs)",
              steal_s, 100.0 * steal_s / (timed_s * vcpus), timed_s, vcpus);
  result.Line("output check: %lld/%lld pool-%d replay steps bitwise equal; "
              "%lld non-finite; watchdog events over the run: %lld (stderr "
              "log)",
              static_cast<long long>(census - mismatched),
              static_cast<long long>(census), default_pool,
              static_cast<long long>(nonfinite),
              static_cast<long long>(watchdog_events));

  result.Metric("latency_p50_ms", p50_ms, "ms");
  result.Metric("latency_p99_ms", p99_ms, "ms");
  result.Metric("throughput_per_s", samples_per_s, "1/s");
  result.Metric("setup_s", setup_med, "s");
  result.Metric("peak_rss_mb", peak_rss, "MB");

  result.Detail("config",
                "{\"dataset\": " + JsonString(args.workload == "train_paper_k2"
                                                  ? "aliexpress_ES"
                                                  : "qm9") +
                    ", \"method\": \"mocograd\", \"optimizer\": \"adam\", "
                    "\"lr\": 0.01, \"num_tasks\": " +
                    std::to_string(k) +
                    ", \"batch_per_task\": " + std::to_string(spec.batch) +
                    ", \"timed_pool\": " + std::to_string(kTimedPool) +
                    ", \"replay_pool\": " + std::to_string(default_pool) +
                    ", \"census_steps\": " + std::to_string(spec.census_steps) +
                    "}");
  result.Detail("samples",
                "{\"timed_steps\": " + std::to_string(n) +
                    ", \"total_steps\": " + std::to_string(steps) +
                    ", \"setups\": " + std::to_string(setup_s.size()) +
                    ", \"watchdog_events\": " +
                    std::to_string(watchdog_events) +
                    ", \"host_steal_s\": " + JsonNumber(steal_s) + "}");
}

void RunTraced(const Args& args, const TrainSpec& spec, Result& result) {
  const int default_pool = UseTimedPool();
  std::unique_ptr<TrainSetup> a = BuildSetup(args.workload, args.seed);
  const int k = a->dataset->num_tasks();
  Learner twin = BuildLearner(args.workload, k, args.seed);
  RebuiltStep rebuilt(&twin, a->kinds, TrainerSeed(args.seed));

  Tracer tracer(true);
  Tracer off(false);
  int64_t mismatched = 0, conflicts = 0, watchdog = 0, conflict_diff = 0;
  std::vector<double> untraced_rebuilt_s;
  int64_t step = 0;

  // Phase 1 (pool kTimedPool): trainer and rebuilt twin, step by step on the
  // same batches, alternating which goes first. Steps 3 and 6 of every
  // eight run the twin with spans off to measure the tracing overhead: one
  // odd and one even step, so the traced and the untraced sample each see
  // both orders equally often.
  const Clock::time_point phase1_end = Deadline(0.6 * args.seconds);
  while (Clock::now() < phase1_end || step < spec.census_steps) {
    std::vector<Batch> batches;
    {
      ScopedSpan span(tracer, "data.sample", step);
      batches = a->dataset->SampleTrainBatches(spec.batch, a->data_rng);
    }
    mtl::StepStats stats;
    RebuiltStep::Out out;
    const bool traced = step % 8 != 3 && step % 8 != 6;
    const auto run_trainer = [&] {
      ScopedSpan span(tracer, "mtl.step", step);
      stats = a->trainer->Step(batches);
    };
    const auto run_twin = [&] {
      if (traced) {
        out = rebuilt.Run(batches, tracer, step);
      } else {
        const Clock::time_point t0 = Clock::now();
        out = rebuilt.Run(batches, off, step);
        untraced_rebuilt_s.push_back(SecondsBetween(t0, Clock::now()));
      }
    };
    if (step % 2 == 0) {
      run_trainer();
      run_twin();
    } else {
      run_twin();
      run_trainer();
    }
    if (!SameBits(stats.losses, out.losses) || !AllFinite(stats.losses)) {
      ++mismatched;
    }
    if (out.num_conflicts != stats.aggregator_conflicts) ++conflict_diff;
    if (step < spec.census_steps) {
      conflicts += stats.aggregator_conflicts;
      watchdog += static_cast<int64_t>(stats.watchdog_events.size());
    }
    ++step;
  }
  const int64_t phase1_steps = step;

  // Phase 2: the trainer alone at the default pool size.
  ThreadPool::SetGlobalNumThreads(default_pool);
  const Clock::time_point phase2_end = Deadline(0.25 * args.seconds);
  for (int64_t s = 0; Clock::now() < phase2_end || s < 20; ++s, ++step) {
    std::vector<Batch> batches =
        a->dataset->SampleTrainBatches(spec.batch, a->data_rng);
    ScopedSpan span(tracer, "mtl.step_default_pool", step);
    a->trainer->Step(batches);
  }

  // Phase 3: Gemm probes on the trunk's layer-2 shapes.
  const GemmProbe fwd =
      ProbeGemm(false, spec.probe_rows, spec.probe_out, spec.probe_in,
                0.05 * args.seconds, DeriveSeed(args.seed, 5));
  const GemmProbe wgrad =
      ProbeGemm(true, spec.probe_in, spec.probe_out, spec.probe_rows,
                0.05 * args.seconds, DeriveSeed(args.seed, 6));

  result.Attempt(phase1_steps);
  result.Fail(mismatched, "rebuilt step losses differ from MtlTrainer::Step "
                          "on " + std::to_string(mismatched) + " of " +
                              std::to_string(phase1_steps) + " steps");
  result.Fail(conflict_diff, "rebuilt step acted on a different number of "
                             "conflicts on " +
                                 std::to_string(conflict_diff) + " steps");

  // Per-layer means over the spans of phase 1.
  const auto by_name = tracer.SelfByName();
  const auto mean_ms = [&](const char* name) {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.second == 0) return 0.0;
    return it->second.first / it->second.second * 1e3;
  };
  const char* kParts[] = {"mtl.forward",       "autograd.backward",
                          "core.flatten",      "core.aggregate",
                          "autograd.write_back", "optim.step",
                          "autograd.release"};
  double parts_ms = 0.0;
  for (const char* p : kParts) parts_ms += mean_ms(p);
  const double rebuilt_glue_ms = mean_ms("mtl.rebuilt_step");
  const double step_ms = mean_ms("mtl.step");
  const double traced_rebuilt_ms = parts_ms + rebuilt_glue_ms;
  const double untraced_rebuilt_ms = Mean(untraced_rebuilt_s) * 1e3;
  const double gemm_gflops =
      (fwd.flops + wgrad.flops) / ((fwd.us + wgrad.us) * 1e-6) * 1e-9;

  result.Line("workload %s  seed %llu  pool %d  K=%d  batch %d  (traced)",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), kTimedPool, k,
              spec.batch);
  result.Line("phase 1: %lld steps of MtlTrainer::Step + rebuilt twin step "
              "(%zu of them with spans off)",
              static_cast<long long>(phase1_steps),
              untraced_rebuilt_s.size());
  result.Line("fidelity: rebuilt losses bitwise equal on %lld/%lld steps",
              static_cast<long long>(phase1_steps - mismatched),
              static_cast<long long>(phase1_steps));
  result.Line("%-24s %10s", "layer (self time)", "ms/step");
  result.Line("%-24s %10.4f", "data.sample", mean_ms("data.sample"));
  for (const char* p : kParts) result.Line("  %-22s %10.4f", p, mean_ms(p));
  result.Line("  %-22s %10.4f", "(rebuilt-step glue)", rebuilt_glue_ms);
  result.Line("%-24s %10.4f  = parts %.4f + unattributed %.4f",
              "mtl.step (trainer)", step_ms, parts_ms, step_ms - parts_ms);
  result.Line("%-24s %10.4f  (pool %d)", "mtl.step_default_pool",
              mean_ms("mtl.step_default_pool"), default_pool);
  result.Line("tracing overhead: rebuilt step %.4f ms traced vs %.4f ms "
              "untraced",
              traced_rebuilt_ms, untraced_rebuilt_ms);
  result.Line("census over the first %d steps: conflicts acted %lld, "
              "watchdog events %lld",
              spec.census_steps, static_cast<long long>(conflicts),
              static_cast<long long>(watchdog));
  result.Line("gemm probe: fwd %lldx%lldx%lld %.3f us, wgrad %.3f us, "
              "%.2f GFLOP/s (flops from shapes)",
              static_cast<long long>(spec.probe_rows),
              static_cast<long long>(spec.probe_in),
              static_cast<long long>(spec.probe_out), fwd.us, wgrad.us,
              gemm_gflops);

  result.Metric("data.sample_ms", mean_ms("data.sample"), "ms");
  result.Metric("mtl.forward_ms", mean_ms("mtl.forward"), "ms");
  result.Metric("autograd.backward_ms", mean_ms("autograd.backward"), "ms");
  result.Metric("core.flatten_ms", mean_ms("core.flatten"), "ms");
  result.Metric("core.aggregate_ms", mean_ms("core.aggregate"), "ms");
  result.Metric("autograd.write_back_ms", mean_ms("autograd.write_back"),
                "ms");
  result.Metric("optim.step_ms", mean_ms("optim.step"), "ms");
  result.Metric("autograd.release_ms", mean_ms("autograd.release"), "ms");
  result.Metric("mtl.step_ms", step_ms, "ms");
  result.Metric("mtl.step_ms_default_pool", mean_ms("mtl.step_default_pool"),
                "ms");
  result.Metric("mtl.unattributed_ms", step_ms - parts_ms, "ms");
  result.Metric("mtl.watchdog_events", static_cast<double>(watchdog),
                "count");
  result.Metric("core.conflicts_acted", static_cast<double>(conflicts),
                "count");
  result.Metric("tensor.gemm_us.fwd", fwd.us, "us");
  result.Metric("tensor.gemm_us.wgrad", wgrad.us, "us");
  result.Metric("tensor.gemm_gflops", gemm_gflops, "GFLOP/s");
  result.Metric("trace.overhead_ms", traced_rebuilt_ms - untraced_rebuilt_ms,
                "ms");

  const std::string span_path = std::string(kOutDir) + "/" +
                                args.workload + "_seed" +
                                std::to_string(args.seed) + "_spans.json";
  constexpr int64_t kSpanFileSteps = 1000;
  if (!tracer.WriteChromeTrace(span_path, kSpanFileSteps)) {
    result.CheckError("cannot write span file " + span_path);
  }
  result.Line("span file: %s (steps < %lld; %zu spans in memory)",
              span_path.c_str(), static_cast<long long>(kSpanFileSteps),
              tracer.spans().size());
  result.Detail("traced",
                "{\"phase1_steps\": " + std::to_string(phase1_steps) +
                    ", \"untraced_twin_steps\": " +
                    std::to_string(untraced_rebuilt_s.size()) +
                    ", \"census_steps\": " + std::to_string(spec.census_steps) +
                    ", \"rebuilt_glue_ms\": " + JsonNumber(rebuilt_glue_ms) +
                    ", \"span_file\": " + JsonString(span_path) + "}");
}

}  // namespace

void RunTrainWorkload(const Args& args, Result& result) {
  const TrainSpec spec = SpecFor(args.workload);
  if (args.trace) {
    RunTraced(args, spec, result);
  } else {
    RunUntraced(args, spec, result);
  }
}

}  // namespace perfbench
}  // namespace mocograd
