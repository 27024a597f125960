#include "core/mocograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "base/vec_ops.h"
#include "core/conflict.h"
#include "obs/telemetry.h"

namespace mocograd {
namespace {

using core::AggregationContext;
using core::AggregationResult;
using core::GradMatrix;
using core::MoCoGrad;
using core::MoCoGradOptions;

GradMatrix MakeGrads(const std::vector<std::vector<float>>& rows) {
  GradMatrix g(static_cast<int>(rows.size()),
               static_cast<int64_t>(rows[0].size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    g.SetRow(static_cast<int>(i), rows[i]);
  }
  return g;
}

core::AggregationResult Step(MoCoGrad& agg, const GradMatrix& g,
                             Rng& rng, int64_t step = 0) {
  std::vector<float> losses(g.num_tasks(), 1.0f);
  AggregationContext ctx;
  ctx.task_grads = &g;
  ctx.losses = &losses;
  ctx.step = step;
  ctx.rng = &rng;
  return agg.Aggregate(ctx);
}

double Dot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += double(a[i]) * b[i];
  return s;
}

double Norm(const std::vector<float>& a) { return std::sqrt(Dot(a, a)); }

// Test-only oracle: MoCoGrad::Aggregate as it was before the Gram-first
// rewrite, copied verbatim — one RowDot per ordered pair, one Axpy/Add per
// term straight into the output, then a separate EMA sweep. The production
// aggregator must reproduce it bit for bit.
class PerPairMoCoGrad : public core::GradientAggregator {
 public:
  explicit PerPairMoCoGrad(MoCoGradOptions options) : options_(options) {}
  std::string name() const override { return "mocograd"; }
  const std::vector<float>& momentum(int k) const { return momenta_[k]; }

  AggregationResult Aggregate(const AggregationContext& ctx) override {
    MG_CHECK(ctx.task_grads != nullptr);
    MG_CHECK(ctx.rng != nullptr, "MoCoGrad shuffles task order; rng required");
    const GradMatrix& g = *ctx.task_grads;
    const int k = g.num_tasks();
    const int64_t p = g.dim();

    if (momenta_.empty()) {
      momenta_.assign(k, std::vector<float>(p, 0.0f));
    }
    MG_CHECK_EQ(static_cast<int>(momenta_.size()), k,
                "task count changed across steps; call Reset()");

    // Pre-compute per-task gradient and momentum norms.
    std::vector<double> g_norm(k), m_norm(k);
    {
      obs::ScopedPhase norms_phase(ctx.profile, "norms");
      for (int i = 0; i < k; ++i) {
        g_norm[i] = g.RowNorm(i);
        m_norm[i] = std::sqrt(vec::SquaredNormF64(p, momenta_[i].data()));
      }
    }
    if (ctx.trace != nullptr) {
      ctx.trace->set_grad_norms(g_norm);
      ctx.trace->set_momentum_norms(m_norm);
    }

    AggregationResult out;
    out.shared_grad.assign(p, 0.0f);
    out.task_weights = OnesWeights(k);

    // Calibrate each task against the others in random order (Algorithm 1).
    // Line 10 of the pseudo-code *sets* ĝ_i = g_i + λ(‖g_j‖/‖m_j‖)m_j (it does
    // not accumulate), so with several conflicting partners the last one in
    // the random order provides the calibration — equivalently, a uniformly
    // random conflicting partner. This is what makes Theorem 1's ‖ĝ‖ ≤
    // K(1+λ)G bound hold (exactly one calibration term per task).
    // Adds the Eq. (8) calibration term for partner j to the output and
    // returns the applied scale λ·‖g_j‖/‖m_j‖ (0 when nothing was added).
    auto add_calibration = [&](int j) -> double {
      // Cold start (‖m_j‖ ≈ 0) falls back to the raw gradient g_j, the
      // history-free limit of Eq. (9).
      const float* dir;
      double dir_norm;
      if (!options_.use_raw_gradient && m_norm[j] > kNormEps) {
        dir = momenta_[j].data();
        dir_norm = m_norm[j];
      } else {
        dir = g.Row(j);
        dir_norm = g_norm[j];
      }
      if (dir_norm <= kNormEps) return 0.0;  // zero gradient: nothing to add
      const float scale =
          static_cast<float>(options_.lambda * g_norm[j] / dir_norm);
      vec::Axpy(p, scale, dir, out.shared_grad.data());
      return scale;
    };

    {
      obs::ScopedPhase calibrate_phase(ctx.profile, "calibrate");
      std::vector<int> others(k);
      std::iota(others.begin(), others.end(), 0);
      // MG_HOT_PATH — the O(K²·p) conflict/calibration sweep; all vector
      // arithmetic goes through the vec:: kernels, no allocation.
      for (int i = 0; i < k; ++i) {
        const float* gi = g.Row(i);
        int chosen = -1;
        ctx.rng->Shuffle(others);
        for (int j : others) {
          if (j == i) continue;
          // GCD(g_i, g_j) > 1 ⇔ g_i · g_j < 0 (Definition 3); the dot product
          // is the numerically robust form of the test.
          const double dot = g.RowDot(i, j);
          if (ctx.trace != nullptr) {
            // The sweep visits every ordered pair, so MoCoGrad publishes the
            // complete raw cosine matrix for free.
            const double denom = g_norm[i] * g_norm[j];
            ctx.trace->SetCosine(i, j, denom <= kNormEps ? 0.0 : dot / denom);
          }
          if (dot >= 0.0) continue;
          ++out.num_conflicts;
          if (options_.accumulate_all_conflicts) {
            const double scale = add_calibration(j);
            if (ctx.trace != nullptr) {
              ctx.trace->RecordPair(i, j, ctx.trace->cosine(i, j), scale,
                                    scale != 0.0);
            }
          } else {
            chosen = j;
            if (ctx.trace != nullptr) {
              ctx.trace->RecordPair(i, j, ctx.trace->cosine(i, j), 0.0, false);
            }
          }
        }
        vec::Add(p, gi, out.shared_grad.data());
        // Eq. (8): ĝ_i = g_i + λ (‖g_j‖/‖m_j‖) m_j for the chosen partner.
        if (chosen >= 0) {
          const double scale = add_calibration(chosen);
          if (ctx.trace != nullptr && scale != 0.0) {
            ctx.trace->MarkActed(i, chosen, scale);
          }
        }
      }
      // MG_HOT_PATH_END
    }

    // Eq. (9): one EMA update per task per step.
    {
      obs::ScopedPhase momentum_phase(ctx.profile, "momentum");
      const float b1 = options_.beta1;
      for (int j = 0; j < k; ++j) {
        vec::Ema(p, b1, g.Row(j), momenta_[j].data());
      }
    }
    return out;
  }

 private:
  static constexpr double kNormEps = 1e-12;
  MoCoGradOptions options_;
  std::vector<std::vector<float>> momenta_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Random rows around a shared direction with a random sign per task, so
// many pairs conflict. Task 1 is all-zero for the first steps and again
// every 7th step (cold start, zero-norm cosines, zero calibration scale);
// from step 3 on, task 2 is all-zero every 5th step.
void FillStep(GradMatrix* g, int step, Rng* data) {
  const int64_t p = g->dim();
  std::vector<float> common(p);
  for (int64_t q = 0; q < p; ++q) common[q] = data->Normal();
  for (int i = 0; i < g->num_tasks(); ++i) {
    float* row = g->Row(i);
    const bool zero = (i == 1 && (step < 2 || step % 7 == 0)) ||
                      (i == 2 && step >= 3 && step % 5 == 0);
    const float sign = data->Uniform() < 0.5f ? -0.5f : 0.5f;
    for (int64_t q = 0; q < p; ++q) {
      row[q] = zero ? 0.0f : sign * common[q] + data->Normal();
    }
  }
}

void ExpectMatchesOracle(const MoCoGradOptions& opts, int k) {
  SCOPED_TRACE("k=" + std::to_string(k) +
               " raw=" + std::to_string(opts.use_raw_gradient) +
               " all=" + std::to_string(opts.accumulate_all_conflicts));
  // Two reduction blocks, several combine chunks, a ragged tail.
  const int64_t p = 36001;
  MoCoGrad agg(opts);
  PerPairMoCoGrad oracle(opts);
  Rng rng(11), oracle_rng(11), data(23);
  GradMatrix g(k, p);
  std::vector<float> losses(k, 1.0f);
  obs::AggregatorTrace trace, oracle_trace;
  int conflicts = 0;
  int acted = 0;
  for (int step = 0; step < 50; ++step) {
    FillStep(&g, step, &data);
    AggregationContext ctx;
    ctx.task_grads = &g;
    ctx.losses = &losses;
    ctx.step = step;
    ctx.rng = &rng;
    ctx.trace = &trace;
    AggregationContext oracle_ctx = ctx;
    oracle_ctx.rng = &oracle_rng;
    oracle_ctx.trace = &oracle_trace;
    trace.Begin("mocograd", k);
    oracle_trace.Begin("mocograd", k);
    const auto r = agg.Aggregate(ctx);
    const auto want = oracle.Aggregate(oracle_ctx);
    ASSERT_EQ(r.num_conflicts, want.num_conflicts) << "step " << step;
    conflicts += r.num_conflicts;
    ASSERT_TRUE(SameBits(r.shared_grad, want.shared_grad)) << "step " << step;
    for (int i = 0; i < k; ++i) {
      ASSERT_TRUE(SameBits(agg.momentum(i), oracle.momentum(i)))
          << "step " << step << " task " << i;
    }
    ASSERT_TRUE(SameBits(trace.cosine_matrix(), oracle_trace.cosine_matrix()))
        << "step " << step;
    ASSERT_TRUE(SameBits(trace.grad_norms(), oracle_trace.grad_norms()));
    ASSERT_TRUE(
        SameBits(trace.momentum_norms(), oracle_trace.momentum_norms()));
    ASSERT_EQ(trace.pairs().size(), oracle_trace.pairs().size());
    for (size_t e = 0; e < trace.pairs().size(); ++e) {
      const obs::PairDecision& a = trace.pairs()[e];
      const obs::PairDecision& b = oracle_trace.pairs()[e];
      ASSERT_EQ(a.i, b.i);
      ASSERT_EQ(a.j, b.j);
      ASSERT_TRUE(SameBits(a.cosine, b.cosine));
      ASSERT_TRUE(SameBits(a.magnitude, b.magnitude));
      ASSERT_EQ(a.acted, b.acted) << "step " << step << " pair " << e;
      acted += a.acted;
    }
  }
  // The run exercised the calibration path, not only the Add path.
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(acted, 0);
}

TEST(MoCoGradTest, BitIdenticalToPerPairOracle) {
  MoCoGradOptions raw;
  raw.use_raw_gradient = true;
  MoCoGradOptions all;
  all.accumulate_all_conflicts = true;
  for (const MoCoGradOptions& opts : {MoCoGradOptions{}, raw, all}) {
    for (int k : {2, 3, 11}) ExpectMatchesOracle(opts, k);
  }
}

TEST(MoCoGradTest, NonConflictingGradientsUntouched) {
  MoCoGrad agg;
  Rng rng(1);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  auto r = Step(agg, g, rng);
  EXPECT_EQ(r.num_conflicts, 0);
  EXPECT_FLOAT_EQ(r.shared_grad[0], 1.0f);
  EXPECT_FLOAT_EQ(r.shared_grad[1], 1.0f);
}

TEST(MoCoGradTest, ColdStartFallsBackToRawGradient) {
  // First step, conflicting pair, momenta are zero: Eq. (8) must fall back
  // to λ·g_j. With g1=(1,0), g2=(-1,0.1), λ=0.5:
  // ĝ1 = g1 + 0.5*g2 ; ĝ2 = g2 + 0.5*g1 ; sum = 1.5*(g1+g2).
  MoCoGradOptions opts;
  opts.lambda = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(2);
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0.1f}});
  auto r = Step(agg, g, rng);
  EXPECT_EQ(r.num_conflicts, 2);
  EXPECT_NEAR(r.shared_grad[0], 1.5f * 0.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[1], 1.5f * 0.1f, 1e-5);
}

TEST(MoCoGradTest, MomentumFollowsEq9) {
  MoCoGradOptions opts;
  opts.beta1 = 0.9f;
  MoCoGrad agg(opts);
  Rng rng(3);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, g, rng, 0);
  // m = 0.9*0 + 0.1*g
  EXPECT_NEAR(agg.momentum(0)[0], 0.1f, 1e-6);
  EXPECT_NEAR(agg.momentum(1)[1], 0.1f, 1e-6);
  Step(agg, g, rng, 1);
  // m = 0.9*0.1 + 0.1*1 = 0.19
  EXPECT_NEAR(agg.momentum(0)[0], 0.19f, 1e-6);
}

TEST(MoCoGradTest, CalibrationUsesMomentumNotCurrentGradient) {
  // Warm up momentum of task 1 along +y, then present a conflicting current
  // gradient for task 1 along -x. The calibration applied to task 0 must
  // point along the *momentum* (+y-ish), not along the raw g_1.
  MoCoGradOptions opts;
  opts.lambda = 1.0f;
  opts.beta1 = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(4);
  // Step 1: no conflict; builds momenta. g0=+x, g1=+y.
  GradMatrix warm = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, warm, rng, 0);
  // Step 2: g0=+x, g1=-x (conflict with g0). m_1 before this step = (0, .5).
  GradMatrix g = MakeGrads({{1, 0}, {-1, 0}});
  auto r = Step(agg, g, rng, 1);
  EXPECT_GE(r.num_conflicts, 1);
  // ĝ0 = g0 + 1.0*(||g1||/||m1||)*m1 = (1,0) + (0,1)*2*0.5 = (1, 1).
  // ĝ1: conflict detected vs g0; m_0 = (0.5, 0) -> ĝ1 = (-1,0)+(1,0)=(0,0).
  EXPECT_NEAR(r.shared_grad[0], 1.0f, 1e-5);
  EXPECT_NEAR(r.shared_grad[1], 1.0f, 1e-5);
}

TEST(MoCoGradTest, Theorem1NormBound) {
  // ‖ĝ‖ ≤ K(1+λ)G where G bounds the task-gradient norms (Theorem 1).
  Rng data_rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 2 + trial % 5;
    const int64_t p = 12;
    MoCoGradOptions opts;
    opts.lambda = 0.05f + 0.9f * (trial % 10) / 10.0f;
    MoCoGrad agg(opts);
    Rng rng(trial);
    GradMatrix g(k, p);
    double gmax = 0.0;
    for (int i = 0; i < k; ++i) {
      for (int64_t q = 0; q < p; ++q) {
        g.Row(i)[q] = data_rng.Normal(0.0f, 2.0f);
      }
      gmax = std::max(gmax, g.RowNorm(i));
    }
    // Run several steps so momenta are non-trivial.
    for (int s = 0; s < 5; ++s) {
      auto r = Step(agg, g, rng, s);
      EXPECT_LE(Norm(r.shared_grad),
                k * (1.0 + opts.lambda) * gmax + 1e-4)
          << "k=" << k << " lambda=" << opts.lambda;
      EXPECT_LE(Norm(r.shared_grad), 2.0 * k * gmax + 1e-4);
    }
  }
}

TEST(MoCoGradTest, CalibrationPullsConflictingPairCloser) {
  // The manipulated gradients must have a larger cosine (smaller GCD) than
  // the originals when a conflict is calibrated.
  MoCoGradOptions opts;
  opts.lambda = 0.5f;
  MoCoGrad agg(opts);
  Rng rng(6);
  // Build momentum roughly aligned with each task's gradient first.
  GradMatrix warm = MakeGrads({{1.0f, 0.3f}, {-0.8f, 0.6f}});
  Step(agg, warm, rng, 0);
  GradMatrix g = MakeGrads({{1.0f, 0.3f}, {-0.8f, 0.6f}});
  const double gcd_before =
      core::Gcd(g.Row(0), g.Row(1), g.dim());
  ASSERT_GT(gcd_before, 1.0);

  // Manually compute ĝ_0 and ĝ_1 via one more aggregate and compare the
  // pairwise geometry of the *summed* output with the EW sum: MoCoGrad's sum
  // must align better with both tasks than the EW sum does with its worse
  // task.
  auto r = Step(agg, g, rng, 1);
  auto ew = g.SumRows();
  double worst_moco = 1e9, worst_ew = 1e9;
  for (int i = 0; i < 2; ++i) {
    const auto gi = g.RowVector(i);
    worst_moco = std::min(
        worst_moco, Dot(r.shared_grad, gi) / (Norm(r.shared_grad) * Norm(gi)));
    worst_ew = std::min(worst_ew, Dot(ew, gi) / (Norm(ew) * Norm(gi)));
  }
  EXPECT_GE(worst_moco, worst_ew - 1e-6);
}

TEST(MoCoGradTest, ResetClearsMomenta) {
  MoCoGrad agg;
  Rng rng(7);
  GradMatrix g = MakeGrads({{1, 0}, {0, 1}});
  Step(agg, g, rng, 0);
  EXPECT_GT(std::fabs(agg.momentum(0)[0]), 0.0f);
  agg.Reset();
  GradMatrix g3 = MakeGrads({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  // After reset a different task count must be accepted.
  auto r = Step(agg, g3, rng, 0);
  EXPECT_EQ(r.shared_grad.size(), 3u);
}

TEST(MoCoGradTest, LambdaValidation) {
  EXPECT_DEATH(MoCoGrad(MoCoGradOptions{.lambda = 0.0f}), "lambda");
  EXPECT_DEATH(MoCoGrad(MoCoGradOptions{.lambda = 1.5f}), "lambda");
  EXPECT_DEATH((MoCoGrad(MoCoGradOptions{.lambda = 0.5f, .beta1 = 1.0f})),
               "");
}

TEST(MoCoGradTest, DeterministicGivenSeed) {
  MoCoGradOptions opts;
  auto run = [&](uint64_t seed) {
    MoCoGrad agg(opts);
    Rng rng(seed);
    Rng data(17);
    GradMatrix g(4, 10);
    for (int i = 0; i < 4; ++i) {
      for (int64_t q = 0; q < 10; ++q) g.Row(i)[q] = data.Normal();
    }
    std::vector<float> out;
    for (int s = 0; s < 3; ++s) out = Step(agg, g, rng, s).shared_grad;
    return out;
  };
  auto a = run(5);
  auto b = run(5);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace mocograd
