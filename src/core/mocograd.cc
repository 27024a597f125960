#include "core/mocograd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/scratch.h"
#include "base/thread_pool.h"
#include "base/vec_ops.h"
#include "core/conflict.h"

namespace mocograd {
namespace core {

namespace {
constexpr double kNormEps = 1e-12;
// Columns per ParallelFor chunk of the combine pass.
constexpr int64_t kColGrain = 1 << 14;
// Columns per replay of the term list: the output chunk and the rows it
// reads stay cache-resident across the K-long term sequence.
constexpr int64_t kCombineChunk = 4096;

// One D-length update of the shared gradient: y += x (`add`, the task's own
// g_i) or y += scale · x (an Eq. 8 calibration term).
struct CalibrationTerm {
  const float* row;
  float scale;
  bool add;
};
}  // namespace

MoCoGrad::MoCoGrad(MoCoGradOptions options) : options_(options) {
  MG_CHECK_GT(options_.lambda, 0.0f, "lambda must be in (0, 1]");
  MG_CHECK_LE(options_.lambda, 1.0f, "lambda must be in (0, 1]");
  MG_CHECK_GE(options_.beta1, 0.0f);
  MG_CHECK_LT(options_.beta1, 1.0f);
}

void MoCoGrad::Reset() { momenta_.clear(); }

const std::vector<float>& MoCoGrad::momentum(int k) const {
  MG_CHECK_GE(k, 0);
  MG_CHECK_LT(k, static_cast<int>(momenta_.size()), "momentum not initialized");
  return momenta_[k];
}

AggregationResult MoCoGrad::Aggregate(const AggregationContext& ctx) {
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

  // The K×K Gram and the update list live in the thread's scratch arena.
  // Heap rows for them shifted glibc's heap layout under the trainer's
  // per-step gradient matrix (9 MB at K = 11, D = 205,696) enough that it
  // was trimmed and page-faulted back in on every step (measured).
  ScratchScope scope;
  double* gram = static_cast<double*>(
      scope.Alloc(static_cast<size_t>(k) * k * sizeof(double)));
  // At most K updates per task: g_i plus one term per other task.
  CalibrationTerm* terms = static_cast<CalibrationTerm*>(
      scope.Alloc(static_cast<size_t>(k) * k * sizeof(CalibrationTerm)));

  // Every pairwise dot in one pass; the gradient norms are its diagonal.
  std::vector<double> g_norm(k), m_norm(k);
  {
    obs::ScopedPhase gram_phase(ctx.profile, "gram");
    g.Gram(gram);
    for (int i = 0; i < k; ++i) {
      g_norm[i] = std::sqrt(gram[static_cast<size_t>(i) * k + i]);
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
  //
  // Nothing D-length happens in this loop: each update is recorded in the
  // order it applies (per task: its accumulate_all_conflicts terms, g_i,
  // then the chosen partner's term) and the combine pass replays them.
  // add_calibration records the Eq. (8) term for partner j and returns the
  // applied scale λ·‖g_j‖/‖m_j‖ (0 when there is nothing to add).
  size_t num_terms = 0;
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
    terms[num_terms++] = {dir, scale, false};
    return scale;
  };

  {
    obs::ScopedPhase calibrate_phase(ctx.profile, "calibrate");
    std::vector<int> others(k);
    std::iota(others.begin(), others.end(), 0);
    // MG_HOT_PATH — the O(K²) conflict decisions, read off the Gram; the
    // D-length work is only recorded here and replayed below.
    for (int i = 0; i < k; ++i) {
      int chosen = -1;
      ctx.rng->Shuffle(others);
      for (int j : others) {
        if (j == i) continue;
        // GCD(g_i, g_j) > 1 ⇔ g_i · g_j < 0 (Definition 3); the dot product
        // is the numerically robust form of the test.
        const double dot = gram[static_cast<size_t>(i) * k + j];
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
      terms[num_terms++] = {g.Row(i), 1.0f, true};
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

  // One pass over the columns: each chunk replays the recorded sums in
  // order, then applies Eq. (9)'s EMA to every momentum (the sums read
  // m^{t-1} of the chunk first). Every op is elementwise, so the chunking
  // changes no bit.
  {
    obs::ScopedPhase combine_phase(ctx.profile, "combine");
    const float b1 = options_.beta1;
    float* acc = out.shared_grad.data();
    // MG_HOT_PATH — the single D-length pass of the step.
    ParallelFor(0, p, kColGrain, [&](int64_t c0, int64_t c1) {
      for (int64_t q = c0; q < c1; q += kCombineChunk) {
        const int64_t n = std::min(kCombineChunk, c1 - q);
        for (size_t t = 0; t < num_terms; ++t) {
          const CalibrationTerm& term = terms[t];
          if (term.add) {
            vec::Add(n, term.row + q, acc + q);
          } else {
            vec::Axpy(n, term.scale, term.row + q, acc + q);
          }
        }
        for (int j = 0; j < k; ++j) {
          vec::Ema(n, b1, g.Row(j) + q, momenta_[j].data() + q);
        }
      }
    });
    // MG_HOT_PATH_END
  }
  return out;
}

}  // namespace core
}  // namespace mocograd
