// Serving-engine benchmark: drives the frozen-weight forward path (src/serve)
// with closed-loop traffic over the model zoo's serving shapes, and writes
// BENCH_serve.json (or argv[1]).
//
// Two traffic modes per (model, dataset) combination:
//   closed_single        — one caller, one row per InferenceSession::Forward:
//                          the per-request cost of serving a row inline, as
//                          MicroBatcher::Infer does.
//   closed_batch_forward — one caller, `batch` rows per Forward: the
//                          engine's batching gain for callers that already
//                          hold a batch, swept over batch {8, 16, 32}.
//
// Methodology: rates are best-of-kTrials (bench_common.h); latency
// quantiles come from per-request timestamps into preallocated slots.
// Open-loop serving under a calibrated rate ladder is perfbench's
// serve_open_mmoe workload.
//
// The report also carries the active runtime-ISA tier ("isa_tier"), a
// "precision" tag per traffic row (the harness drives fp32 engines), and
// a "precision_compare" section: single-row (GEMV-shaped) throughput of a
// bf16-weight engine vs its fp32 twin on each serving shape plus a wide
// embedding-style shape whose weight arena actually stresses memory
// bandwidth, with the bf16-vs-fp32 max-abs output error recorded
// (docs/SERVING.md "Reduced precision").

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/simd.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench_common.h"
#include "mtl/cgc.h"
#include "mtl/hps.h"
#include "mtl/mmoe.h"
#include "serve/engine.h"
#include "serve/plan.h"

namespace mocograd {
namespace {

constexpr int kTrials = 5;

// The harness's serving shapes: AliExpress-style (10 dense features, 2
// tasks: CTR/CVR) and MovieLens-style (16 features, 9 genre tasks), expert
// towers {64, 32} throughout (harness::ArchitectureFactory).
struct DatasetSpec {
  const char* name;
  int64_t input_dim;
  int num_tasks;
};

// Tower geometry for a (model, dataset) combination. The harness shapes
// use the zoo's default {64, 32} towers; the precision comparison adds a
// wide variant whose weight arena is big enough to stress bandwidth.
struct TowerSpec {
  std::vector<int64_t> dims = {64, 32};
  int num_experts = 6;  // mmoe only
};

serve::ServePlan BuildPlan(const std::string& model, const DatasetSpec& ds,
                           const TowerSpec& tower) {
  const std::vector<int64_t> task_dims(ds.num_tasks, 1);
  if (model == "hps") {
    mtl::HpsConfig cfg;
    cfg.input_dim = ds.input_dim;
    cfg.shared_dims = tower.dims;
    cfg.task_output_dims = task_dims;
    return serve::BuildHpsPlan(cfg);
  }
  if (model == "mmoe") {
    mtl::MmoeConfig cfg;
    cfg.input_dim = ds.input_dim;
    cfg.num_experts = tower.num_experts;
    cfg.expert_dims = tower.dims;
    cfg.task_output_dims = task_dims;
    return serve::BuildMmoePlan(cfg);
  }
  mtl::CgcConfig cfg;
  cfg.input_dim = ds.input_dim;
  cfg.num_shared_experts = 3;
  cfg.num_task_experts = 1;
  cfg.expert_dims = tower.dims;
  cfg.task_output_dims = task_dims;
  return serve::BuildCgcPlan(cfg);
}

serve::ServeModel BuildServeModel(
    const std::string& model, const DatasetSpec& ds, const TowerSpec& tower,
    serve::ServePrecision precision = serve::ServePrecision::kFp32) {
  const serve::ServePlan plan = BuildPlan(model, ds, tower);
  Rng rng(0x5e77e + ds.input_dim * 131 + ds.num_tasks);
  if (model == "hps") {
    mtl::HpsConfig cfg;
    cfg.input_dim = ds.input_dim;
    cfg.shared_dims = tower.dims;
    cfg.task_output_dims = std::vector<int64_t>(ds.num_tasks, 1);
    mtl::HpsModel m(cfg, rng);
    return serve::ServeModel::FromModule(plan, m, precision).value();
  }
  if (model == "mmoe") {
    mtl::MmoeConfig cfg;
    cfg.input_dim = ds.input_dim;
    cfg.num_experts = tower.num_experts;
    cfg.expert_dims = tower.dims;
    cfg.task_output_dims = std::vector<int64_t>(ds.num_tasks, 1);
    mtl::MmoeModel m(cfg, rng);
    return serve::ServeModel::FromModule(plan, m, precision).value();
  }
  mtl::CgcConfig cfg;
  cfg.input_dim = ds.input_dim;
  cfg.num_shared_experts = 3;
  cfg.num_task_experts = 1;
  cfg.expert_dims = tower.dims;
  cfg.task_output_dims = std::vector<int64_t>(ds.num_tasks, 1);
  mtl::CgcModel m(cfg, rng);
  return serve::ServeModel::FromModule(plan, m, precision).value();
}

// One measurement row of the JSON report.
struct RunStats {
  std::string mode;
  int batch = 1;
  int64_t requests = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

// Per-request output buffers for one caller, preallocated.
struct OutputSlots {
  std::vector<float> data;
  std::vector<float*> ptrs;

  explicit OutputSlots(const serve::ServeModel& sm) {
    int64_t total = 0;
    for (int k = 0; k < sm.num_tasks(); ++k) total += sm.task_output_dim(k);
    data.resize(total);
    int64_t off = 0;
    for (int k = 0; k < sm.num_tasks(); ++k) {
      ptrs.push_back(data.data() + off);
      off += sm.task_output_dim(k);
    }
  }
};

double PercentileUs(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted_us.size() - 1));
  return sorted_us[idx];
}

// Closed loop, batch of one: the baseline cost of a request.
RunStats RunClosedSingle(const serve::ServeModel& sm,
                         const std::vector<float>& rows, int64_t num_rows,
                         int requests) {
  serve::InferenceSession session(sm);
  OutputSlots out(sm);
  const int64_t in = sm.input_dim();
  int64_t next = 0;
  const double sec_per_req =
      bench::BestSecondsPerRep(kTrials, requests, [&] {
        session.Forward(rows.data() + (next++ % num_rows) * in, 1,
                        out.ptrs.data());
      });

  std::vector<double> lat_us(requests);
  for (int r = 0; r < requests; ++r) {
    Stopwatch sw;
    session.Forward(rows.data() + (r % num_rows) * in, 1, out.ptrs.data());
    lat_us[r] = sw.ElapsedSeconds() * 1e6;
  }
  std::sort(lat_us.begin(), lat_us.end());

  RunStats s;
  s.mode = "closed_single";
  s.requests = requests;
  s.qps = 1.0 / sec_per_req;
  s.p50_us = PercentileUs(lat_us, 0.50);
  s.p95_us = PercentileUs(lat_us, 0.95);
  s.p99_us = PercentileUs(lat_us, 0.99);
  return s;
}

// Closed loop, batched forward: one caller handing the engine `batch` rows
// per Forward call. This is the engine's raw batching gain — the GEMM
// microkernel reuses each weight panel across row tiles and the op-dispatch
// walk/scratch setup amortize over the batch.
RunStats RunBatchForward(const serve::ServeModel& sm,
                         const std::vector<float>& rows, int64_t num_rows,
                         int batch, int calls) {
  serve::InferenceSession session(sm);
  const int64_t in = sm.input_dim();
  std::vector<std::vector<float>> out(sm.num_tasks());
  std::vector<float*> out_ptrs;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    out[k].resize(static_cast<size_t>(batch) * sm.task_output_dim(k));
    out_ptrs.push_back(out[k].data());
  }
  const int64_t stride = num_rows - batch;  // rotate through the row pool
  int64_t next = 0;
  const double sec_per_call =
      bench::BestSecondsPerRep(kTrials, calls, [&] {
        session.Forward(rows.data() + (next++ % stride) * in, batch,
                        out_ptrs.data());
      });

  std::vector<double> lat_us(calls);
  for (int c = 0; c < calls; ++c) {
    Stopwatch sw;
    session.Forward(rows.data() + (c % stride) * in, batch, out_ptrs.data());
    lat_us[c] = sw.ElapsedSeconds() * 1e6;
  }
  std::sort(lat_us.begin(), lat_us.end());

  RunStats s;
  s.mode = "closed_batch_forward";
  s.batch = batch;
  s.requests = static_cast<int64_t>(calls) * batch;
  s.qps = batch / sec_per_call;
  s.p50_us = PercentileUs(lat_us, 0.50);
  s.p95_us = PercentileUs(lat_us, 0.95);
  s.p99_us = PercentileUs(lat_us, 0.99);
  return s;
}

std::string StatsJson(const std::string& model, const DatasetSpec& ds,
                      bool batch_invariant, const RunStats& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"model\": \"%s\", \"dataset\": \"%s\", \"mode\": \"%s\", "
      "\"precision\": \"fp32\", \"batch\": %d, \"requests\": %lld, "
      "\"qps\": %.1f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
      "\"p99_us\": %.2f, \"batch_invariant\": %s}",
      model.c_str(), ds.name, s.mode.c_str(), s.batch,
      static_cast<long long>(s.requests), s.qps, s.p50_us, s.p95_us,
      s.p99_us, batch_invariant ? "true" : "false");
  return buf;
}

// One batched forward over the first `rows` pool rows, outputs resized
// per task.
void RunForwardBatch(const serve::ServeModel& sm, const std::vector<float>& x,
                     int64_t rows, std::vector<std::vector<float>>* out) {
  serve::InferenceSession session(sm);
  out->resize(sm.num_tasks());
  std::vector<float*> ptrs;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    (*out)[k].assign(static_cast<size_t>(rows * sm.task_output_dim(k)),
                     0.0f);
    ptrs.push_back((*out)[k].data());
  }
  session.Forward(x.data(), rows, ptrs.data());
}

// One fp32-vs-bf16 comparison: single-row closed-loop throughput (the
// GEMV-shaped path where halving the weight bytes pays directly) of two
// engines built from the same module, plus the bf16 engine's max-abs
// output deviation over a probe batch — the only error source is each
// weight's one-time storage rounding.
struct PrecisionRow {
  std::string model;
  std::string dataset;
  int requests = 0;
  double qps_fp32 = 0.0;
  double qps_bf16 = 0.0;
  double speedup_bf16 = 0.0;
  double max_abs_error = 0.0;
};

PrecisionRow RunPrecisionCompare(const std::string& model,
                                 const DatasetSpec& ds,
                                 const TowerSpec& tower, int requests) {
  const serve::ServeModel fp32 =
      BuildServeModel(model, ds, tower, serve::ServePrecision::kFp32);
  const serve::ServeModel bf16 =
      BuildServeModel(model, ds, tower, serve::ServePrecision::kBf16);

  const int64_t kNumRows = 256;
  Rng rng(0xb16f + ds.input_dim);
  std::vector<float> rows(kNumRows * fp32.input_dim());
  for (float& v : rows) v = rng.Uniform(-1.0f, 1.0f);

  const auto single_row_qps = [&](const serve::ServeModel& sm) {
    serve::InferenceSession session(sm);
    OutputSlots out(sm);
    const int64_t in = sm.input_dim();
    int64_t next = 0;
    const double sec = bench::BestSecondsPerRep(kTrials, requests, [&] {
      session.Forward(rows.data() + (next++ % kNumRows) * in, 1,
                      out.ptrs.data());
    });
    return 1.0 / sec;
  };

  PrecisionRow r;
  r.model = model;
  r.dataset = ds.name;
  r.requests = requests;
  r.qps_fp32 = single_row_qps(fp32);
  r.qps_bf16 = single_row_qps(bf16);
  r.speedup_bf16 = r.qps_fp32 > 0.0 ? r.qps_bf16 / r.qps_fp32 : 0.0;

  constexpr int64_t kProbe = 64;
  std::vector<std::vector<float>> a, b;
  RunForwardBatch(fp32, rows, kProbe, &a);
  RunForwardBatch(bf16, rows, kProbe, &b);
  for (int k = 0; k < fp32.num_tasks(); ++k) {
    for (size_t i = 0; i < a[k].size(); ++i) {
      r.max_abs_error =
          std::max(r.max_abs_error,
                   std::fabs(static_cast<double>(a[k][i]) - b[k][i]));
    }
  }
  return r;
}

std::string PrecisionJson(const PrecisionRow& r) {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "{\"model\": \"%s\", \"dataset\": \"%s\", \"requests\": %d, "
      "\"qps_fp32\": %.1f, \"qps_bf16\": %.1f, \"speedup_bf16\": %.3f, "
      "\"max_abs_error\": %.3e}",
      r.model.c_str(), r.dataset.c_str(), r.requests, r.qps_fp32, r.qps_bf16,
      r.speedup_bf16, r.max_abs_error);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const std::vector<DatasetSpec> datasets = {
      {"aliexpress", 10, 2},
      {"movielens", 16, 9},
  };
  const std::vector<std::string> models = {"hps", "mmoe", "cgc"};
  const std::vector<int> batches = smoke ? std::vector<int>{16}
                                         : std::vector<int>{8, 16, 32};
  const int single_requests = smoke ? 500 : 4000;

  std::string json = "{\n  \"bench\": \"serve\",\n  \"smoke\": ";
  json += smoke ? "true" : "false";
  json += ",\n  \"nproc\": ";
  json += std::to_string(std::thread::hardware_concurrency());
  json += ",\n  \"isa_tier\": \"";
  json += simd::ActiveBackendName();
  json += "\",\n  \"trials\": ";
  json += std::to_string(kTrials);
  json += ",\n  \"results\": [\n";

  std::printf("%-6s %-10s %-20s %6s %12s %10s %10s %10s\n", "model",
              "dataset", "mode", "batch", "qps", "p50_us", "p95_us",
              "p99_us");
  bool first = true;
  const auto emit = [&](const std::string& model, const DatasetSpec& ds,
                        bool invariant, const RunStats& s) {
    std::printf("%-6s %-10s %-20s %6d %12.1f %10.2f %10.2f %10.2f\n",
                model.c_str(), ds.name, s.mode.c_str(), s.batch, s.qps,
                s.p50_us, s.p95_us, s.p99_us);
    if (!first) json += ",\n";
    json += "    " + StatsJson(model, ds, invariant, s);
    first = false;
  };

  for (const DatasetSpec& ds : datasets) {
    if (smoke && std::string(ds.name) == "movielens") continue;
    for (const std::string& model : models) {
      const serve::ServeModel sm = BuildServeModel(model, ds, TowerSpec{});
      const bool invariant = serve::PlanIsBatchInvariant(sm.plan());

      // A shared pool of input rows, reused round-robin.
      const int64_t kNumRows = 512;
      Rng xrng(0xfeed);
      std::vector<float> rows(kNumRows * sm.input_dim());
      for (float& v : rows) v = xrng.Uniform(-1.0f, 1.0f);

      const RunStats single =
          RunClosedSingle(sm, rows, kNumRows, single_requests);
      emit(model, ds, invariant, single);

      for (int b : batches) {
        const RunStats bf =
            RunBatchForward(sm, rows, kNumRows, b, single_requests / b);
        emit(model, ds, invariant, bf);
      }
    }
  }

  // fp32-vs-bf16 serving comparison, every harness shape plus a wide
  // embedding-style MMoE whose ~3 MB fp32 weight arena makes the
  // halved bf16 footprint a bandwidth win, not just a cache curiosity.
  json += "\n  ],\n  \"precision_compare\": [\n";
  std::printf("\n%-6s %-10s %12s %12s %8s %14s\n", "model", "dataset",
              "qps_fp32", "qps_bf16", "x_bf16", "max_abs_err");
  const int cmp_requests = smoke ? 200 : 1500;
  const int wide_requests = smoke ? 60 : 400;
  first = true;
  const auto emit_cmp = [&](const PrecisionRow& r) {
    std::printf("%-6s %-10s %12.1f %12.1f %7.2fx %14.3e\n", r.model.c_str(),
                r.dataset.c_str(), r.qps_fp32, r.qps_bf16, r.speedup_bf16,
                r.max_abs_error);
    if (!first) json += ",\n";
    json += "    " + PrecisionJson(r);
    first = false;
  };
  for (const DatasetSpec& ds : datasets) {
    if (smoke && std::string(ds.name) == "movielens") continue;
    for (const std::string& model : models) {
      emit_cmp(RunPrecisionCompare(model, ds, TowerSpec{}, cmp_requests));
    }
  }
  TowerSpec wide;
  wide.dims = {256, 128};
  wide.num_experts = 8;
  const DatasetSpec wide_ds{"wide_emb", 256, 16};
  emit_cmp(RunPrecisionCompare("mmoe", wide_ds, wide, wide_requests));

  json += "\n  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace mocograd

int main(int argc, char** argv) { return mocograd::Main(argc, argv); }
