// mg_perfbench: the repository benchmark (see README.md in this directory).
//
//   mg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: train_paper_k2, train_wide_k11, serve_open_mmoe. With
// --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// records spans around the public calls into each module and reports the
// per-layer metrics plus a span file. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common.h"

namespace mocograd {
namespace perfbench {
namespace {

// Every per-layer metric BENCHMARK.json declares, with its unit. A traced
// run reports 0 for the layers its workload does not run (the serve layer
// on training workloads, the training layers on the serving workload).
constexpr std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"data.sample_ms", "ms"},         {"mtl.forward_ms", "ms"},
    {"autograd.backward_ms", "ms"},   {"core.flatten_ms", "ms"},
    {"core.aggregate_ms", "ms"},      {"autograd.write_back_ms", "ms"},
    {"optim.step_ms", "ms"},          {"autograd.release_ms", "ms"},
    {"mtl.step_ms", "ms"},            {"mtl.step_ms_default_pool", "ms"},
    {"mtl.unattributed_ms", "ms"},    {"mtl.watchdog_events", "count"},
    {"core.conflicts_acted", "count"}, {"tensor.gemm_us.fwd", "us"},
    {"tensor.gemm_us.wgrad", "us"},   {"tensor.gemm_gflops", "GFLOP/s"},
    {"serve.forward_us.b1", "us"},    {"serve.forward_us.batch", "us"},
    {"serve.infer_us", "us"},         {"serve.handoff_us", "us"},
    {"serve.start_lag_us", "us"},     {"serve.rows_per_batch", "rows"},
    {"trace.overhead_ms", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "mg_perfbench: %s\nusage: mg_perfbench --workload "
               "<train_paper_k2|train_wide_k11|serve_open_mmoe> --seed <n> "
               "--seconds <1..60> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t v = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &v)) return Usage("bad --seed");
      args.seed = v;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &v) || v < 1 || v > 60) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  mkdir(kOutDir, 0755);

  Result result;
  if (args.workload == "train_paper_k2" ||
      args.workload == "train_wide_k11") {
    RunTrainWorkload(args, result);
  } else if (args.workload == "serve_open_mmoe") {
    RunServeWorkload(args, result);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayerMetrics) {
      if (!result.HasMetric(name)) result.Metric(name, 0.0, unit);
    }
  }
  result.Finish(args, HostJson());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace mocograd

int main(int argc, char** argv) {
  return mocograd::perfbench::Main(argc, argv);
}
