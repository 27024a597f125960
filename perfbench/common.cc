#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdarg>
#include <fstream>
#include <thread>

#include "base/simd.h"
#include "base/thread_pool.h"

#ifndef MG_PERFBENCH_BUILD_TYPE
#define MG_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mocograd {
namespace perfbench {

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                  covered) * 1e-9;
  }
  return self;
}

std::map<std::string, std::pair<double, int64_t>> Tracer::SelfByName() const {
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, std::pair<double, int64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& e = out[spans_[i].name];
    e.first += self[i];
    e.second += 1;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              int64_t max_step) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.step >= max_step) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %lld, \"step\": %lld}}",
                  first ? "" : ",\n", s.name, s.start_ns * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.step));
    f << buf;
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Result::HasMetric(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return true;
  }
  return false;
}

void Result::Line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

void Result::Detail(const std::string& key, const std::string& raw_json) {
  details_.emplace_back(key, raw_json);
}

void Result::Fail(int64_t n, const std::string& why) {
  if (n <= 0) return;
  failed_ += n;
  check_errors_.push_back(why);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void Result::Finish(const Args& args, const std::string& host_json) {
  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) metrics += ", ";
    metrics += JsonString(metrics_[i].name) + ": {\"value\": " +
               JsonNumber(metrics_[i].value) +
               ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  metrics += "}";

  std::string errors = "[";
  for (size_t i = 0; i < check_errors_.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(check_errors_[i]);
  }
  errors += "]";

  const std::string tag = args.workload + "_seed" +
                          std::to_string(args.seed) + "_trace" +
                          (args.trace ? "1" : "0");
  std::string detail = "{\n  \"workload\": " + JsonString(args.workload) +
                       ",\n  \"seed\": " + std::to_string(args.seed) +
                       ",\n  \"seconds\": " + std::to_string(args.seconds) +
                       ",\n  \"trace\": " + (args.trace ? "true" : "false") +
                       ",\n  \"host\": " + host_json +
                       ",\n  \"check_errors\": " + errors +
                       ",\n  \"metrics\": " + metrics;
  for (const auto& [key, raw] : details_) {
    detail += ",\n  " + JsonString(key) + ": " + raw;
  }
  detail += "\n}\n";
  const std::string path = std::string(kOutDir) + "/" + tag + ".json";
  std::ofstream f(path);
  f << detail;
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());

  for (const std::string& e : check_errors_) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("host: %s\n", host_json.c_str());
  std::printf("result file: %s\n", path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string HostJson() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc " __VERSION__;
#else
  compiler = "unknown";
#endif
  return "{\"cpu_model\": " + JsonString(CpuModel()) +
         ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa_tier\": " + JsonString(simd::ActiveBackendName()) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(MG_PERFBENCH_BUILD_TYPE) +
         ", \"default_pool_threads\": " +
         std::to_string(ThreadPool::GlobalNumThreads()) + "}";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HostStealSeconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& v : field) {
    if (!(f >> v)) return 0.0;
  }
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
}  // namespace mocograd
