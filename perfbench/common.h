#ifndef MOCOGRAD_PERFBENCH_COMMON_H_
#define MOCOGRAD_PERFBENCH_COMMON_H_

// Shared plumbing of the perfbench harness: run arguments, the in-memory
// span recorder, quantiles, and the result record. Everything here lives in
// the benchmark; the library is only ever called through its public API.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mocograd {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Directory (relative to the working directory) that receives the run's
/// files: the result record and the span file.
inline constexpr char kOutDir[] = ".bench_out";

/// Deterministic sub-seed for one consumer of the workload seed
/// (splitmix64 of seed ^ salt), so dataset, init, sampling and trainer
/// streams are independent yet all fixed by --seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1].
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline Clock::time_point Deadline(double seconds_from_now) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds_from_now));
}

/// Median seconds per call of `call`, sampled for `seconds` (at least five
/// samples) after one warm-up call. Calls are batched so that one sample
/// lasts about 200 µs, well above the clock's resolution.
template <typename Fn>
double MedianSecondsPerCall(Fn&& call, double seconds) {
  call();
  Clock::time_point t0 = Clock::now();
  int reps = 0;
  do {
    call();
    ++reps;
  } while (SecondsBetween(t0, Clock::now()) < 2e-4);
  std::vector<double> samples;
  const Clock::time_point end = Deadline(seconds);
  while (Clock::now() < end || samples.size() < 5) {
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) call();
    samples.push_back(SecondsBetween(t0, Clock::now()) / reps);
  }
  return Quantile(samples, 0.5);
}

/// Median over consecutive windows of `v` (in recorded order) of
/// `stat(window)`. Windows hold at least `min_per_window` samples (one
/// window when there are fewer), at most `max_windows`. A burst of slow
/// samples from the host then moves one window's statistic, not the result.
template <typename Stat>
double WindowedMedian(const std::vector<double>& v, size_t min_per_window,
                      size_t max_windows, Stat&& stat) {
  const size_t windows =
      std::max<size_t>(1, std::min(max_windows, v.size() / min_per_window));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = v.size() * w / windows, hi = v.size() * (w + 1) / windows;
    per_window.push_back(
        stat(std::vector<double>(v.begin() + lo, v.begin() + hi)));
  }
  return Quantile(per_window, 0.5);
}

/// WindowedMedian of each window's q-quantile.
inline double WindowedQuantile(const std::vector<double>& v, double q,
                               size_t min_per_window, size_t max_windows) {
  return WindowedMedian(v, min_per_window, max_windows,
                        [q](std::vector<double> w) {
                          return Quantile(std::move(w), q);
                        });
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One recorded span: a named interval, the span that caused it (-1 for a
/// root) and the step or request it belongs to.
struct Span {
  const char* name = "";
  int64_t parent = -1;
  int64_t step = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Spans are appended by the thread that owns the
/// tracer (the benchmark's driving thread) and written out once, at exit.
/// A disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Opens a span now; returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t step, int64_t parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, step, NowNs(), 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  /// Records a span from timestamps taken elsewhere; returns its id.
  int64_t Add(const char* name, int64_t step, int64_t parent,
              Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, step, ToNs(start), ToNs(end)});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the union of the
  /// intervals its children cover (seconds, indexed like spans()).
  std::vector<double> SelfSeconds() const;

  /// Per-name totals of self time (seconds) and span counts.
  std::map<std::string, std::pair<double, int64_t>> SelfByName() const;

  /// Writes spans whose step is below `max_step` as a Chrome trace-event
  /// file (open in chrome://tracing or Perfetto). Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path, int64_t max_step) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t step,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, step, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Everything one run reports: the four-key result line, the named metrics
/// (in declaration order), human-readable report lines, and a free-form
/// JSON detail section written to the run's result file.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  bool HasMetric(const std::string& name) const;
  /// A report line on stdout (before the result line).
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Appends `"key": <raw JSON>` to the detail section.
  void Detail(const std::string& key, const std::string& raw_json);
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(int64_t n, const std::string& why);

  bool correct() const { return failed_ == 0 && check_errors_.empty(); }
  /// A failed output check that is not a per-operation failure.
  void CheckError(const std::string& why) { check_errors_.push_back(why); }

  /// Writes the detail file and prints the result line last on stdout.
  void Finish(const Args& args, const std::string& host_json);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::string> check_errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);
/// A number in full precision.
std::string JsonNumber(double v);

/// Host and build record (CPU model, nproc, ISA tier, compiler, build type,
/// pool size) as a JSON object.
std::string HostJson();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// CPU time the hypervisor has taken from this machine's vCPUs so far
/// (the steal column of /proc/stat, all CPUs), in seconds; 0 where the
/// kernel does not report it. A run's share of stolen time says whether a
/// slow figure came from the host rather than the program.
double HostStealSeconds();

/// Entry points of the workloads (train.cc, serve.cc).
void RunTrainWorkload(const Args& args, Result& result);
void RunServeWorkload(const Args& args, Result& result);

}  // namespace perfbench
}  // namespace mocograd

#endif  // MOCOGRAD_PERFBENCH_COMMON_H_
