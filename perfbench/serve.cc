// Serving workload: serve_open_mmoe (README.md).
//
// An MMoE with the MovieLens serving shape is frozen into a ServeModel and
// served through MicroBatcher::Infer with default BatcherOptions. Load is an
// open loop: a precomputed Poisson arrival schedule per rung (seeded by the
// workload seed), drained by nproc caller threads, each request timed from
// its due time. Rungs climb a fixed geometric ladder until two rungs in a
// row miss the latency limit. Every response is compared
// bitwise with a precomputed single-row InferenceSession::Forward.

#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "common.h"
#include "mtl/mmoe.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/plan.h"

namespace mocograd {
namespace perfbench {
namespace {

constexpr double kSloUs = 1000.0;          // p99 latency limit
constexpr double kLadderBase = 1000.0;     // first rung, requests/s
constexpr double kLadderRatio = 1.4142135623730951;  // sqrt(2)
constexpr int kLadderRungs = 21;           // 1k .. ~1M requests/s
constexpr int kReferenceRung = 6;          // 8k requests/s
constexpr double kGeneratorLagUs = 100.0;  // calibration: median start lag
constexpr int64_t kPoolRows = 4096;
constexpr double kWindowSeconds = 0.25;    // latency quantile windows
// Shares of --seconds each rung's arrivals span (minimum request counts
// apply on top): rungs above the reference decide the max rate and run
// longer, so one host stall weighs less in their p99.
constexpr double kCalibrationShare = 0.0025;
constexpr double kBelowReferenceShare = 0.04;
constexpr double kReferenceShare = 0.25;
constexpr double kAboveReferenceShare = 0.1;

double RungRate(int rung) { return kLadderBase * std::pow(kLadderRatio, rung); }

mtl::MmoeConfig ServeShape() {
  mtl::MmoeConfig cfg;
  cfg.input_dim = 16;
  cfg.num_experts = 6;
  cfg.expert_dims = {64, 32};
  cfg.task_output_dims = std::vector<int64_t>(9, 1);
  return cfg;
}

/// The served model and the batcher in front of it.
struct Server {
  std::unique_ptr<serve::ServeModel> model;
  std::unique_ptr<serve::MicroBatcher> batcher;
};

Server BuildServer(uint64_t seed) {
  const mtl::MmoeConfig cfg = ServeShape();
  Rng rng(DeriveSeed(seed, 11));
  mtl::MmoeModel module(cfg, rng);
  auto sm = serve::ServeModel::FromModule(serve::BuildMmoePlan(cfg), module);
  MG_CHECK(sm.ok(), sm.status().ToString());
  Server s;
  s.model = std::make_unique<serve::ServeModel>(std::move(sm).value());
  s.batcher = std::make_unique<serve::MicroBatcher>(*s.model);
  return s;
}

/// Request inputs and their single-row reference outputs.
struct RequestPool {
  int64_t in = 0, out = 0;          // floats per input / output row
  std::vector<int64_t> out_offset;  // per task, into an output row
  std::vector<float> x, ref;

  const float* Row(int64_t r) const { return x.data() + r * in; }
  const float* Ref(int64_t r) const { return ref.data() + r * out; }
};

RequestPool BuildPool(const serve::ServeModel& sm, uint64_t seed) {
  RequestPool p;
  p.in = sm.input_dim();
  for (int k = 0; k < sm.num_tasks(); ++k) {
    p.out_offset.push_back(p.out);
    p.out += sm.task_output_dim(k);
  }
  Rng rng(DeriveSeed(seed, 12));
  p.x.resize(kPoolRows * p.in);
  for (float& v : p.x) v = rng.Uniform(-1.0f, 1.0f);
  p.ref.resize(kPoolRows * p.out);
  serve::InferenceSession session(sm);
  std::vector<float*> ptrs(sm.num_tasks());
  for (int64_t r = 0; r < kPoolRows; ++r) {
    for (int k = 0; k < sm.num_tasks(); ++k) {
      ptrs[k] = p.ref.data() + r * p.out + p.out_offset[k];
    }
    session.Forward(p.Row(r), 1, ptrs.data());
  }
  return p;
}

/// One rung's per-request timestamps (seconds after the rung's start t0).
struct RungTrace {
  Clock::time_point t0;
  std::vector<double> due, start, end;
  std::vector<uint8_t> mismatch;
};

/// Outcome of one rung.
struct RungStats {
  double rate = 0.0;
  int64_t sent = 0, failed = 0;
  // Median over the rung's windows of each window's quantile.
  double p50_us = 0.0, p99_us = 0.0, lag_p50_us = 0.0, lag_p99_us = 0.0;
  int windows = 0;
  double full_p99_us = 0.0;  // p99 over the whole rung, for the record
  double achieved_qps = 0.0;
  bool backlog = false;
  bool measurable = true;
  bool Pass() const {
    return measurable && failed == 0 && p99_us <= kSloUs && !backlog;
  }
};

/// Single-row callee: writes the outputs of pool row `row` into `outputs`.
using Callee = std::function<void(int64_t row, float* const* outputs)>;

/// Drives `n` Poisson arrivals at `rate` through `callee` from `callers`
/// threads and records every request's due, start and end time.
RungTrace DriveRung(const RequestPool& pool, const Callee& callee,
                    double rate, int64_t n, int callers, uint64_t seed) {
  RungTrace tr;
  tr.due.resize(n);
  tr.start.resize(n);
  tr.end.resize(n);
  tr.mismatch.assign(n, 0);
  Rng rng(seed);
  double t = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - static_cast<double>(rng.Uniform())) / rate;
    tr.due[i] = t;
  }
  const int64_t row0 = static_cast<int64_t>(seed % kPoolRows);

  std::atomic<int64_t> next{0};
  // Threads start a little before the first arrival is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  tr.t0 = t0;
  const auto body = [&] {
#ifdef PR_SET_TIMERSLACK
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // precise wake-ups
#endif
    std::vector<float> out(pool.out);
    std::vector<float*> ptrs;
    for (int64_t off : pool.out_offset) ptrs.push_back(out.data() + off);
    for (int64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(tr.due[i]));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const int64_t row = (row0 + i) % kPoolRows;
      const Clock::time_point s = Clock::now();
      callee(row, ptrs.data());
      const Clock::time_point e = Clock::now();
      tr.start[i] = SecondsBetween(t0, s);
      tr.end[i] = SecondsBetween(t0, e);
      if (std::memcmp(out.data(), pool.Ref(row), pool.out * sizeof(float)) !=
          0) {
        tr.mismatch[i] = 1;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) threads.emplace_back(body);
  for (std::thread& th : threads) th.join();
  return tr;
}

RungStats Summarize(const RungTrace& tr, double rate) {
  const size_t n = tr.due.size();
  RungStats s;
  s.rate = rate;
  s.sent = static_cast<int64_t>(n);
  std::vector<double> lat(n), lag(n);
  double last_end = 0.0;
  for (size_t i = 0; i < n; ++i) {
    lat[i] = (tr.end[i] - tr.due[i]) * 1e6;
    lag[i] = (tr.start[i] - tr.due[i]) * 1e6;
    s.failed += tr.mismatch[i];
    last_end = std::max(last_end, tr.end[i]);
  }
  // Latency quantiles per 0.25 s window of arrivals, then the median over
  // the windows: a host stall (a virtual machine can pause all its vCPUs
  // for tens of milliseconds) lifts the p99 of the window it hits, not the
  // rung's figure, while a tail the server causes shows in every window.
  const size_t per_window =
      std::max<size_t>(1, static_cast<size_t>(rate * kWindowSeconds));
  s.windows = static_cast<int>(std::max<size_t>(1, n / per_window));
  s.p50_us = WindowedQuantile(lat, 0.5, per_window, n);
  s.p99_us = WindowedQuantile(lat, 0.99, per_window, n);
  s.lag_p50_us = WindowedQuantile(lag, 0.5, per_window, n);
  s.lag_p99_us = WindowedQuantile(lag, 0.99, per_window, n);
  s.full_p99_us = Quantile(lat, 0.99);
  s.achieved_qps = static_cast<double>(n) / last_end;
  // Growing backlog: requests at the end of the rung still wait, at the
  // median, more than half the latency limit for a free caller.
  const size_t tail = std::max<size_t>(n / 10, 1);
  s.backlog = Quantile(std::vector<double>(lag.end() - tail, lag.end()),
                       0.5) > 0.5 * kSloUs;
  return s;
}

std::string RungJson(const RungStats& s) {
  return "{\"rate\": " + JsonNumber(s.rate) +
         ", \"sent\": " + std::to_string(s.sent) +
         ", \"succeeded\": " + std::to_string(s.sent - s.failed) +
         ", \"failed\": " + std::to_string(s.failed) +
         ", \"measurable\": " + (s.measurable ? "true" : "false") +
         ", \"p50_us\": " + JsonNumber(s.p50_us) +
         ", \"p99_us\": " + JsonNumber(s.p99_us) +
         ", \"windows\": " + std::to_string(s.windows) +
         ", \"whole_rung_p99_us\": " + JsonNumber(s.full_p99_us) +
         ", \"start_lag_p50_us\": " + JsonNumber(s.lag_p50_us) +
         ", \"start_lag_p99_us\": " + JsonNumber(s.lag_p99_us) +
         ", \"achieved_qps\": " + JsonNumber(s.achieved_qps) +
         ", \"backlog\": " + (s.backlog ? "true" : "false") +
         ", \"pass\": " + (s.Pass() ? "true" : "false") + "}";
}

int64_t RungRequests(int rung, double seconds, int64_t min_requests) {
  return std::max<int64_t>(min_requests,
                           static_cast<int64_t>(RungRate(rung) * seconds));
}

/// The highest rate meeting the limit: the p99 crossing of the limit,
/// interpolated log-log between the highest passing rung and the rung
/// above it. A rung's pass/fail flips on a few slow requests near the
/// knee; the crossing moves smoothly with the measured p99s instead.
struct MaxRate {
  int rung = -1;  // highest passing rung
  double rate = 0.0;
  bool generator_limited = false;  // the rung above was not measurable
};

MaxRate MaxRateAtSlo(const std::vector<RungStats>& rungs) {
  MaxRate m;
  for (size_t r = 0; r < rungs.size(); ++r) {
    if (rungs[r].Pass()) m.rung = static_cast<int>(r);
  }
  if (m.rung < 0) return m;
  const RungStats& pass = rungs[m.rung];
  m.rate = pass.rate;
  if (m.rung + 1 >= static_cast<int>(rungs.size()) ||
      !rungs[m.rung + 1].measurable) {
    m.generator_limited = true;
    return m;
  }
  const RungStats& miss = rungs[m.rung + 1];
  if (miss.p99_us > kSloUs && pass.p99_us > 0.0) {
    const double f = std::log(kSloUs / pass.p99_us) /
                     std::log(miss.p99_us / pass.p99_us);
    m.rate = pass.rate * std::pow(miss.rate / pass.rate,
                                  std::clamp(f, 0.0, 1.0));
  }
  return m;
}

uint64_t RungSeed(uint64_t seed, int rung, uint64_t salt) {
  return DeriveSeed(seed, 100 + salt * 64 + static_cast<uint64_t>(rung));
}

/// Median microseconds of InferenceSession::Forward on `rows` pool rows.
double ProbeForwardUs(const serve::ServeModel& sm, const RequestPool& pool,
                      int64_t rows, double seconds) {
  serve::InferenceSession session(sm);
  std::vector<float> out(rows * pool.out);
  std::vector<float*> ptrs;
  for (int k = 0; k < sm.num_tasks(); ++k) {
    ptrs.push_back(out.data() + rows * pool.out_offset[k]);
  }
  int64_t next = 0;
  return MedianSecondsPerCall(
             [&] {
               session.Forward(pool.Row(next), rows, ptrs.data());
               next = (next + rows) % (kPoolRows - rows);
             },
             seconds) *
         1e6;
}

}  // namespace

void RunServeWorkload(const Args& args, Result& result) {
  const int callers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Set-up: module, frozen ServeModel and batcher. A build takes only
  // 0.1-0.25 ms, so one slow moment of the host moves a few builds by half:
  // it is built kSetupReps times up front (the last build is kept) and once
  // more after every rung, and the median over all builds is reported.
  constexpr int kSetupReps = 21;
  std::vector<double> setup_s;
  const auto build_server = [&] {
    const Clock::time_point t0 = Clock::now();
    Server s = BuildServer(args.seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    return s;
  };
  Server server;
  for (int r = 0; r < kSetupReps; ++r) {
    server.batcher.reset();  // before the model it borrows
    server.model.reset();
    server = build_server();
  }
  const serve::ServeModel& sm = *server.model;
  serve::MicroBatcher& batcher = *server.batcher;
  if (!serve::PlanIsBatchInvariant(sm.plan())) {
    result.CheckError("PlanIsBatchInvariant is false for the MMoE plan");
  }
  const RequestPool pool = BuildPool(sm, args.seed);
  const Callee infer = [&](int64_t row, float* const* outputs) {
    batcher.Infer(pool.Row(row), outputs);
  };

  const std::string config =
      "{\"model\": \"mmoe\", \"input_dim\": 16, \"num_tasks\": 9, "
      "\"num_experts\": 6, \"expert_dims\": [64, 32], \"precision\": " +
      JsonString(serve::ServePrecisionName(sm.precision())) +
      ", \"max_batch\": " + std::to_string(batcher.max_batch()) +
      ", \"deadline_us\": " + std::to_string(batcher.deadline_us()) +
      ", \"callers\": " + std::to_string(callers) +
      ", \"slo_p99_us\": " + JsonNumber(kSloUs) +
      ", \"ladder\": {\"base\": " + JsonNumber(kLadderBase) +
      ", \"ratio\": " + JsonNumber(kLadderRatio) +
      ", \"rungs\": " + std::to_string(kLadderRungs) +
      ", \"reference_rate\": " + JsonNumber(RungRate(kReferenceRung)) + "}}";
  result.Detail("config", config);
  result.Line("workload %s  seed %llu  callers %d  batcher max_batch %d "
              "deadline %lld us  precision %s",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), callers,
              batcher.max_batch(),
              static_cast<long long>(batcher.deadline_us()),
              serve::ServePrecisionName(sm.precision()));

  if (args.trace) {
    // Per-layer run: forward probes and the reference rung with spans
    // assembled from the timestamps every request already carries, so
    // tracing adds no work to the request path.
    Tracer tracer(true);
    const double b1_us = ProbeForwardUs(sm, pool, 1, 0.1 * args.seconds);
    const int64_t batches0 = batcher.batches_executed();
    const int64_t rows0 = batcher.rows_executed();
    const RungTrace tr = DriveRung(
        pool, infer, RungRate(kReferenceRung),
        RungRequests(kReferenceRung, 0.6 * args.seconds, 1000), callers,
        RungSeed(args.seed, kReferenceRung, 0));
    const double rows_per_batch =
        static_cast<double>(batcher.rows_executed() - rows0) /
        static_cast<double>(batcher.batches_executed() - batches0);
    const int64_t batch_rows =
        std::max<int64_t>(1, std::llround(rows_per_batch));
    const double batch_us =
        ProbeForwardUs(sm, pool, batch_rows, 0.1 * args.seconds);
    const auto at = [&](double s) {
      return tr.t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
    };
    for (size_t i = 0; i < tr.due.size(); ++i) {
      const int64_t id = static_cast<int64_t>(i);
      const int64_t root =
          tracer.Add("serve.request", id, -1, at(tr.due[i]), at(tr.end[i]));
      tracer.Add("serve.start_lag", id, root, at(tr.due[i]),
                 at(tr.start[i]));
      tracer.Add("serve.infer", id, root, at(tr.start[i]), at(tr.end[i]));
    }
    std::vector<double> infer_us, lag_us;
    for (const Span& s : tracer.spans()) {
      const double us = (s.end_ns - s.start_ns) * 1e-3;
      if (std::strcmp(s.name, "serve.infer") == 0) infer_us.push_back(us);
      if (std::strcmp(s.name, "serve.start_lag") == 0) lag_us.push_back(us);
    }
    const RungStats st = Summarize(tr, RungRate(kReferenceRung));
    result.Attempt(st.sent);
    result.Fail(st.failed, std::to_string(st.failed) +
                               " responses differ bitwise from single-row "
                               "Forward");
    const double infer_med = Quantile(infer_us, 0.5);
    const double lag_p99 = Quantile(lag_us, 0.99);
    result.Line("reference rung %.0f/s: %lld requests, %lld failed",
                st.rate, static_cast<long long>(st.sent),
                static_cast<long long>(st.failed));
    result.Line("serve.forward_us.b1     %10.3f us", b1_us);
    result.Line("serve.forward_us.batch  %10.3f us  (%lld rows)", batch_us,
                static_cast<long long>(batch_rows));
    result.Line("serve.infer_us (median) %10.3f us", infer_med);
    result.Line("serve.handoff_us        %10.3f us", infer_med - batch_us);
    result.Line("serve.start_lag_us (p99)%10.3f us", lag_p99);
    result.Line("serve.rows_per_batch    %10.3f", rows_per_batch);

    result.Metric("serve.forward_us.b1", b1_us, "us");
    result.Metric("serve.forward_us.batch", batch_us, "us");
    result.Metric("serve.infer_us", infer_med, "us");
    result.Metric("serve.handoff_us", infer_med - batch_us, "us");
    result.Metric("serve.start_lag_us", lag_p99, "us");
    result.Metric("serve.rows_per_batch", rows_per_batch, "rows");

    const std::string span_path = std::string(kOutDir) + "/" +
                                  args.workload + "_seed" +
                                  std::to_string(args.seed) + "_spans.json";
    constexpr int64_t kSpanFileRequests = 2000;
    if (!tracer.WriteChromeTrace(span_path, kSpanFileRequests)) {
      result.CheckError("cannot write span file " + span_path);
    }
    result.Line("span file: %s (requests < %lld)", span_path.c_str(),
                static_cast<long long>(kSpanFileRequests));
    result.Detail("reference_rung", RungJson(st));
    return;
  }

  // Generator calibration: the same ladder against a no-op callee (it
  // copies the reference outputs). Rungs above the highest one the
  // generator sustains are unmeasurable, not server failures. Sustaining a
  // rate means issuing the typical request on time with no backlog: the
  // median start lag is the test, because a host stall lifts the tail of
  // any rung, generator-bound or not.
  const Callee noop = [&](int64_t row, float* const* outputs) {
    const float* ref = pool.Ref(row);
    for (size_t k = 0; k < pool.out_offset.size(); ++k) {
      outputs[k][0] = ref[pool.out_offset[k]];
    }
  };
  // A calibration rung records no more requests than the reference rung, so
  // that the reference rung sets the harness's share of peak RSS (below).
  const int64_t reference_requests = RungRequests(
      kReferenceRung, kReferenceShare * args.seconds, 1000);
  int generator_limit = -1;
  std::string calib_json = "[";
  for (int rung = 0, misses = 0; rung < kLadderRungs && misses < 2; ++rung) {
    const RungTrace tr = DriveRung(
        pool, noop, RungRate(rung),
        std::min(reference_requests,
                 RungRequests(rung, kCalibrationShare * args.seconds, 500)),
        callers, RungSeed(args.seed, rung, 1));
    const RungStats st = Summarize(tr, RungRate(rung));
    build_server();
    calib_json += (rung > 0 ? ", " : "") + RungJson(st);
    const bool sustained = st.failed == 0 && !st.backlog &&
                           st.lag_p50_us <= kGeneratorLagUs;
    misses = sustained ? 0 : misses + 1;
    if (sustained) generator_limit = rung;
  }
  calib_json += "]";
  result.Detail("generator_calibration", calib_json);
  result.Line("generator sustains up to %.0f requests/s (median start lag "
              "<= %.0f us against a no-op callee)",
              generator_limit >= 0 ? RungRate(generator_limit) : 0.0,
              kGeneratorLagUs);

  // The ladder, climbed until two rungs in a row miss the limit (one rung
  // past the first miss, with a lone miss from a host stall tolerated),
  // and always up to the reference rung: it runs longest, and its
  // latencies are the reported p50/p99. Peak RSS is read right after it:
  // up to there every rung has a fixed size, while the rungs above it
  // record more requests the faster the server is.
  std::vector<RungStats> rungs;
  double peak_rss = 0.0;
  const double steal0 = HostStealSeconds();
  const Clock::time_point ladder_start = Clock::now();
  std::string ladder_json = "[";
  int64_t sent = 0, failed = 0;
  result.Line("%10s %8s %9s %7s %10s %10s %10s %6s", "rate", "sent",
              "succeeded", "failed", "p50_us", "p99_us", "qps", "pass");
  for (int rung = 0, misses = 0;
       rung < kLadderRungs && (misses < 2 || rung <= kReferenceRung);
       ++rung) {
    RungStats st;
    st.rate = RungRate(rung);
    if (rung > generator_limit) {
      st.measurable = false;
    } else {
      const double share = rung < kReferenceRung    ? kBelowReferenceShare
                           : rung == kReferenceRung ? kReferenceShare
                                                    : kAboveReferenceShare;
      {
        const RungTrace tr = DriveRung(
            pool, infer, st.rate,
            RungRequests(rung, share * args.seconds, 1000), callers,
            RungSeed(args.seed, rung, 0));
        st = Summarize(tr, st.rate);
      }
      if (rung == kReferenceRung) peak_rss = PeakRssMb();
      build_server();
      sent += st.sent;
      failed += st.failed;
    }
    rungs.push_back(st);
    ladder_json += (rung > 0 ? ", " : "") + RungJson(st);
    result.Line("%10.0f %8lld %9lld %7lld %10.2f %10.2f %10.1f %6s", st.rate,
                static_cast<long long>(st.sent),
                static_cast<long long>(st.sent - st.failed),
                static_cast<long long>(st.failed), st.p50_us, st.p99_us,
                st.achieved_qps,
                !st.measurable ? "n/m" : (st.Pass() ? "yes" : "no"));
    if (!st.measurable) break;
    misses = st.Pass() ? 0 : misses + 1;
  }
  ladder_json += "]";
  result.Detail("ladder", ladder_json);
  const double steal_s = HostStealSeconds() - steal0;
  const double ladder_s = SecondsBetween(ladder_start, Clock::now());
  result.Detail("host_steal_s", JsonNumber(steal_s));
  result.Line("host steal during the ladder: %.2f s (%.1f%% of %.1f s x %d "
              "vCPUs)",
              steal_s, 100.0 * steal_s / (ladder_s * callers), ladder_s,
              callers);

  result.Attempt(sent);
  result.Fail(failed, std::to_string(failed) +
                          " responses differ bitwise from single-row Forward");
  RungStats reference;
  if (static_cast<int>(rungs.size()) > kReferenceRung &&
      rungs[kReferenceRung].measurable) {
    reference = rungs[kReferenceRung];
  } else {
    result.CheckError("reference rung not measured (generator limit)");
  }
  const MaxRate max_rate = MaxRateAtSlo(rungs);
  if (max_rate.rung < 0) result.CheckError("no rung met the latency limit");
  const double setup_med = Quantile(setup_s, 0.5);
  result.Line("serve_p50_us          %10.2f us  (n=%lld at %.0f/s)",
              reference.p50_us, static_cast<long long>(reference.sent),
              reference.rate);
  result.Line("serve_p99_us          %10.2f us  (n=%lld at %.0f/s)",
              reference.p99_us, static_cast<long long>(reference.sent),
              reference.rate);
  result.Line("serve_max_qps_at_slo  %10.1f 1/s (highest passing rung "
              "%.0f/s%s)",
              max_rate.rate, max_rate.rung >= 0 ? RungRate(max_rate.rung) : 0.0,
              max_rate.generator_limited ? ", capped by the generator" : "");
  result.Line("setup_s               %10.6f s   (median of %zu set-ups)",
              setup_med, setup_s.size());
  result.Line("peak_rss_mb           %10.2f MB", peak_rss);
  result.Line("output check: %lld requests, %lld failed (bitwise vs "
              "single-row Forward); plan batch-invariant: %s",
              static_cast<long long>(sent), static_cast<long long>(failed),
              serve::PlanIsBatchInvariant(sm.plan()) ? "yes" : "no");

  result.Metric("latency_p50_ms", reference.p50_us * 1e-3, "ms");
  result.Metric("latency_p99_ms", reference.p99_us * 1e-3, "ms");
  result.Metric("throughput_per_s", max_rate.rate, "1/s");
  result.Metric("setup_s", setup_med, "s");
  result.Metric("peak_rss_mb", peak_rss, "MB");
}

}  // namespace perfbench
}  // namespace mocograd
