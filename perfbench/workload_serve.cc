// serve_rdrp: open-loop replay against a live rDRP ScoringService.
//
// 32-row requests arrive on a fixed schedule from one generator thread;
// one collector thread waits for the responses in order. Latency is timed
// from each request's due time, so a stall also charges the requests that
// queue behind it. The service runs the shadow conformal stage on every
// 7th request and the ServingMonitor's drift observer on its on_scored
// hook. A writer thread feeds labelled outcomes at the ratio the monitor's
// load replay uses, 256 rows per 8192 rows served (AddOutcomes, then
// MaybeRecalibrate, whose bound swap installs the new q_hat in the live
// service). The end-to-end run measures the service's capacity for the
// whole run: closed loop, one full micro-batch of requests in flight,
// median of one-second windows. A traced run first replays light (100/s)
// and busy (200/s) untraced, measures capacity briefly and, when the busy
// rate held it, searches above busy for the highest rate that holds
// p99 <= 20 ms (the latency_p99 target in configs/serving.slo) with no
// growing backlog; then it replays light and busy traced.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/greedy.h"
#include "monitor/load_replay.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"
#include "trace_layers.h"

namespace roicl::perfbench {
namespace {

constexpr int kRowsPerRequest = 32;
constexpr double kLightRps = 100.0;
constexpr double kBusyRps = 200.0;
constexpr double kLimitMs = 20.0;
constexpr int kShadowEvery = 7;
constexpr int kPopulationRows = 100000;
/// The closed-loop capacity is the median of windows of about this many
/// seconds, and of at least kMinCapacityWindows (so a second-long stall
/// of the host moves it little).
constexpr double kCapacityWindowS = 1.0;
constexpr int kMinCapacityWindows = 5;
/// Every Nth request's served score is re-derived in process.
constexpr int kCheckEvery = 16;
/// A rate point is invalid when the generator ran this late at p99 ...
constexpr double kMaxGeneratorLagMs = 2.0;
/// ... or when more requests than this share of the point were still
/// outstanding as the last one was sent (a growing backlog).
constexpr double kMaxBacklogShare = 0.05;
constexpr double kBudgetFraction = 0.15;

/// Labelled rows per feedback write, and served rows between writes: the
/// ratio monitor::RunLoadReplay feeds (feedback_rows after each phase of
/// requests_per_phase x rows_per_request rows).
int FeedbackRows() { return monitor::LoadReplayOptions().feedback_rows; }
int64_t FeedbackEveryRows() {
  monitor::LoadReplayOptions replay;
  return static_cast<int64_t>(replay.requests_per_phase) *
         replay.rows_per_request;
}

/// Requests the capacity probe keeps in flight: one full micro-batch of
/// the service's dispatcher.
int CapacityInFlight() {
  return pipeline::ServiceOptions().max_batch_requests;
}

struct Swap {
  double begin_us = 0.0;
  double end_us = 0.0;
  double q_hat = 0.0;
};

struct HookRecord {
  uint64_t trace_id = 0;
  double queue_us = 0.0;
  double score_us = 0.0;
  double observe_us = 0.0;
};

struct Request {
  double due_us = 0.0;
  double submit_us = 0.0;
  double done_us = 0.0;
  bool ok = false;
  int row_begin = 0;
  std::vector<double> scores;
};

struct Point {
  double rate = 0.0;
  uint64_t first_trace_id = 0;
  std::vector<Request> requests;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  double lag_max_ms = 0.0;
  int backlog = 0;  ///< outstanding when the last request was sent
  int failed = 0;
  double achieved_rps = 0.0;
  bool valid = false;
  bool holds = false;  ///< valid, no failures, p99 within the limit

  std::string Json() const {
    return "{\"rate\": " + JsonNumber(rate) +
           ", \"requests\": " + std::to_string(requests.size()) +
           ", \"p50_ms\": " + JsonNumber(p50_ms) +
           ", \"p99_ms\": " + JsonNumber(p99_ms) +
           ", \"generator_lag_p99_ms\": " + JsonNumber(lag_p99_ms) +
           ", \"generator_lag_max_ms\": " + JsonNumber(lag_max_ms) +
           ", \"backlog\": " + std::to_string(backlog) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"achieved_rps\": " + JsonNumber(achieved_rps) +
           ", \"valid\": " + (valid ? "true" : "false") +
           ", \"holds\": " + (holds ? "true" : "false") + "}";
  }
};

/// The live service, its monitor and the measurement hooks around them.
/// Threads and callbacks hold its address, so it is neither copied nor
/// moved.
class Harness {
 public:
  Harness(const Fixture& fixture, RctDataset population, RctDataset feedback)
      : population_(std::move(population)), feedback_(std::move(feedback)) {
    StatusOr<pipeline::Pipeline> loaded =
        pipeline::Pipeline::LoadFromFile(fixture.artifact_path);
    if (!loaded.ok()) Die("artifact: " + loaded.status().ToString());
    pipeline::ServiceOptions options;
    options.shadow_interval_every = kShadowEvery;
    options.on_scored = [this](const pipeline::ServeContext& ctx,
                               const Matrix& x,
                               const std::vector<double>& scores) {
      OnScored(ctx, x, scores);
    };
    service_ = std::make_unique<pipeline::ScoringService>(
        std::move(loaded).value(), options);
    StatusOr<std::unique_ptr<monitor::ServingMonitor>> monitor =
        monitor::ServingMonitor::FromCalibration(
            &service_->pipeline(), fixture.calibration,
            monitor::MonitorOptions());
    if (!monitor.ok()) Die("monitor: " + monitor.status().ToString());
    monitor_ = std::move(monitor).value();
    monitor_->BindQuantileSwap([this](double q_hat) { return SwapQ(q_hat); });
    StatusOr<double> q0 = service_->pipeline().conformal_quantile();
    if (!q0.ok()) Die("q_hat: " + q0.status().ToString());
    q0_ = q0.value();
    observer_.store(monitor_.get(), std::memory_order_release);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  ~Harness() {
    // Stop the dispatcher (and with it the hook) before the monitor goes.
    observer_.store(nullptr, std::memory_order_release);
    service_.reset();
  }

  /// Replays `rate` requests/s for `seconds` and waits for every response.
  Point RunPoint(double rate, double seconds, bool traced);

  /// Keeps `window` requests in flight for `seconds`: the service's
  /// capacity. Latency is timed from submission.
  Point RunClosedLoop(int window, double seconds);

  /// Runs `body` while the writer feeds outcomes, one write per
  /// FeedbackEveryRows() rows scored.
  template <typename Body>
  void WithFeedback(Body body, Outcome* outcome);

  std::vector<HookRecord> HookRecords(const Point& point) const;
  std::vector<Swap> swaps() const {
    std::lock_guard<std::mutex> lock(swap_mu_);
    return swaps_;
  }
  double q0() const { return q0_; }
  const RctDataset& population() const { return population_; }
  const std::vector<double>& add_outcomes_ms() const {
    return add_outcomes_ms_;
  }
  const std::vector<double>& recalibrate_ms() const { return recalibrate_ms_; }
  void ClearWriterTimes() {
    add_outcomes_ms_.clear();
    recalibrate_ms_.clear();
  }

 private:
  /// The next request's rows (cycling through the population).
  Matrix NextRequest(Request* request) {
    if (next_row_ + kRowsPerRequest > population_.n()) next_row_ = 0;
    std::vector<int> rows(kRowsPerRequest);
    for (int r = 0; r < kRowsPerRequest; ++r) {
      rows[static_cast<size_t>(r)] = next_row_ + r;
    }
    request->row_begin = next_row_;
    next_row_ += kRowsPerRequest;
    return population_.x.SelectRows(rows);
  }

  /// Fills the point's latency, lag and throughput summary; latency runs
  /// from each request's due time (its submission, closed loop).
  void Summarize(Point* point) const;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  void OnScored(const pipeline::ServeContext& ctx, const Matrix& x,
                const std::vector<double>& scores) {
    monitor::ServingMonitor* monitor =
        observer_.load(std::memory_order_acquire);
    if (monitor == nullptr) return;
    bool feedback_due = false;
    {
      std::lock_guard<std::mutex> lock(feed_mu_);
      rows_scored_ += x.rows();
      feedback_due = rows_scored_ >= feed_due_rows_;
    }
    if (feedback_due) feed_cv_.notify_one();
    bool tracing = obs::TraceCollector::Global().enabled();
    Clock::time_point start = Clock::now();
    {
      obs::ScopedSpan span("bench.monitor.observe",
                           tracing ? "trace=" + std::to_string(ctx.trace_id)
                                   : std::string());
      monitor->ObserveScored(x, scores);
    }
    HookRecord record;
    record.trace_id = ctx.trace_id;
    record.queue_us = static_cast<double>(ctx.queue_us);
    record.score_us = static_cast<double>(ctx.score_us);
    record.observe_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook_records_.push_back(record);
  }

  Status SwapQ(double q_hat) {
    Swap swap;
    swap.q_hat = q_hat;
    swap.begin_us = NowUs();
    Status status = service_->SetConformalQuantile(q_hat);
    swap.end_us = NowUs();
    std::lock_guard<std::mutex> lock(swap_mu_);
    swaps_.push_back(swap);
    return status;
  }

  const Clock::time_point epoch_ = Clock::now();
  RctDataset population_;
  RctDataset feedback_;
  int next_row_ = 0;
  uint64_t next_trace_id_ = 1;  ///< the service mints 1, 2, ... per Submit
  double q0_ = 0.0;
  std::vector<double> add_outcomes_ms_;  ///< writer thread, read after join
  std::vector<double> recalibrate_ms_;

  mutable std::mutex hook_mu_;
  std::vector<HookRecord> hook_records_;
  mutable std::mutex swap_mu_;
  std::vector<Swap> swaps_;
  /// Rows scored, and the count at which the writer's next write is due.
  std::mutex feed_mu_;
  std::condition_variable feed_cv_;
  int64_t rows_scored_ = 0;
  int64_t feed_due_rows_ = std::numeric_limits<int64_t>::max();
  bool feed_stop_ = false;

  std::atomic<monitor::ServingMonitor*> observer_{nullptr};
  std::unique_ptr<monitor::ServingMonitor> monitor_;
  std::unique_ptr<pipeline::ScoringService> service_;
};

Point Harness::RunPoint(double rate, double seconds, bool traced) {
  Point point;
  point.rate = rate;
  point.first_trace_id = next_trace_id_;
  const int n = std::max(1, static_cast<int>(std::lround(rate * seconds)));
  next_trace_id_ += static_cast<uint64_t>(n);
  point.requests.resize(static_cast<size_t>(n));

  // Request matrices are built before the clock starts, so the generator
  // only sleeps and submits.
  std::vector<Matrix> matrices;
  matrices.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    matrices.push_back(NextRequest(&point.requests[static_cast<size_t>(i)]));
  }

  using Future = std::future<StatusOr<std::vector<double>>>;
  std::mutex channel_mu;
  std::condition_variable channel_cv;
  std::deque<Future> channel;
  std::atomic<int> completed{0};
  const double period_us = 1e6 / rate;
  const double start_us = NowUs() + 2000.0;

  std::thread generator([&] {
    for (int i = 0; i < n; ++i) {
      Request& request = point.requests[static_cast<size_t>(i)];
      request.due_us = start_us + i * period_us;
      std::this_thread::sleep_until(
          epoch_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(
                           request.due_us)));
      request.submit_us = NowUs();
      Future future;
      {
        const uint64_t trace_id =
            point.first_trace_id + static_cast<uint64_t>(i);
        obs::ScopedSpan span(
            "bench.service.submit",
            traced ? "trace=" + std::to_string(trace_id) : std::string());
        future = service_->Submit(std::move(matrices[static_cast<size_t>(i)]));
      }
      if (i == n - 1) point.backlog = i + 1 - completed.load();
      std::lock_guard<std::mutex> lock(channel_mu);
      channel.push_back(std::move(future));
      channel_cv.notify_one();
    }
  });
  std::thread collector([&] {
    for (int i = 0; i < n; ++i) {
      Future future;
      {
        std::unique_lock<std::mutex> lock(channel_mu);
        channel_cv.wait(lock, [&] { return !channel.empty(); });
        future = std::move(channel.front());
        channel.pop_front();
      }
      StatusOr<std::vector<double>> result = future.get();
      Request& request = point.requests[static_cast<size_t>(i)];
      request.done_us = NowUs();
      request.ok = result.ok();
      if (result.ok()) request.scores = std::move(result).value();
      completed.fetch_add(1);
    }
  });
  generator.join();
  collector.join();
  Summarize(&point);
  point.valid = point.failed < n &&
                point.lag_p99_ms <= kMaxGeneratorLagMs &&
                point.backlog <= std::max(8.0, kMaxBacklogShare * n);
  point.holds = point.valid && point.failed == 0 && point.p99_ms <= kLimitMs;
  return point;
}

void Harness::Summarize(Point* point) const {
  std::vector<double> latency_ms;  // completed requests only
  std::vector<double> lag_ms;
  double first_due_us = std::numeric_limits<double>::infinity();
  double last_done_us = 0.0;
  int ok = 0;
  for (const Request& request : point->requests) {
    lag_ms.push_back((request.submit_us - request.due_us) * 1e-3);
    // A failed request counts in `failed` (and ok_frac); the point then
    // cannot hold the limit whatever the latencies of the rest.
    if (request.ok) {
      latency_ms.push_back((request.done_us - request.due_us) * 1e-3);
      ++ok;
    }
    first_due_us = std::min(first_due_us, request.due_us);
    last_done_us = std::max(last_done_us, request.done_us);
  }
  point->failed = static_cast<int>(point->requests.size()) - ok;
  point->p50_ms = Median(latency_ms);
  point->p99_ms = Quantile(latency_ms, 0.99);
  point->lag_p99_ms = Quantile(lag_ms, 0.99);
  point->lag_max_ms = Quantile(lag_ms, 1.0);
  point->achieved_rps =
      last_done_us > first_due_us ? ok / ((last_done_us - first_due_us) * 1e-6)
                                  : 0.0;
}

Point Harness::RunClosedLoop(int window, double seconds) {
  Point point;
  point.first_trace_id = next_trace_id_;
  std::deque<std::pair<size_t, std::future<StatusOr<std::vector<double>>>>>
      in_flight;
  const double end_us = NowUs() + seconds * 1e6;
  for (;;) {
    while (static_cast<int>(in_flight.size()) < window && NowUs() < end_us) {
      point.requests.emplace_back();
      Matrix x = NextRequest(&point.requests.back());
      point.requests.back().due_us = point.requests.back().submit_us = NowUs();
      in_flight.emplace_back(point.requests.size() - 1,
                             service_->Submit(std::move(x)));
      ++next_trace_id_;
    }
    if (in_flight.empty()) break;
    StatusOr<std::vector<double>> result = in_flight.front().second.get();
    Request& request = point.requests[in_flight.front().first];
    in_flight.pop_front();
    request.done_us = NowUs();
    request.ok = result.ok();
    if (result.ok()) request.scores = std::move(result).value();
  }
  Summarize(&point);
  point.rate = point.achieved_rps;
  point.valid = true;
  return point;
}

template <typename Body>
void Harness::WithFeedback(Body body, Outcome* outcome) {
  const int feedback_rows = FeedbackRows();
  const int64_t every_rows = FeedbackEveryRows();
  int64_t attempted = 0;
  int64_t failed = 0;
  {
    std::lock_guard<std::mutex> lock(feed_mu_);
    feed_stop_ = false;
    feed_due_rows_ = rows_scored_ + every_rows;
  }
  std::thread writer([&] {
    int next_row = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(feed_mu_);
        feed_cv_.wait(lock, [&] {
          return feed_stop_ || rows_scored_ >= feed_due_rows_;
        });
        if (feed_stop_) return;
        feed_due_rows_ += every_rows;
      }
      if (next_row + feedback_rows > feedback_.n()) next_row = 0;
      std::vector<int> rows(static_cast<size_t>(feedback_rows));
      for (int r = 0; r < feedback_rows; ++r) {
        rows[static_cast<size_t>(r)] = next_row + r;
      }
      next_row += feedback_rows;
      RctDataset batch = feedback_.Subset(rows);
      Clock::time_point start = Clock::now();
      Status added = [&] {
        obs::ScopedSpan span("bench.monitor.add_outcomes");
        return monitor_->AddOutcomes(batch);
      }();
      add_outcomes_ms_.push_back(SecondsSince(start) * 1e3);
      start = Clock::now();
      StatusOr<monitor::RecalibrationResult> recalibrated = [&] {
        obs::ScopedSpan span("bench.monitor.recalibrate");
        return monitor_->MaybeRecalibrate(/*force=*/true);
      }();
      recalibrate_ms_.push_back(SecondsSince(start) * 1e3);
      attempted += 2;
      failed += (added.ok() ? 0 : 1) + (recalibrated.ok() ? 0 : 1);
      if (!added.ok() || !recalibrated.ok()) {
        std::fprintf(stderr, "perfbench: feedback write failed: %s\n",
                     (!added.ok() ? added : recalibrated.status())
                         .ToString()
                         .c_str());
      }
    }
  });
  body();
  {
    std::lock_guard<std::mutex> lock(feed_mu_);
    feed_stop_ = true;
    feed_due_rows_ = std::numeric_limits<int64_t>::max();
  }
  feed_cv_.notify_all();
  writer.join();
  outcome->Operations(attempted, failed);
}

std::vector<HookRecord> Harness::HookRecords(const Point& point) const {
  const uint64_t end = point.first_trace_id + point.requests.size();
  std::lock_guard<std::mutex> lock(hook_mu_);
  std::vector<HookRecord> out;
  for (const HookRecord& record : hook_records_) {
    if (record.trace_id >= point.first_trace_id && record.trace_id < end) {
      out.push_back(record);
    }
  }
  return out;
}

/// Light and busy points run once, and every request counts as attempted.
/// A point whose generator lagged or whose backlog grew is invalid: the
/// record keeps its figures, flagged `"valid": false`, and its latency
/// metrics read 0 (see ReportedMs).
Point RunFixedPoint(Harness* harness, double rate, double seconds,
                    bool traced, Outcome* outcome) {
  Point point = harness->RunPoint(rate, seconds, traced);
  if (!point.valid) {
    std::fprintf(stderr, "perfbench: rate point %g/s invalid: %s\n", rate,
                 point.Json().c_str());
  }
  outcome->Operations(static_cast<int64_t>(point.requests.size()),
                      point.failed);
  return point;
}

/// A fixed point's latency as reported: 0 when the point is invalid, so
/// no latency of a lagging generator or a growing backlog is read as the
/// service's.
double ReportedMs(const Point& point, double ms) {
  return point.valid ? ms : 0.0;
}

struct Pass {
  Point light;
  Point busy;
  std::vector<Point> capacity;  ///< closed-loop windows
  double capacity_rps = 0.0;    ///< median over the windows
  std::vector<Point> probes;
  double max_rps_within_limit = 0.0;
};

/// Highest rate holding the limit: light or busy when they held, then a
/// bisection between busy and the measured capacity.
double SearchMaxRate(Harness* harness, const Pass& pass, double seconds,
                     std::vector<Point>* probes) {
  double lo = pass.light.holds ? pass.light.rate : 0.0;
  if (!pass.busy.holds) return lo;
  lo = pass.busy.rate;
  double hi = std::max(pass.capacity_rps, 1.05 * lo);
  const double probe_s = std::max(0.5, seconds / 3.0);
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) + probe_s <= seconds + 0.25 &&
         (hi - lo) / lo >= 0.05) {
    double rate = (lo + hi) / 2.0;
    Point probe = harness->RunPoint(rate, probe_s, /*traced=*/false);
    (probe.holds ? lo : hi) = rate;
    probes->push_back(std::move(probe));
  }
  return lo;
}

/// Closed-loop capacity windows for `seconds`; the median window's rate
/// is the capacity.
void MeasureCapacity(Harness* harness, double seconds, Pass* pass,
                     Outcome* outcome) {
  const int windows = std::max(
      kMinCapacityWindows, static_cast<int>(seconds / kCapacityWindowS));
  std::vector<double> window_rps;
  for (int w = 0; w < windows; ++w) {
    pass->capacity.push_back(
        harness->RunClosedLoop(CapacityInFlight(), seconds / windows));
    const Point& window = pass->capacity.back();
    outcome->Operations(static_cast<int64_t>(window.requests.size()),
                        window.failed);
    window_rps.push_back(window.achieved_rps);
  }
  pass->capacity_rps = Median(window_rps);
}

/// The end-to-end pass: the service's capacity over all of `seconds`,
/// while the writer feeds outcomes and swaps q_hat.
Pass RunCapacityPass(Harness* harness, double seconds, Outcome* outcome) {
  Pass pass;
  harness->WithFeedback(
      [&] { MeasureCapacity(harness, seconds, &pass, outcome); }, outcome);
  return pass;
}

/// A traced run's pass: light, busy, then (untraced passes only) capacity
/// and the limit search. Shares of `seconds`: 20% light, 45% busy, 25%
/// capacity, 10% search (which runs only when busy held the limit).
Pass RunPass(Harness* harness, double seconds, bool traced, Outcome* outcome) {
  Pass pass;
  harness->WithFeedback(
      [&] {
        pass.light = RunFixedPoint(harness, kLightRps, 0.2 * seconds, traced,
                                   outcome);
        pass.busy = RunFixedPoint(harness, kBusyRps, 0.45 * seconds, traced,
                                  outcome);
        if (traced) return;
        MeasureCapacity(harness, 0.25 * seconds, &pass, outcome);
        pass.max_rps_within_limit =
            SearchMaxRate(harness, pass, 0.1 * seconds, &pass.probes);
      },
      outcome);
  return pass;
}

/// Every point a pass served, in order.
std::vector<const Point*> ServedPoints(const Pass& pass) {
  std::vector<const Point*> served;
  for (const Point* point : {&pass.light, &pass.busy}) {
    if (!point->requests.empty()) served.push_back(point);
  }
  for (const Point& window : pass.capacity) served.push_back(&window);
  for (const Point& probe : pass.probes) served.push_back(&probe);
  return served;
}

/// Every kCheckEvery-th request's served scores equal an in-process
/// Pipeline::Score of the same rows under a q_hat in force while it was
/// being served: the one live at submit, or one swapped in before it
/// returned.
void CheckServedScores(const Harness& harness, const Fixture& fixture,
                       const std::vector<const Point*>& points,
                       Outcome* outcome) {
  StatusOr<pipeline::Pipeline> loaded =
      pipeline::Pipeline::LoadFromFile(fixture.artifact_path);
  if (!loaded.ok()) Die("reference: " + loaded.status().ToString());
  pipeline::Pipeline& reference = loaded.value();
  std::vector<Swap> swaps = harness.swaps();
  std::vector<double> q_after = {harness.q0()};
  for (const Swap& swap : swaps) q_after.push_back(swap.q_hat);

  int checked = 0;
  int matched = 0;
  for (const Point* point : points) {
    for (size_t i = 0; i < point->requests.size(); i += kCheckEvery) {
      const Request& request = point->requests[i];
      if (!request.ok) continue;
      size_t first = 0;  // swaps finished before submit
      size_t last = 0;   // swaps begun before the response
      for (const Swap& swap : swaps) {
        if (swap.end_us <= request.submit_us) ++first;
        if (swap.begin_us <= request.done_us) ++last;
      }
      std::vector<int> rows(kRowsPerRequest);
      for (int r = 0; r < kRowsPerRequest; ++r) {
        rows[static_cast<size_t>(r)] = request.row_begin + r;
      }
      Matrix x = harness.population().x.SelectRows(rows);
      bool match = false;
      for (size_t k = first; k <= last && !match; ++k) {
        if (!reference.SetConformalQuantile(q_after[k]).ok()) break;
        StatusOr<std::vector<double>> scores = reference.Score(x);
        match = scores.ok() && BitwiseEqual(scores.value(), request.scores);
      }
      ++checked;
      matched += match ? 1 : 0;
    }
  }
  outcome->Check(checked > 0 && matched == checked,
                 "served scores equal in-process scores (" +
                     std::to_string(matched) + "/" + std::to_string(checked) +
                     ")");
  outcome->Note("served_scores_checked", checked);
}

/// Allocates the budget over every distinct population row served, by
/// its first served score: the deployed path's last step. True
/// incremental revenue over spend. Distinct rows, so the figure does not
/// follow how many times a fast or slow run cycled through the population.
double ServedRevenuePerCost(const Harness& harness,
                            const std::vector<const Point*>& points) {
  const RctDataset& population = harness.population();
  std::vector<bool> seen(static_cast<size_t>(population.n()), false);
  std::vector<double> scores;
  std::vector<double> cost;
  std::vector<double> revenue;
  for (const Point* point : points) {
    for (const Request& request : point->requests) {
      if (!request.ok) continue;
      for (int r = 0; r < kRowsPerRequest; ++r) {
        size_t row = static_cast<size_t>(request.row_begin + r);
        if (seen[row]) continue;
        seen[row] = true;
        scores.push_back(request.scores[static_cast<size_t>(r)]);
        cost.push_back(population.true_tau_c[row]);
        revenue.push_back(population.true_tau_r[row]);
      }
    }
  }
  double total_cost = 0.0;
  for (double c : cost) total_cost += c;
  core::AllocationResult allocation = core::GreedyAllocate(
      scores, cost, kBudgetFraction * total_cost, /*skip_unaffordable=*/true);
  double gained = 0.0;
  for (int i : allocation.selected) gained += revenue[static_cast<size_t>(i)];
  return allocation.spent > 0.0 ? gained / allocation.spent : 0.0;
}

struct HistogramTotals {
  double count = 0.0;
  double sum = 0.0;
};

HistogramTotals ReadHistogram(const std::string& name) {
  HistogramTotals totals;
  obs::MetricsRegistry::Global().ForEachHistogram(
      [&](const std::string& found, const obs::Histogram& histogram) {
        if (found != name) return;
        totals.count = static_cast<double>(histogram.count());
        totals.sum = histogram.sum();
      });
  return totals;
}

}  // namespace

void RunServeWorkload(const RunArgs& args, Outcome* outcome) {
  Fixture fixture;
  std::unique_ptr<Harness> harness;
  double setup_s = TimeSetup(3, [&] {
    harness.reset();
    StatusOr<Fixture> trained = TrainFixture("rdrp", args.work_dir);
    if (!trained.ok()) Die("fixture: " + trained.status().ToString());
    fixture = std::move(trained).value();
    RctDataset population = ShiftedPopulation(kPopulationRows, args.seed);
    RctDataset feedback =
        ShiftedPopulation(4 * FeedbackRows(), args.seed + 1);
    harness = std::make_unique<Harness>(fixture, std::move(population),
                                        std::move(feedback));
  });
  outcome->Note("rdrp_calibration_form", fixture.form);

  // The end-to-end run measures capacity for the whole run; a traced
  // run's untraced pass runs the latency points and the limit search.
  Pass pass = args.trace ? RunPass(harness.get(), PassSeconds(args),
                                   /*traced=*/false, outcome)
                         : RunCapacityPass(harness.get(), PassSeconds(args),
                                           outcome);
  std::vector<const Point*> served = ServedPoints(pass);
  CheckServedScores(*harness, fixture, served, outcome);

  outcome->EndToEnd("setup_s", setup_s);
  outcome->EndToEnd("rows_per_s", pass.capacity_rps * kRowsPerRequest);
  outcome->EndToEnd("revenue_per_cost",
                    ServedRevenuePerCost(*harness, served));
  if (args.trace) {
    outcome->NoteJson("light", pass.light.Json());
    outcome->NoteJson("busy", pass.busy.Json());
  }
  std::vector<std::string> windows;
  for (const Point& window : pass.capacity) windows.push_back(window.Json());
  outcome->NoteJson("capacity_windows", JsonList(windows));
  std::vector<std::string> probes;
  for (const Point& probe : pass.probes) probes.push_back(probe.Json());
  outcome->NoteJson("search_probes", JsonList(probes));
  outcome->Note("max_rps_within_limit", pass.max_rps_within_limit);
  outcome->Note("latency_limit_ms", kLimitMs);
  outcome->Note("q_hat_swaps", static_cast<double>(harness->swaps().size()));
  outcome->Note("engine_threads_max", NumCpus());
  outcome->Note("capacity_in_flight", CapacityInFlight());
  outcome->Note("feedback_rows", FeedbackRows());
  outcome->Note("feedback_every_rows",
                static_cast<double>(FeedbackEveryRows()));

  if (!args.trace) return;

  // Traced pass: the fixed light + busy schedule only, so layer totals
  // compare across runs.
  harness->ClearWriterTimes();
  HistogramTotals occupancy_before = ReadHistogram("serve.batch_occupancy");
  PassMeter meter;
  StartTracing();
  Pass traced = RunPass(harness.get(), PassSeconds(args), /*traced=*/true,
                        outcome);
  std::vector<obs::TraceEvent> events = StopTracing(
      args.out_dir + "/trace-" + args.workload + "-seed" +
      std::to_string(args.seed) + ".json");
  HistogramTotals occupancy_after = ReadHistogram("serve.batch_occupancy");
  TraceSummary summary = SummarizeTrace(events, {"serve.process"});

  std::vector<double> queue_us, score_us, observe_us;
  for (const HookRecord& record : harness->HookRecords(traced.busy)) {
    queue_us.push_back(record.queue_us);
    score_us.push_back(record.score_us);
    observe_us.push_back(record.observe_us);
  }
  // Request latencies from due time, from the untraced pass: too
  // sensitive to the host's CPU steal to bound (see README), so they are
  // reported here rather than as end-to-end metrics.
  outcome->Layer("serve_p50_ms.light",
                 ReportedMs(pass.light, pass.light.p50_ms));
  outcome->Layer("serve_p99_ms.light",
                 ReportedMs(pass.light, pass.light.p99_ms));
  outcome->Layer("serve_p50_ms.busy", ReportedMs(pass.busy, pass.busy.p50_ms));
  outcome->Layer("serve_p99_ms.busy", ReportedMs(pass.busy, pass.busy.p99_ms));
  outcome->Layer("serve_points_invalid",
                 (pass.light.valid ? 0.0 : 1.0) +
                     (pass.busy.valid ? 0.0 : 1.0));
  outcome->Layer("serve_max_rps", pass.max_rps_within_limit);
  outcome->Layer("core.mc_dropout.s", summary.self_s("mc_dropout"));
  outcome->Layer("core.mc_dropout.calls",
                 static_cast<double>(summary.count("mc_dropout")));
  outcome->Layer("core.mc_dropout.forward_rows",
                 meter.CounterDelta("mc_dropout.samples"));
  outcome->Layer("pipeline.score_s", summary.total_s("serve.score"));
  outcome->Layer("pipeline.score_intervals_s",
                 summary.total_s("serve.conformal"));
  outcome->Layer("pipeline.service.queue_us.p50", Median(queue_us));
  outcome->Layer("pipeline.service.queue_us.p99", Quantile(queue_us, 0.99));
  outcome->Layer("pipeline.service.score_us.p50", Median(score_us));
  outcome->Layer("pipeline.service.score_us.p99", Quantile(score_us, 0.99));
  outcome->Layer("pipeline.service.conformal_us.p99",
                 Quantile(SpanDurationsUs(events, "serve.conformal"), 0.99));
  double dispatches = occupancy_after.count - occupancy_before.count;
  outcome->Layer("pipeline.service.batch_occupancy",
                 dispatches > 0.0
                     ? (occupancy_after.sum - occupancy_before.sum) / dispatches
                     : 0.0);
  outcome->Layer("pipeline.service.rejected",
                 meter.CounterDelta("serve.rejected"));
  outcome->Layer("pipeline.service.deadline_exceeded",
                 meter.CounterDelta("serve.deadline_exceeded"));
  outcome->Layer("pipeline.service.errors", meter.CounterDelta("serve.errors"));
  outcome->Layer("monitor.observe_us.p50", Median(observe_us));
  outcome->Layer("monitor.observe_us.p99", Quantile(observe_us, 0.99));
  std::vector<double> add_ms = harness->add_outcomes_ms();
  double add_mean = 0.0;
  for (double ms : add_ms) add_mean += ms / static_cast<double>(add_ms.size());
  outcome->Layer("monitor.add_outcomes_ms", add_mean);
  outcome->Layer("monitor.recalibrate_ms.p50",
                 Median(harness->recalibrate_ms()));
  outcome->Layer("monitor.recalibrate_ms.p99",
                 Quantile(harness->recalibrate_ms(), 0.99));
  outcome->Layer("monitor.recalibrations",
                 meter.CounterDelta("monitor.recalibrations"));
  outcome->Layer("common.thread_pool.tasks",
                 meter.CounterDelta("threadpool.tasks"));
  outcome->Layer("process.cpu_util", meter.cpu_util());
  outcome->Layer("trace.unattributed_frac", summary.unattributed_frac());
  outcome->Layer("trace.overhead_frac",
                 pass.light.p50_ms > 0.0
                     ? traced.light.p50_ms / pass.light.p50_ms - 1.0
                     : 0.0);
  NoteTraceSummary(summary, 1.0, outcome);
}

}  // namespace roicl::perfbench
