#ifndef ROICL_PERFBENCH_COMMON_H_
#define ROICL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "obs/trace.h"

/// \file
/// Shared plumbing of the end-to-end benchmark: run arguments, the
/// outcome every workload fills in (operations, checks, metrics, record
/// notes), timing and quantile helpers, and the pinned rDRP/DRP fixture.

namespace roicl::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Jobs a batch or alloc pass runs at least, however long they take, so
/// every run reports the same statistics over the same memory high-water.
constexpr size_t kMinJobs = 2;

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< traced run: per-layer metrics
  std::string work_dir;   ///< scratch inputs (CSV, artifacts)
  std::string out_dir;    ///< records and chrome traces
};

/// Measured time of each pass: the whole run, or half of it for each of
/// a traced run's two passes (untraced, then traced), so that a traced run
/// takes about as long as an end-to-end one.
inline double PassSeconds(const RunArgs& args) {
  return args.trace ? args.seconds / 2.0 : args.seconds;
}

/// What one workload run reports. Operations and checks both count as
/// attempted; a failed operation or check counts as failed.
class Outcome {
 public:
  void Operations(int64_t attempted, int64_t failed);
  /// Records one output check; a failure is kept for the record.
  void Check(bool ok, const std::string& what);

  void EndToEnd(const std::string& name, double value) {
    end_to_end_[name] = value;
  }
  void Layer(const std::string& name, double value) { layer_[name] = value; }
  /// Free-form record field (a JSON number).
  void Note(const std::string& name, double value);
  /// Free-form record field (a JSON string).
  void Note(const std::string& name, const std::string& value);
  /// Free-form record field, already JSON-encoded.
  void NoteJson(const std::string& name, const std::string& json) {
    notes_[name] = json;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return check_failures_.empty(); }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  const std::map<std::string, double>& end_to_end() const {
    return end_to_end_;
  }
  const std::map<std::string, double>& layer() const { return layer_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> check_failures_;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layer_;
  std::map<std::string, std::string> notes_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Whether a batch or alloc pass that started at `start` and has run
/// jobs of `job_s` starts another: at least kMinJobs, then only while the
/// next job would end less than half a (median) job past `seconds`. So a
/// pass of 12 s jobs measures 24 s of a 30 s budget rather than 36 s.
inline bool RunAnotherJob(Clock::time_point start, double seconds,
                          const std::vector<double>& job_s) {
  return job_s.size() < kMinJobs ||
         SecondsSince(start) + Median(job_s) / 2.0 < seconds;
}

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);
/// "[a, b, ...]" of already-encoded JSON values.
std::string JsonList(const std::vector<std::string>& items);
std::string JsonNumberList(const std::vector<double>& values);

/// Runs `setup` `repetitions` times and returns the median wall time in
/// seconds. Every repetition rebuilds the workload's state from scratch;
/// the state of the last one is what the measured pass uses.
double TimeSetup(int repetitions, const std::function<void()>& setup);

/// Prints `message` to stderr and exits non-zero without a result line.
[[noreturn]] void Die(const std::string& message);

/// Wall clock, process CPU and program counters at the start of a pass,
/// for the deltas a pass reports.
class PassMeter {
 public:
  PassMeter();
  double wall_s() const { return SecondsSince(start_); }
  /// CPU seconds over (wall seconds x online CPUs) since construction.
  double cpu_util() const;
  /// Growth of a counter in the global metrics registry since construction.
  double CounterDelta(const std::string& name) const;

 private:
  Clock::time_point start_;
  double cpu_s_ = 0.0;
  std::map<std::string, uint64_t> counters_;
};

/// Clears the trace collector and turns collection on.
void StartTracing();
/// Turns collection off, writes the chrome trace (viewable in Perfetto)
/// to `chrome_path` and returns the collected events.
std::vector<obs::TraceEvent> StopTracing(const std::string& chrome_path);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();
int NumCpus();

/// The deployed artifact every scoring workload serves: a pipeline
/// trained on unshifted criteo-preset rows and calibrated on shifted rows
/// (covariate shift, Algorithm 4). The training data are pinned — the
/// model is part of the system under test, not of the workload input —
/// so only the scored population varies with the seed.
struct Fixture {
  std::string artifact_path;
  RctDataset calibration;  ///< shifted calibration rows (monitor anchor)
  std::string form;        ///< rDRP calibration form picked ("none" for DRP)
  double alpha = 0.1;
};

StatusOr<Fixture> TrainFixture(const std::string& method,
                               const std::string& dir);

/// The shifted criteo-preset population a workload scores, drawn from
/// the workload seed.
RctDataset ShiftedPopulation(int rows, uint64_t seed);

/// Bitwise equality of two score vectors (NaN-safe, sign-of-zero exact).
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// The workloads. Each sets up (timed, several times), runs its measured
/// pass for PassSeconds(args) with tracing off — and, for a traced run, a
/// second traced pass — then checks its outputs.
void RunBatchWorkload(const RunArgs& args, const std::string& method,
                      Outcome* outcome);
void RunServeWorkload(const RunArgs& args, Outcome* outcome);
void RunAllocWorkload(const RunArgs& args, Outcome* outcome);

}  // namespace roicl::perfbench

#endif  // ROICL_PERFBENCH_COMMON_H_
