#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/rng.h"
#include "common/stats.h"
#include "core/calibration.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "pipeline/hyperparams.h"
#include "pipeline/pipeline.h"
#include "synth/synthetic_generator.h"

namespace roicl::perfbench {
namespace {

/// User + system CPU seconds consumed by this process so far.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

void Outcome::Operations(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Outcome::Check(bool ok, const std::string& what) {
  attempted_ += 1;
  if (!ok) {
    failed_ += 1;
    check_failures_.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Outcome::Note(const std::string& name, double value) {
  notes_[name] = JsonNumber(value);
}

void Outcome::Note(const std::string& name, const std::string& value) {
  notes_[name] = JsonString(value);
}

double Quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : roicl::Quantile(std::move(values), q);
}

std::string JsonString(const std::string& text) {
  return "\"" + obs::JsonEscape(text) + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string json = "[";
  for (const std::string& item : items) {
    if (json.size() > 1) json += ", ";
    json += item;
  }
  return json + "]";
}

std::string JsonNumberList(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double value : values) items.push_back(JsonNumber(value));
  return JsonList(items);
}

double TimeSetup(int repetitions, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < repetitions; ++i) {
    Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

PassMeter::PassMeter() : start_(Clock::now()), cpu_s_(CpuSeconds()) {
  obs::MetricsRegistry::Global().ForEachCounter(
      [this](const std::string& name, uint64_t value) {
        counters_[name] = value;
      });
}

double PassMeter::cpu_util() const {
  double wall = wall_s();
  return wall > 0.0 ? (CpuSeconds() - cpu_s_) / (wall * NumCpus()) : 0.0;
}

double PassMeter::CounterDelta(const std::string& name) const {
  uint64_t now = obs::MetricsRegistry::Global().GetCounter(name)->value();
  auto it = counters_.find(name);
  uint64_t then = it == counters_.end() ? 0 : it->second;
  return static_cast<double>(now - then);
}

void StartTracing() {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Clear();
  collector.SetEnabled(true);
}

std::vector<obs::TraceEvent> StopTracing(const std::string& chrome_path) {
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.SetEnabled(false);
  if (!collector.WriteChromeJson(chrome_path)) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                 chrome_path.c_str());
  }
  return collector.Snapshot();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int NumCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

// Pinned fixture: the deployed model is fixed; workloads vary only the
// population they score.
constexpr int kFixtureTrainRows = 20000;
constexpr int kFixtureCalibrationRows = 5000;
constexpr uint64_t kFixtureTrainSeed = 7;
constexpr uint64_t kFixtureCalibrationSeed = 11;

pipeline::Hyperparams FixtureHyperparams() {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 5;
  hp.restarts = 1;
  hp.mc_passes = 30;
  hp.alpha = 0.1;
  hp.seed = 1234;
  return hp;
}

RctDataset Generate(int rows, bool shifted, uint64_t seed,
                    uint64_t stream = 0) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed, stream);
  return generator.Generate(rows, shifted, &rng);
}

/// The calibration form rDRP's Algorithm 4 picked, read back from the
/// artifact's model blob ("roicl-rdrp-v1" then "q_hat roi* form").
std::string CalibrationFormOf(const pipeline::Pipeline& pipeline) {
  std::ostringstream blob;
  if (!pipeline.Save(blob).ok()) return "unknown";
  std::istringstream in(blob.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line != "roicl-rdrp-v1") continue;
    double q_hat = 0.0, roi_star = 0.0;
    int form = -1;
    if (!(in >> q_hat >> roi_star >> form)) return "unknown";
    if (form < 0 || form > static_cast<int>(core::CalibrationForm::kUpper)) {
      return "unknown";
    }
    return core::CalibrationFormName(static_cast<core::CalibrationForm>(form));
  }
  return "none";
}

}  // namespace

StatusOr<Fixture> TrainFixture(const std::string& method,
                               const std::string& dir) {
  RctDataset train = Generate(kFixtureTrainRows, /*shifted=*/false,
                              kFixtureTrainSeed);
  Fixture fixture;
  fixture.calibration = Generate(kFixtureCalibrationRows, /*shifted=*/true,
                                 kFixtureCalibrationSeed);
  pipeline::Hyperparams hp = FixtureHyperparams();
  fixture.alpha = hp.alpha;
  pipeline::Provenance provenance;
  provenance.seed = hp.seed;
  provenance.dataset = "synth:criteo (perfbench fixture)";
  provenance.tool = "perfbench";
  StatusOr<pipeline::Pipeline> trained = pipeline::Pipeline::Train(
      method, hp, train, &fixture.calibration, provenance);
  if (!trained.ok()) return trained.status();
  fixture.form = CalibrationFormOf(trained.value());
  fixture.artifact_path = dir + "/" + method + ".pipeline";
  if (Status status = trained.value().SaveToFile(fixture.artifact_path);
      !status.ok()) {
    return status;
  }
  return fixture;
}

RctDataset ShiftedPopulation(int rows, uint64_t seed) {
  // A stream of its own, so no workload seed reproduces fixture rows.
  return Generate(rows, /*shifted=*/true, seed, /*stream=*/1);
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace roicl::perfbench
