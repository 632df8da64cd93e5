// batch_rdrp / batch_drp: the paper's offline job under covariate shift.
// One job reads a 200k-row shifted population CSV, loads the pipeline
// artifact, scores it (rDRP also builds its conformal intervals) and runs
// Algorithm 1 at 15% of the all-in cost.

#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/greedy.h"
#include "core/roi_star.h"
#include "data/csv.h"
#include "metrics/coverage.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "trace_layers.h"

namespace roicl::perfbench {
namespace {

constexpr int kPopulationRows = 200000;
constexpr double kBudgetFraction = 0.15;
/// Rows both the job's pipeline and a second one re-score to check
/// save -> load -> score.
constexpr int kSliceRows = 2048;

struct Job {
  double wall_s = 0.0;
  RctDataset data;
  std::vector<double> scores;
  std::vector<metrics::Interval> intervals;
  core::AllocationResult allocation;
  double budget = 0.0;
  std::optional<pipeline::Pipeline> pipeline;  ///< the job's loaded artifact
};

/// One population job, each call into a module wrapped in its own span
/// (inert unless tracing is on).
StatusOr<Job> RunJob(const std::string& csv_path,
                     const std::string& artifact_path) {
  Job job;
  Clock::time_point start = Clock::now();
  {
    obs::ScopedSpan job_span("bench.job");
    StatusOr<RctDataset> data = [&] {
      obs::ScopedSpan span("bench.data.read_csv");
      return ReadDatasetCsv(csv_path);
    }();
    if (!data.ok()) return data.status();
    job.data = std::move(data).value();

    StatusOr<pipeline::Pipeline> loaded = [&] {
      obs::ScopedSpan span("bench.pipeline.load");
      return pipeline::Pipeline::LoadFromFile(artifact_path);
    }();
    if (!loaded.ok()) return loaded.status();
    const pipeline::Pipeline& pipeline = job.pipeline.emplace(
        std::move(loaded).value());

    StatusOr<std::vector<double>> scores = [&] {
      obs::ScopedSpan span("bench.pipeline.score");
      return pipeline.Score(job.data.x);
    }();
    if (!scores.ok()) return scores.status();
    job.scores = std::move(scores).value();

    if (pipeline.scorer().has_intervals()) {
      StatusOr<std::vector<metrics::Interval>> intervals = [&] {
        obs::ScopedSpan span("bench.pipeline.score_intervals");
        return pipeline.ScoreIntervals(job.data.x);
      }();
      if (!intervals.ok()) return intervals.status();
      job.intervals = std::move(intervals).value();
    }

    obs::ScopedSpan span("bench.core.greedy_allocate");
    double total_cost = 0.0;
    for (double c : job.data.true_tau_c) total_cost += c;
    job.budget = kBudgetFraction * total_cost;
    job.allocation = core::GreedyAllocate(job.scores, job.data.true_tau_c,
                                          job.budget,
                                          /*skip_unaffordable=*/true);
  }
  job.wall_s = SecondsSince(start);
  return job;
}

struct Pass {
  std::vector<double> job_s;
  double revenue_per_cost = 0.0;
  double coverage = -1.0;  ///< -1 when the scorer has no intervals
  Matrix slice;  ///< leading rows of the population
  std::optional<pipeline::Pipeline> last_pipeline;
};

/// Runs jobs back to back for about `seconds` (see RunAnotherJob),
/// checking each.
Pass RunPass(const std::string& csv_path, const Fixture& fixture,
             double seconds, Outcome* outcome) {
  Pass pass;
  std::vector<int> first_selection;
  Clock::time_point start = Clock::now();
  do {
    StatusOr<Job> ran = RunJob(csv_path, fixture.artifact_path);
    if (!ran.ok()) Die("batch job failed: " + ran.status().ToString());
    Job& job = ran.value();
    outcome->Operations(1, 0);
    pass.job_s.push_back(job.wall_s);

    double revenue = 0.0;
    for (int i : job.allocation.selected) {
      revenue += job.data.true_tau_r[static_cast<size_t>(i)];
    }
    pass.revenue_per_cost =
        job.allocation.spent > 0.0 ? revenue / job.allocation.spent : 0.0;
    outcome->Check(job.allocation.spent <= job.budget &&
                       !job.allocation.selected.empty(),
                   "spend within budget");
    if (first_selection.empty()) {
      first_selection = job.allocation.selected;
    } else {
      outcome->Check(job.allocation.selected == first_selection,
                     "every job selects the same users");
    }
    if (!job.intervals.empty()) {
      double roi_star = core::BinarySearchRoiStar(job.data);
      pass.coverage = metrics::EvaluateCoverage(
                          job.intervals,
                          std::vector<double>(job.intervals.size(), roi_star))
                          .coverage;
      // The coverage-test tolerance of the repository's conformal tests:
      // 3 binomial sigma plus 0.05 for the calibration/test roi* gap.
      double n = static_cast<double>(job.intervals.size());
      double sigma = std::sqrt(fixture.alpha * (1.0 - fixture.alpha) / n);
      double floor = (1.0 - fixture.alpha) - 3.0 * sigma - 0.05;
      outcome->Check(pass.coverage >= floor,
                     "interval coverage " + std::to_string(pass.coverage) +
                         " >= " + std::to_string(floor));
    }
    std::vector<int> rows(kSliceRows);
    for (int i = 0; i < kSliceRows; ++i) rows[static_cast<size_t>(i)] = i;
    pass.slice = job.data.x.SelectRows(rows);
    pass.last_pipeline = std::move(job.pipeline);
  } while (RunAnotherJob(start, seconds, pass.job_s));
  return pass;
}

}  // namespace

void RunBatchWorkload(const RunArgs& args, const std::string& method,
                      Outcome* outcome) {
  const std::string csv_path = args.work_dir + "/population.csv";
  Fixture fixture;
  double setup_s = TimeSetup(3, [&] {
    StatusOr<Fixture> trained = TrainFixture(method, args.work_dir);
    if (!trained.ok()) Die("fixture: " + trained.status().ToString());
    fixture = std::move(trained).value();
    RctDataset population = ShiftedPopulation(kPopulationRows, args.seed);
    if (Status status = WriteDatasetCsv(population, csv_path); !status.ok()) {
      Die("population: " + status.ToString());
    }
  });
  outcome->Note("rdrp_calibration_form", fixture.form);
  outcome->Note("population_rows", kPopulationRows);

  Pass pass = RunPass(csv_path, fixture, PassSeconds(args), outcome);
  outcome->EndToEnd("setup_s", setup_s);
  outcome->EndToEnd("rows_per_s", kPopulationRows / Median(pass.job_s));
  outcome->EndToEnd("revenue_per_cost", pass.revenue_per_cost);
  outcome->NoteJson("job_s", JsonNumberList(pass.job_s));
  if (pass.coverage >= 0.0) outcome->Note("interval_coverage", pass.coverage);

  // save -> load -> score: a second pipeline loaded from the artifact
  // scores a fixed slice bitwise equal to the job's pipeline.
  {
    StatusOr<pipeline::Pipeline> second =
        pipeline::Pipeline::LoadFromFile(fixture.artifact_path);
    StatusOr<std::vector<double>> first = pass.last_pipeline->Score(pass.slice);
    bool equal = false;
    if (second.ok() && first.ok()) {
      StatusOr<std::vector<double>> scores = second.value().Score(pass.slice);
      equal = scores.ok() && BitwiseEqual(scores.value(), first.value());
    }
    outcome->Check(equal, "second pipeline scores the slice bitwise equal");
  }

  if (!args.trace) return;

  PassMeter meter;
  StartTracing();
  Pass traced = RunPass(csv_path, fixture, PassSeconds(args), outcome);
  std::vector<obs::TraceEvent> events = StopTracing(
      args.out_dir + "/trace-" + args.workload + "-seed" +
      std::to_string(args.seed) + ".json");
  double jobs = static_cast<double>(traced.job_s.size());
  TraceSummary summary = SummarizeTrace(events, {"bench.job"});

  double read_s = summary.total_s("bench.data.read_csv") / jobs;
  double csv_mb =
      static_cast<double>(std::filesystem::file_size(csv_path)) / 1e6;
  outcome->Layer("core.mc_dropout.s", summary.self_s("mc_dropout") / jobs);
  outcome->Layer("core.mc_dropout.calls",
                 static_cast<double>(summary.count("mc_dropout")) / jobs);
  outcome->Layer("core.mc_dropout.forward_rows",
                 meter.CounterDelta("mc_dropout.samples") / jobs);
  outcome->Layer("pipeline.score_s",
                 summary.total_s("bench.pipeline.score") / jobs);
  outcome->Layer("pipeline.score_intervals_s",
                 summary.total_s("bench.pipeline.score_intervals") / jobs);
  outcome->Layer("data.read_csv_s", read_s);
  outcome->Layer("data.read_csv_mb_per_s",
                 read_s > 0.0 ? csv_mb / read_s : 0.0);
  outcome->Layer("pipeline.load_s",
                 summary.total_s("bench.pipeline.load") / jobs);
  outcome->Layer("core.greedy_allocate_s",
                 summary.total_s("bench.core.greedy_allocate") / jobs);
  outcome->Layer("common.thread_pool.tasks",
                 meter.CounterDelta("threadpool.tasks") / jobs);
  outcome->Layer("process.cpu_util", meter.cpu_util());
  outcome->Layer("trace.unattributed_frac", summary.unattributed_frac());
  outcome->Layer("trace.overhead_frac",
                 Median(traced.job_s) / Median(pass.job_s) - 1.0);
  NoteTraceSummary(summary, jobs, outcome);
}

}  // namespace roicl::perfbench
