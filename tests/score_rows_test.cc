// Score-once contract: one ScoreRows call returns the calibrated points,
// the conformal intervals and the Eq. (3) ingredients from a single
// MC-dropout sweep under a single q_hat snapshot. Pinned bitwise against
// a reference recomputed here from public pieces, for every interval
// backend at two engine thread counts, and counted against the
// mc_dropout.samples counter so no caller pays a second sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.h"
#include "core/interval_backend.h"
#include "core/rdrp.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "pipeline/hyperparams.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"
#include "synth/synthetic_generator.h"

namespace {

using namespace roicl;

RctDataset Gen(int n, uint64_t seed, bool shifted = false) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, shifted, &rng);
}

pipeline::Hyperparams SmallHp(const std::string& backend) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 3;
  hp.restarts = 1;
  hp.mc_passes = 6;
  hp.interval_backend = backend;
  return hp;
}

uint64_t McSamples() {
  return obs::MetricsRegistry::Global()
      .GetCounter("mc_dropout.samples")
      ->value();
}

void ExpectRowsEqual(const core::ScoredRows& want,
                     const core::ScoredRows& got) {
  ASSERT_EQ(want.roi.size(), got.roi.size());
  ASSERT_EQ(want.intervals.size(), got.intervals.size());
  ASSERT_EQ(want.roi_hat.size(), got.roi_hat.size());
  ASSERT_EQ(want.r_hat.size(), got.r_hat.size());
  for (size_t i = 0; i < want.roi.size(); ++i) {
    EXPECT_EQ(want.roi[i], got.roi[i]) << "row " << i;
    EXPECT_EQ(want.intervals[i].lo, got.intervals[i].lo) << "row " << i;
    EXPECT_EQ(want.intervals[i].hi, got.intervals[i].hi) << "row " << i;
    EXPECT_EQ(want.roi_hat[i], got.roi_hat[i]) << "row " << i;
    EXPECT_EQ(want.r_hat[i], got.r_hat[i]) << "row " << i;
  }
}

/// Algorithm 4, lines 10-12, spelled out from the model's public pieces
/// at a fixed single-threaded engine setting.
core::ScoredRows Reference(const core::RdrpModel& model,
                           const core::RdrpConfig& config, const Matrix& x) {
  nn::BatchOptions serial;
  serial.num_threads = 1;
  core::ScoredRows want;
  want.roi_hat = model.drp().PredictRoi(x);
  want.r_hat =
      model.drp().PredictMcRoi(x, config.mc_passes, config.mc_seed, serial)
          .stddev;
  for (double& s : want.r_hat) s = std::max(s, config.std_floor);
  const double q_hat = model.q_hat();
  std::vector<double> rq(want.r_hat.size());
  for (size_t i = 0; i < rq.size(); ++i) rq[i] = want.r_hat[i] * q_hat;
  want.roi = core::ApplyCalibrationForm(model.selected_form(), want.roi_hat,
                                        rq);
  want.intervals =
      model.interval_backend()->Intervals(x, want.roi_hat, want.r_hat, q_hat);
  for (metrics::Interval& interval : want.intervals) {
    interval.lo = std::max(interval.lo, 0.0);
    interval.hi = std::min(interval.hi, 1.0);
  }
  return want;
}

TEST(ScoreRows, MatchesReferenceBitwiseForEveryBackendAndThreadCount) {
  RctDataset train = Gen(300, 41);
  RctDataset calib = Gen(150, 42, /*shifted=*/true);
  RctDataset test = Gen(97, 43, /*shifted=*/true);
  for (const char* backend : core::kIntervalBackendNames) {
    SCOPED_TRACE(backend);
    pipeline::Hyperparams hp = SmallHp(backend);
    core::RdrpConfig config = pipeline::MakeRdrpConfig(hp);
    core::RdrpModel model(config);
    model.FitWithCalibration(train, calib);
    ASSERT_NE(model.interval_backend(), nullptr);
    ASSERT_EQ(model.interval_backend()->name(), backend);
    // Off the trained value, so a path that ignored the live quantile
    // for either half would show.
    model.set_q_hat(model.q_hat() * 1.5);
    core::ScoredRows want = Reference(model, config, test.x);

    pipeline::Pipeline pipeline =
        std::move(pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
            .value();
    ASSERT_TRUE(pipeline.SetConformalQuantile(model.q_hat()).ok());

    for (int threads : {1, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      nn::BatchOptions opts;
      opts.batch_size = 16;
      opts.num_threads = threads;
      model.set_predict_options(opts);
      pipeline.set_batch_options(opts);

      ExpectRowsEqual(want, model.Score(test.x));
      StatusOr<core::ScoredRows> rows = pipeline.ScoreRows(test.x);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ExpectRowsEqual(want, rows.value());

      // The point and interval entry points are projections of it.
      EXPECT_EQ(model.PredictRoi(test.x), want.roi);
      EXPECT_EQ(pipeline.Score(test.x).value(), want.roi);
      std::vector<metrics::Interval> intervals =
          pipeline.ScoreIntervals(test.x).value();
      ASSERT_EQ(intervals.size(), want.intervals.size());
      for (size_t i = 0; i < intervals.size(); ++i) {
        EXPECT_EQ(intervals[i].lo, want.intervals[i].lo);
        EXPECT_EQ(intervals[i].hi, want.intervals[i].hi);
      }
    }
  }
}

TEST(ScoreRows, PointScorersFillOnlyRoi) {
  pipeline::Hyperparams hp = SmallHp("split");
  RctDataset train = Gen(200, 51);
  pipeline::Pipeline pipeline =
      std::move(pipeline::Pipeline::Train("DRP", hp, train, nullptr, {}))
          .value();
  RctDataset test = Gen(20, 52);
  core::ScoredRows rows = pipeline.ScoreRows(test.x).value();
  EXPECT_EQ(rows.roi, pipeline.Score(test.x).value());
  EXPECT_TRUE(rows.intervals.empty());
  EXPECT_TRUE(rows.roi_hat.empty());
  EXPECT_TRUE(rows.r_hat.empty());
  EXPECT_FALSE(pipeline.ScoreIntervals(test.x).ok());
  EXPECT_FALSE(pipeline.ScoreRows(Matrix(2, test.x.cols() + 1)).ok());
}

TEST(ScoreRows, BareLoadedModelRefusesToScoreWithoutBackend) {
  core::RdrpConfig config = pipeline::MakeRdrpConfig(SmallHp("split"));
  core::RdrpModel model(config);
  model.FitWithCalibration(Gen(200, 61), Gen(100, 62));
  std::stringstream stream;
  ASSERT_TRUE(model.Save(stream).ok());
  StatusOr<core::RdrpModel> loaded = core::RdrpModel::Load(stream, config);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().interval_backend(), nullptr);
  EXPECT_DEATH(loaded.value().Score(Matrix(1, model.feature_dim())),
               "interval backend");
}

// ---- One MC-dropout pass per scoring call. ----

class OnePass : public ::testing::Test {
 protected:
  void SetUp() override {
    hp_ = SmallHp("split");
    train_ = Gen(300, 71);
    calib_ = Gen(150, 72);
    test_ = Gen(37, 73);
  }

  pipeline::Pipeline TrainRdrp() const {
    return std::move(
               pipeline::Pipeline::Train("rDRP", hp_, train_, &calib_, {}))
        .value();
  }

  pipeline::Hyperparams hp_;
  RctDataset train_;
  RctDataset calib_;
  RctDataset test_;
};

TEST_F(OnePass, ScoreRowsRunsOneSweep) {
  pipeline::Pipeline pipeline = TrainRdrp();
  const uint64_t before = McSamples();
  ASSERT_TRUE(pipeline.ScoreRows(test_.x).ok());
  EXPECT_EQ(McSamples() - before,
            static_cast<uint64_t>(test_.n()) *
                static_cast<uint64_t>(hp_.mc_passes));
}

TEST_F(OnePass, ShadowedServiceRequestRunsOneSweep) {
  pipeline::ServiceOptions options;
  options.shadow_interval_every = 1;
  pipeline::ScoringService service(TrainRdrp(), options);
  const uint64_t before = McSamples();
  ASSERT_TRUE(service.Score(test_.x).ok());
  EXPECT_EQ(McSamples() - before,
            static_cast<uint64_t>(test_.n()) *
                static_cast<uint64_t>(hp_.mc_passes));
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetGauge("serve.interval_width")
                ->value(),
            0.0);
}

TEST_F(OnePass, MonitorFromCalibrationRunsOneSweep) {
  pipeline::Pipeline pipeline = TrainRdrp();
  const uint64_t before = McSamples();
  StatusOr<std::unique_ptr<monitor::ServingMonitor>> monitor =
      monitor::ServingMonitor::FromCalibration(&pipeline, calib_, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  EXPECT_EQ(McSamples() - before,
            static_cast<uint64_t>(calib_.n()) *
                static_cast<uint64_t>(hp_.mc_passes));
}

TEST_F(OnePass, RebindWithCalibrationRunsOneSweep) {
  pipeline::Pipeline pipeline = TrainRdrp();
  const uint64_t before = McSamples();
  ASSERT_TRUE(pipeline.RebindIntervalBackend("weighted", &calib_).ok());
  EXPECT_EQ(McSamples() - before,
            static_cast<uint64_t>(calib_.n()) *
                static_cast<uint64_t>(hp_.mc_passes));
}

}  // namespace
