#ifndef ROICL_PIPELINE_SCORER_H_
#define ROICL_PIPELINE_SCORER_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "core/direct_model.h"
#include "core/interval_backend.h"
#include "core/rdrp.h"
#include "metrics/coverage.h"
#include "nn/batch_forward.h"
#include "uplift/roi_model.h"

namespace roicl::pipeline {

/// The polymorphic scoring interface every benchmark method is served
/// through: a point ROI estimate (inherited from uplift::RoiModel), plus
/// two optional capabilities — MC-dropout uncertainty and conformal
/// intervals (both out of one ScoreRows call) — and serialization hooks so a fitted scorer can travel
/// inside a Pipeline artifact.
///
/// Capability discovery is explicit (`has_mc_uncertainty()` /
/// `has_intervals()`): callers branch on the capability, never on the
/// concrete type, which is what lets exp/, the CLI and the serving layer
/// dispatch through the registry with no per-family switch chains.
class RoiScorer : public uplift::RoiModel {
 public:
  /// True when ScoreMc is implemented (direct neural models only: TPM
  /// cannot, because the std of a ratio is not the ratio of stds).
  virtual bool has_mc_uncertainty() const { return false; }

  /// MC-dropout mean/std of the predicted ROI over `passes` stochastic
  /// forward passes. Deterministic given `seed` at any engine setting.
  virtual StatusOr<core::McDropoutStats> ScoreMc(const Matrix& /*x*/,
                                                 int /*passes*/,
                                                 uint64_t /*seed*/) const {
    return Status::FailedPrecondition(
        "scorer does not support MC-dropout uncertainty");
  }

  /// True when ScoreRows also fills intervals and the Eq. (3) conformity
  /// ingredients (conformal methods only).
  virtual bool has_intervals() const { return false; }

  /// Scores a batch once. Point scorers fill only `roi`; conformal
  /// scorers (rDRP) also fill the intervals (Eq. 4) and the uncalibrated
  /// point roi_hat plus the floored MC std r_hat, all from one MC-dropout
  /// sweep and one q_hat snapshot.
  virtual StatusOr<core::ScoredRows> ScoreRows(const Matrix& x) const {
    core::ScoredRows rows;
    rows.roi = PredictRoi(x);
    return rows;
  }

  /// True when the scorer carries a swappable conformal quantile q_hat
  /// (rDRP). Implies has_intervals().
  virtual bool has_conformal_quantile() const { return false; }

  /// The live conformal quantile (requires has_conformal_quantile()).
  virtual StatusOr<double> conformal_quantile() const {
    return Status::FailedPrecondition(
        "scorer does not carry a conformal quantile");
  }

  /// Atomically swaps the conformal quantile — the online-recalibration
  /// hook. Concurrent ScoreRows calls see either the old or the new
  /// value, never a torn mix.
  virtual Status SetConformalQuantile(double /*q_hat*/) {
    return Status::FailedPrecondition(
        "scorer does not carry a conformal quantile");
  }

  /// The interval backend shaping this scorer's conformal intervals, or
  /// nullptr for scorers without interval state. Non-null exactly when
  /// the pipeline artifact carries an interval-backend section.
  virtual const core::IntervalBackend* interval_backend() const {
    return nullptr;
  }

  /// Installs a calibrated interval backend (artifact load or rebind).
  /// The live serving quantile is not touched — swapping it stays the
  /// caller's explicit SetConformalQuantile decision.
  virtual Status AdoptIntervalBackend(
      std::unique_ptr<core::IntervalBackend> /*backend*/) {
    return Status::FailedPrecondition(
        "scorer does not carry interval state");
  }

  /// Re-points the batched prediction engine (row-block size, thread
  /// count). Throughput knob only — scores are bit-identical across
  /// settings. Default: no engine to configure (tree/meta families).
  virtual void set_batch_options(const nn::BatchOptions& /*opts*/) {}

  /// Feature dimension the scorer was fitted on, or -1 before Fit/Load.
  virtual int feature_dim() const = 0;

  /// Serializes the fitted model state (no hyperparameters — those live
  /// in the Pipeline manifest). Requires a fitted scorer.
  virtual Status SaveModel(std::ostream& out) const = 0;

  /// Restores state written by SaveModel into this (configured but
  /// unfitted) scorer. Malformed input returns a descriptive Status.
  virtual Status LoadModel(std::istream& in) = 0;
};

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_SCORER_H_
