#ifndef ROICL_PIPELINE_PIPELINE_H_
#define ROICL_PIPELINE_PIPELINE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "pipeline/hyperparams.h"
#include "pipeline/registry.h"
#include "pipeline/scorer.h"

namespace roicl::pipeline {

/// Training provenance baked into every artifact so a served score can be
/// traced back to the run that produced it.
struct Provenance {
  uint64_t seed = 0;
  std::string dataset;       ///< e.g. "synth:insufficient" or a CSV path.
  std::string git_describe;  ///< build identity of the training binary.
  std::string tool;          ///< producing command, e.g. "roicl_cli train".
};

/// A versioned, self-describing bundle of everything needed to score:
/// the scorer name (registry key), the shared hyperparam block (from
/// which every per-family config and derived seed is rebuilt), the
/// feature dimension, provenance, and the fitted model state.
///
/// Train once, Save, then Load anywhere and get bit-identical
/// predictions — the contract the round-trip tests enforce for every
/// registered scorer at multiple engine thread counts.
class Pipeline {
 public:
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Trains a fresh `scorer_name` scorer (resolved through the global
  /// registry) on `train`, calibrating on `calibration` when non-null
  /// (rDRP's Algorithm 4; point methods ignore it).
  static StatusOr<Pipeline> Train(const std::string& scorer_name,
                                  const Hyperparams& hp,
                                  const RctDataset& train,
                                  const RctDataset* calibration,
                                  Provenance provenance);

  /// Scores a batch once through the scorer: points, and for conformal
  /// scorers intervals plus Eq. (3) ingredients from a single MC sweep.
  /// Rejects a feature-dimension mismatch with a descriptive error
  /// instead of crashing.
  StatusOr<core::ScoredRows> ScoreRows(const Matrix& x) const;

  /// Point ROI scores (the `roi` projection of ScoreRows).
  StatusOr<std::vector<double>> Score(const Matrix& x) const;

  /// Conformal intervals (the `intervals` projection of ScoreRows);
  /// FailedPrecondition for scorers without intervals.
  StatusOr<std::vector<metrics::Interval>> ScoreIntervals(
      const Matrix& x) const;

  /// MC-dropout uncertainty via the scorer (when supported).
  StatusOr<core::McDropoutStats> ScoreMc(const Matrix& x, int passes,
                                         uint64_t seed) const;

  /// Conformal-quantile plumbing for the online recalibrator (rDRP
  /// only): read / atomically swap q_hat. Both forward to the scorer.
  bool has_conformal_quantile() const {
    return scorer_->has_conformal_quantile();
  }
  StatusOr<double> conformal_quantile() const {
    return scorer_->conformal_quantile();
  }
  Status SetConformalQuantile(double q_hat) {
    return scorer_->SetConformalQuantile(q_hat);
  }
  /// The interval backend behind this pipeline's conformal intervals
  /// (nullptr for point scorers without interval state).
  const core::IntervalBackend* interval_backend() const {
    return scorer_->interval_backend();
  }

  /// Replaces the interval backend with a freshly built `name` backend
  /// ("split" / "weighted" / "cqr") and seeds the live serving quantile
  /// with its calibration q_hat. Without a calibration set, only
  /// backends sharing split score semantics can be rebuilt from the
  /// persisted state (split <-> weighted); rebinding to cqr needs
  /// `calibration` to refit its quantile heads. No-op when the backend
  /// already has that name.
  Status RebindIntervalBackend(const std::string& name,
                               const RctDataset* calibration);

  /// Serializes the manifest + model blob ("roicl-pipeline-v2"; the
  /// manifest carries a versioned interval-backend section between the
  /// hyperparams and the model blob).
  Status Save(std::ostream& out) const;
  Status SaveToFile(const std::string& path) const;

  /// Restores an artifact written by Save: version check, manifest parse,
  /// scorer construction through the registry, model load, and a strict
  /// feature-dimension cross-check between manifest and model.
  static StatusOr<Pipeline> Load(std::istream& in);
  static StatusOr<Pipeline> LoadFromFile(const std::string& path);

  /// Re-points the scorer's batched prediction engine (throughput only).
  void set_batch_options(const nn::BatchOptions& opts) {
    scorer_->set_batch_options(opts);
  }

  const RoiScorer& scorer() const { return *scorer_; }
  const std::string& scorer_name() const { return scorer_name_; }
  int feature_dim() const { return feature_dim_; }
  const Hyperparams& hyperparams() const { return hp_; }
  const Provenance& provenance() const { return provenance_; }

 private:
  Pipeline() = default;

  /// InvalidArgument unless `x` has feature_dim() columns.
  Status CheckFeatureDim(const Matrix& x) const;

  std::string scorer_name_;
  int feature_dim_ = -1;
  Hyperparams hp_;
  Provenance provenance_;
  std::unique_ptr<RoiScorer> scorer_;
};

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_PIPELINE_H_
