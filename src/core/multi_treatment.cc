#include "core/multi_treatment.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::core {
namespace {

// v2 added each arm's interval-backend section after its model blob.
constexpr char kDncRdrpMagic[] = "roicl-dnc-rdrp-v2";

}  // namespace

void DivideAndConquerRdrp::FitWithCalibration(
    const synth::MultiTreatmentDataset& train,
    const synth::MultiTreatmentDataset& calibration) {
  ROICL_CHECK(train.num_arms() == calibration.num_arms());
  ROICL_CHECK(train.num_arms() >= 1);
  models_.clear();
  for (int arm = 1; arm <= train.num_arms(); ++arm) {
    auto model = std::make_unique<RdrpModel>(ArmConfig(config_, arm));
    model->FitWithCalibration(train.BinarySubproblem(arm),
                              calibration.BinarySubproblem(arm));
    models_.push_back(std::move(model));
  }
}

std::vector<std::vector<double>> DivideAndConquerRdrp::PredictRoiPerArm(
    const Matrix& x) const {
  ROICL_CHECK_MSG(!models_.empty(), "PredictRoiPerArm() before Fit");
  std::vector<std::vector<double>> scores;
  scores.reserve(models_.size());
  for (const auto& model : models_) {
    scores.push_back(model->PredictRoi(x));
  }
  return scores;
}

std::vector<std::vector<metrics::Interval>>
DivideAndConquerRdrp::PredictIntervalsPerArm(const Matrix& x) const {
  ROICL_CHECK_MSG(!models_.empty(), "PredictIntervalsPerArm() before Fit");
  std::vector<std::vector<metrics::Interval>> intervals;
  intervals.reserve(models_.size());
  for (const auto& model : models_) {
    intervals.push_back(model->PredictIntervals(x));
  }
  return intervals;
}

const RdrpModel& DivideAndConquerRdrp::arm_model(int arm) const {
  ROICL_CHECK(arm >= 1 && arm <= num_arms());
  return *models_[AsSize(arm - 1)];
}

RdrpConfig DivideAndConquerRdrp::ArmConfig(const RdrpConfig& base,
                                           int arm) {
  RdrpConfig config = base;
  // Independent streams per arm, deterministic overall.
  config.drp.seed = base.drp.seed + static_cast<uint64_t>(arm) * 101;
  config.drp.train.seed =
      base.drp.train.seed + static_cast<uint64_t>(arm) * 131;
  config.mc_seed = base.mc_seed + static_cast<uint64_t>(arm) * 151;
  return config;
}

Status DivideAndConquerRdrp::Save(std::ostream& out) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("divide-and-conquer model not fitted");
  }
  out << kDncRdrpMagic << '\n' << models_.size() << '\n';
  for (const auto& model : models_) {
    if (Status status = model->Save(out); !status.ok()) return status;
    if (Status status = SaveIntervalSection(out, model->interval_backend());
        !status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

StatusOr<DivideAndConquerRdrp> DivideAndConquerRdrp::Load(
    std::istream& in, const RdrpConfig& config) {
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument(
        "empty or truncated dnc-rdrp model stream");
  }
  if (magic != kDncRdrpMagic) {
    // v1 streams carried no per-arm interval backend; loading one would
    // silently swap a cqr/weighted arm for split arithmetic.
    if (magic.rfind("roicl-dnc-rdrp-v", 0) == 0) {
      return Status::InvalidArgument(
          "unsupported dnc-rdrp format version '" + magic + "' (expected " +
          kDncRdrpMagic + ")");
    }
    return Status::InvalidArgument("bad magic '" + magic + "' (expected " +
                                   kDncRdrpMagic + ")");
  }
  size_t num_arms = 0;
  if (!(in >> num_arms) || num_arms == 0 || num_arms > 1000) {
    return Status::InvalidArgument("bad arm count");
  }
  DivideAndConquerRdrp model(config);
  model.models_.reserve(num_arms);
  for (size_t k = 0; k < num_arms; ++k) {
    StatusOr<RdrpModel> arm = RdrpModel::Load(
        in, ArmConfig(config, static_cast<int>(k) + 1));
    if (!arm.ok()) return arm.status();
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        LoadIntervalSection(in);
    if (!backend.ok()) return backend.status();
    if (Status status =
            arm.value().AdoptIntervalBackend(std::move(backend).value());
        !status.ok()) {
      return status;
    }
    model.models_.push_back(
        std::make_unique<RdrpModel>(std::move(arm).value()));
  }
  return model;
}

MultiAllocationResult GreedyAllocateMulti(
    const std::vector<std::vector<double>>& roi_scores,
    const std::vector<std::vector<double>>& costs, double budget) {
  ROICL_CHECK(!roi_scores.empty());
  ROICL_CHECK(roi_scores.size() == costs.size());
  size_t num_arms = roi_scores.size();
  size_t n = roi_scores[0].size();
  for (size_t k = 0; k < num_arms; ++k) {
    ROICL_CHECK(roi_scores[k].size() == n);
    ROICL_CHECK(costs[k].size() == n);
  }
  ROICL_CHECK(budget >= 0.0);

  struct Pair {
    int user;
    int arm;  // 1-based
    double roi;
  };
  std::vector<Pair> pairs;
  pairs.reserve(num_arms * n);
  for (size_t k = 0; k < num_arms; ++k) {
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(k + 1),
                       roi_scores[k][i]});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.roi != b.roi) return a.roi > b.roi;
    if (a.user != b.user) return a.user < b.user;
    return a.arm < b.arm;
  });

  MultiAllocationResult result;
  result.assignment.assign(n, -1);
  for (const Pair& pair : pairs) {
    const size_t user = AsSize(pair.user);
    if (result.assignment[user] != -1) continue;  // one arm per user
    double cost = costs[AsSize(pair.arm - 1)][user];
    ROICL_CHECK(cost >= 0.0);
    if (result.spent + cost <= budget) {
      result.assignment[user] = pair.arm;
      result.spent += cost;
    }
  }
  return result;
}

}  // namespace roicl::core
