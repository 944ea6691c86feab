#ifndef START_CORE_START_ENCODER_H_
#define START_CORE_START_ENCODER_H_

#include <string>
#include <vector>

#include "core/start_model.h"
#include "eval/encoder.h"

namespace start::core {

/// \brief eval::TrajectoryEncoder adapter over StartModel: builds the proper
/// data views per encode mode (full timestamps for pre-training/similarity;
/// departure-only for the ETA protocol) and returns the [CLS] pooled
/// representation.
///
/// In inference mode (training off, gradients off — what the inherited
/// InferBatch runs after SetTraining(false)) EncodeBatch computes the stage-1
/// road representations once and caches them: they depend only on the
/// parameters, so re-deriving the whole TPE-GAT forward per batch was pure
/// waste. Any parameter mutation routed through this adapter (SetTraining,
/// WarmStart) invalidates the cache; mutations done behind its back require
/// an explicit InvalidateRoadReps().
class StartEncoder : public eval::TrajectoryEncoder {
 public:
  /// Does not take ownership; `model` must outlive the encoder.
  explicit StartEncoder(StartModel* model) : model_(model) {}

  int64_t dim() const override { return model_->config().d; }

  tensor::Tensor EncodeBatch(
      const std::vector<const traj::Trajectory*>& batch,
      eval::EncodeMode mode) override;

  std::vector<tensor::Tensor> TrainableParameters() override {
    return model_->Parameters();
  }

  void SetTraining(bool training) override {
    model_->SetTraining(training);
    InvalidateRoadReps();
  }

  void SetDropoutRng(common::Rng* rng) override {
    model_->SetDropoutRng(rng);
  }

  /// Loads model parameters from a checkpoint written by core::Pretrain or
  /// SaveModelCheckpoint — the warm-start path that replaces retraining.
  common::Status WarmStart(const std::string& checkpoint_path,
                           bool allow_missing = false,
                           bool skip_mismatched = false) override;

  /// Drops the cached road representations; the next inference-mode encode
  /// recomputes them from the current parameters.
  void InvalidateRoadReps() { cached_road_reps_ = tensor::Tensor(); }

  StartModel* model() { return model_; }

 private:
  StartModel* model_;
  tensor::Tensor cached_road_reps_;  ///< Detached; inference mode only.
};

}  // namespace start::core

#endif  // START_CORE_START_ENCODER_H_
