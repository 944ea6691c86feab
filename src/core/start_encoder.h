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

  void SetTraining(bool training) override { model_->SetTraining(training); }

  void SetDropoutRng(common::Rng* rng) override {
    model_->SetDropoutRng(rng);
  }

  /// Loads model parameters from a checkpoint written by core::Pretrain or
  /// SaveModelCheckpoint — the warm-start path that replaces retraining.
  common::Status WarmStart(const std::string& checkpoint_path,
                           bool allow_missing = false,
                           bool skip_mismatched = false) override;

  /// The inference contract of eval::TrajectoryEncoder::EmbedAll. Stage 1
  /// and the extended token table are evaluated once per call, then each
  /// batch runs stage 2 only (StartModel::EncodeWithTable), the calls
  /// serve::FrozenEncoder makes.
  std::vector<float> EmbedAll(const std::vector<traj::Trajectory>& trajs,
                              eval::EncodeMode mode,
                              int64_t batch_size = 64) override;

  StartModel* model() { return model_; }

 private:
  StartModel* model_;
};

}  // namespace start::core

#endif  // START_CORE_START_ENCODER_H_
