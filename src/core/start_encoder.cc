#include "core/start_encoder.h"

#include "core/checkpoint.h"

namespace start::core {

tensor::Tensor StartEncoder::EncodeBatch(
    const std::vector<const traj::Trajectory*>& batch,
    eval::EncodeMode mode) {
  return model_->Encode(eval::MakeModeBatch(batch, mode)).cls;
}

std::vector<float> StartEncoder::EmbedAll(
    const std::vector<traj::Trajectory>& trajs, eval::EncodeMode mode,
    int64_t batch_size) {
  SetTraining(false);
  tensor::NoGradGuard no_grad;
  const tensor::Tensor ext =
      model_->BuildExtendedTable(model_->ComputeRoadReps());
  return eval::EmbedAllWith(
      dim(), trajs, batch_size,
      [&](const std::vector<const traj::Trajectory*>& batch) {
        return model_->EncodeWithTable(eval::MakeModeBatch(batch, mode), ext)
            .cls;
      });
}

common::Status StartEncoder::WarmStart(const std::string& checkpoint_path,
                                       bool allow_missing,
                                       bool skip_mismatched) {
  LoadOptions options;
  options.allow_missing = allow_missing;
  options.skip_mismatched = skip_mismatched;
  return LoadModelCheckpoint(checkpoint_path, model_,
                             HashStartConfig(model_->config()), options);
}

}  // namespace start::core
