#include "core/start_encoder.h"

#include "core/checkpoint.h"
#include "data/batch.h"

namespace start::core {

tensor::Tensor StartEncoder::EncodeBatch(
    const std::vector<const traj::Trajectory*>& batch,
    eval::EncodeMode mode) {
  const data::Batch b = eval::MakeModeBatch(batch, mode);
  // The cache is only sound when nothing will differentiate through the road
  // representations and the parameters cannot change between batches: pure
  // inference. Fine-tuning (training mode / grad mode) takes the full path.
  if (!model_->training() && !tensor::GradModeEnabled()) {
    if (!cached_road_reps_.defined()) {
      cached_road_reps_ = model_->ComputeRoadReps().Detach();
    }
    return model_->Encode(b, cached_road_reps_).cls;
  }
  return model_->Encode(b).cls;
}

common::Status StartEncoder::WarmStart(const std::string& checkpoint_path,
                                       bool allow_missing,
                                       bool skip_mismatched) {
  LoadOptions options;
  options.allow_missing = allow_missing;
  options.skip_mismatched = skip_mismatched;
  START_RETURN_IF_ERROR(LoadModelCheckpoint(
      checkpoint_path, model_, HashStartConfig(model_->config()), options));
  InvalidateRoadReps();
  return common::Status::OK();
}

}  // namespace start::core
