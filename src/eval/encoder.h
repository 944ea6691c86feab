#ifndef START_EVAL_ENCODER_H_
#define START_EVAL_ENCODER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "data/batch.h"
#include "data/view.h"
#include "tensor/tensor.h"
#include "traj/trajectory.h"

namespace start::eval {

/// How much temporal information an encoder may consume.
enum class EncodeMode {
  kFull,           ///< Pre-training / similarity: full timestamps available.
  kDepartureOnly,  ///< ETA fine-tuning protocol (Sec. IV-D2): only the
                   ///< departure time is exposed.
};

/// \brief Common interface over START and every baseline: a model that maps
/// trajectories to d-dimensional representations.
///
/// The downstream-task harness (eval/tasks.h) and the similarity protocols
/// only see this interface, so Table II's per-model rows all run through
/// identical task code.
class TrajectoryEncoder {
 public:
  virtual ~TrajectoryEncoder() = default;

  /// Representation dimensionality.
  virtual int64_t dim() const = 0;

  /// Encodes a batch with gradients (for fine-tuning). Returns [B, dim].
  virtual tensor::Tensor EncodeBatch(
      const std::vector<const traj::Trajectory*>& batch, EncodeMode mode) = 0;

  /// \brief Inference entry point: encodes a batch without recording
  /// autograd state, so no graph nodes or gradient buffers are allocated.
  ///
  /// This is the API every embedding *consumer* (corpus embedding, the
  /// frozen-encoder task paths, the serving plane) goes through; EncodeBatch
  /// remains the fine-tuning surface. It is EncodeBatch under a
  /// NoGradGuard, for every encoder. Callers must put the encoder in eval
  /// mode first (SetTraining(false)) — InferBatch does not toggle it, so an
  /// EncodeBatch that sees eval mode with gradients off may reuse work that
  /// is invariant while parameters are frozen (StartEncoder caches its
  /// stage-1 road representations across calls). Returns [B, dim].
  tensor::Tensor InferBatch(
      const std::vector<const traj::Trajectory*>& batch, EncodeMode mode) {
    tensor::NoGradGuard no_grad;
    return EncodeBatch(batch, mode);
  }

  /// Parameters updated during fine-tuning.
  virtual std::vector<tensor::Tensor> TrainableParameters() = 0;

  /// Toggles dropout etc.
  virtual void SetTraining(bool training) = 0;

  /// Sets the generator used for dropout mask sampling (see
  /// nn::Module::SetDropoutRng); the fine-tuning tasks seed one from
  /// TaskConfig::seed so a fine-tune run is reproducible regardless of what
  /// consumed the global stream before it. Default: no-op (encoders without
  /// dropout). Pass nullptr to fall back to common::GlobalRng().
  virtual void SetDropoutRng(common::Rng* rng) { (void)rng; }

  /// Warm-starts the encoder from a pre-trained checkpoint instead of
  /// training from scratch (see core/checkpoint.h). `allow_missing` /
  /// `skip_mismatched` mirror Module::Load: a fine-tuning model may add a
  /// head the checkpoint lacks, and |V|-bound tensors cannot move between
  /// road networks. Default: not supported by this encoder. (Defined inline
  /// so this interface keeps no out-of-line virtuals — core implements
  /// adapters against it and must not need eval's objects at link time.)
  virtual common::Status WarmStart(const std::string& checkpoint_path,
                                   bool allow_missing = false,
                                   bool skip_mismatched = false) {
    (void)allow_missing;
    (void)skip_mismatched;
    return common::Status::Unimplemented(
        "this encoder cannot load checkpoints (" + checkpoint_path + ")");
  }

  /// Convenience: embeds a corpus without gradients; row-major [n, dim].
  std::vector<float> EmbedAll(const std::vector<traj::Trajectory>& trajs,
                              EncodeMode mode, int64_t batch_size = 64);
};

/// Pads a pointer batch into the model-facing data::Batch for an encode
/// mode (full views vs. the departure-only ETA protocol). The single place
/// the mode -> view translation lives; shared by StartEncoder and the
/// serving plane's FrozenEncoder. (Defined inline for the same reason this
/// interface keeps no out-of-line virtuals: core implements adapters
/// against eval and must not need eval's objects at link time.)
inline data::Batch MakeModeBatch(
    const std::vector<const traj::Trajectory*>& batch, EncodeMode mode) {
  START_CHECK(!batch.empty());
  std::vector<data::View> views;
  views.reserve(batch.size());
  for (const auto* t : batch) {
    views.push_back(mode == EncodeMode::kDepartureOnly ? data::MakeEtaView(*t)
                                                       : data::MakeView(*t));
  }
  return data::MakeBatch(views);
}

/// \brief The shared corpus-embedding loop behind every EmbedAll.
///
/// Builds a deterministic length-bucketed plan over `trajs` (corpus order
/// in, so embeddings never depend on scheduling), calls `encode` per batch
/// (must return dense-compactable [B, dim] rows), and scatters rows back to
/// corpus positions. Keeping this in one place means the eval harness and
/// serve::FrozenEncoder cannot drift apart in how a corpus is embedded.
std::vector<float> EmbedAllWith(
    int64_t dim, const std::vector<traj::Trajectory>& trajs,
    int64_t batch_size,
    const std::function<
        tensor::Tensor(const std::vector<const traj::Trajectory*>&)>& encode);

}  // namespace start::eval

#endif  // START_EVAL_ENCODER_H_
