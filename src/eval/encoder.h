#ifndef START_EVAL_ENCODER_H_
#define START_EVAL_ENCODER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/batch.h"
#include "tensor/tensor.h"
#include "traj/trajectory.h"

namespace start::eval {

/// How much temporal information an encoder may consume.
enum class EncodeMode {
  kFull,           ///< Pre-training / similarity: full timestamps available.
  kDepartureOnly,  ///< ETA fine-tuning protocol (Sec. IV-D2): only the
                   ///< departure time is exposed.
};

/// Inference-time length-bucket granularity (data::BucketBatchPlan) of every
/// embedding path, offline EmbedAll and the serving EmbeddingService alike:
/// trajectories within 4 roads of each other share a batch, so almost no
/// attention compute is spent on padding. Narrower than the training bucket
/// (8) because inference has no shuffling constraint to respect.
inline constexpr int64_t kEmbedBucketWidth = 4;

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

  /// Encodes a batch with gradients: the fine-tuning surface. Inference
  /// goes through EmbedAll. Returns [B, dim].
  virtual tensor::Tensor EncodeBatch(
      const std::vector<const traj::Trajectory*>& batch, EncodeMode mode) = 0;

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
  /// road networks. Default: not supported by this encoder.
  virtual common::Status WarmStart(const std::string& checkpoint_path,
                                   bool allow_missing = false,
                                   bool skip_mismatched = false) {
    (void)allow_missing;
    (void)skip_mismatched;
    return common::Status::Unimplemented(
        "this encoder cannot load checkpoints (" + checkpoint_path + ")");
  }

  /// \brief The inference contract: embeds a corpus without recording
  /// autograd state; returns row-major [n, dim] rows in corpus order.
  ///
  /// The one no-grad entry point. Every embedding consumer goes through it:
  /// the similarity protocols, the frozen-encoder (`finetune_encoder =
  /// false`) train split and the test split of every task in eval/tasks.h.
  /// It puts the encoder in eval mode (SetTraining(false)) and encodes the
  /// deterministic length-bucketed batches of EmbedAllWith. A row is a
  /// function of its trajectory and the parameters alone: it equals that
  /// trajectory encoded alone, whatever else shares its batch. The default
  /// runs EncodeBatch under a NoGradGuard. An override may evaluate
  /// parameter-only work once per call (StartEncoder: stage 1 and the token
  /// table), but caches nothing across calls, so a parameter change is seen
  /// by the next call. serve::FrozenEncoder::EmbedAll is the serving
  /// plane's counterpart over the same loop.
  virtual std::vector<float> EmbedAll(
      const std::vector<traj::Trajectory>& trajs, EncodeMode mode,
      int64_t batch_size = 64);
};

/// Pads a pointer batch into the model-facing data::Batch for an encode
/// mode (full views vs. the departure-only ETA protocol). The single place
/// the mode -> view translation lives; shared by StartEncoder and the
/// serving plane's FrozenEncoder.
data::Batch MakeModeBatch(const std::vector<const traj::Trajectory*>& batch,
                          EncodeMode mode);

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
