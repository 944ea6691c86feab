#ifndef START_SERVE_FROZEN_ENCODER_H_
#define START_SERVE_FROZEN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/start_model.h"
#include "eval/encoder.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace start::serve {

/// Numeric regime of a frozen engine. kFloat32 is the bitwise-reference
/// path; kInt8 quantizes every stage-2 transformer projection Linear
/// (attention wq/wk/wv/wo and FFN fc1/fc2) to per-row-scaled int8 with the
/// tensor::qgemm kernels, keeping layernorm, softmax, activations, and all
/// non-Linear parameters in f32 (see ARCHITECTURE.md "Quantized serving").
enum class Precision { kFloat32, kInt8 };

struct FrozenEncoderOptions {
  Precision precision = Precision::kFloat32;
};

/// \brief Immutable inference snapshot of a pre-trained START model: the
/// serving plane's engine.
///
/// A FrozenEncoder is built once from a core/checkpoint artifact and then
/// never mutates:
///  - parameters are loaded dense and stripped of gradient buffers, and
///    `requires_grad` is cleared everywhere, so no encode ever records
///    autograd state or allocates grad memory;
///  - dropout is off (eval mode) and stays off;
///  - the stage-1 TPE-GAT road representations AND the extended token
///    lookup table ([V+2, d]: roads, [MASK], padding) are precomputed at
///    load time, so a request pays only the stage-2 transformer forward;
///    stage 1 and the MLM head are then freed
///    (StartModel::ReleaseTrainingOnlyModules).
///
/// Thread-safety contract: every const method may be called concurrently
/// from any number of threads with no external synchronisation. This holds
/// because the snapshot is genuinely immutable after Load returns — encode
/// paths share the weights read-only, gradient mode is thread-local, and
/// scratch buffers come from the thread-safe global BufferPool. (Verified
/// under TSan by tests/serve_concurrency_test.cc.)
///
/// Load is the library's pure-Status artifact boundary: a missing, truncated,
/// corrupt, or architecturally mismatched checkpoint file returns an error —
/// it never CHECK-aborts the process on bad user input.
class FrozenEncoder {
 public:
  /// \brief Loads a model checkpoint (SaveModelCheckpoint / core::Pretrain
  /// artifact) into a frozen snapshot.
  ///
  /// `config` describes the artifact's architecture; `net` / `transfer` must
  /// be the road network the model was trained on and must outlive the
  /// encoder. Returns InvalidArgument/IOError/NotFound on unreadable or
  /// mismatched artifacts.
  static common::Result<std::unique_ptr<FrozenEncoder>> Load(
      const std::string& checkpoint_path, const core::StartConfig& config,
      const roadnet::RoadNetwork* net,
      const roadnet::TransferProbability* transfer,
      const FrozenEncoderOptions& options = {});

  /// \brief Persists this engine as a serving-only snapshot (~2-4x smaller
  /// than the training checkpoint): quantized Linears as int8 records, the
  /// precomputed extended table and all matrix-shaped parameters (embedding
  /// tables, unquantized weights) as f16, and 1-D vectors (biases, layernorm
  /// gamma/beta) as exact f32.
  /// Stage-1 (TPE-GAT / road table) and the MLM head are dropped entirely —
  /// a snapshot can serve but never resume training. Deterministic: the same
  /// engine state always writes the same bytes.
  common::Status SaveSnapshot(const std::string& path);

  /// \brief Loads a SaveSnapshot artifact. Skips stage-1 recomputation (the
  /// extended table comes from the file), so it is also much faster than
  /// Load. Same pure-Status boundary: corrupt, truncated, mismatched, or
  /// non-finite-scale artifacts return an error, never crash.
  static common::Result<std::unique_ptr<FrozenEncoder>> LoadSnapshot(
      const std::string& snapshot_path, const core::StartConfig& config,
      const roadnet::RoadNetwork* net,
      const roadnet::TransferProbability* transfer);

  /// Representation dimensionality d.
  int64_t dim() const { return model_->config().d; }

  /// Longest trajectory (in roads) this engine can encode.
  int64_t max_len() const { return model_->config().max_len; }

  /// Architecture of the loaded artifact.
  const core::StartConfig& config() const { return model_->config(); }

  /// Numeric regime this engine runs in.
  Precision precision() const { return precision_; }

  /// Number of Linear layers running the int8 path (0 under kFloat32).
  int64_t quantized_layer_count() const { return quantized_layers_; }

  /// \brief Encodes a batch of trajectories; returns dense [B, dim].
  ///
  /// Thread-safe. Batch composition does not change results: each row is
  /// bitwise identical to encoding that trajectory alone (padding positions
  /// are excluded by hard attention masking), which is what lets the
  /// EmbeddingService coalesce unrelated requests. Trajectories must be
  /// non-empty and at most max_len() roads — use Validate() to pre-screen
  /// user-supplied input; EncodeBatch itself treats violations as
  /// programming errors.
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) const;

  /// Request-level input screening for user-supplied trajectories.
  common::Status Validate(const traj::Trajectory& t) const;

  /// \brief Embeds a corpus grad-free; row-major [n, dim].
  ///
  /// The serving counterpart of eval::TrajectoryEncoder::EmbedAll: same
  /// length-bucketed deterministic plan, but running on the frozen engine
  /// (no autograd bookkeeping, table precomputed once at load).
  std::vector<float> EmbedAll(const std::vector<traj::Trajectory>& trajs,
                              eval::EncodeMode mode,
                              int64_t batch_size = 64) const;

 private:
  FrozenEncoder() = default;

  std::unique_ptr<core::StartModel> model_;
  tensor::Tensor ext_table_;  ///< Precomputed [V+2, d] token lookup table.
  Precision precision_ = Precision::kFloat32;
  int64_t quantized_layers_ = 0;
};

}  // namespace start::serve

#endif  // START_SERVE_FROZEN_ENCODER_H_
