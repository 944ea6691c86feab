#ifndef START_CORE_START_MODEL_H_
#define START_CORE_START_MODEL_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/tpe_gat.h"
#include "data/batch.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "roadnet/road_network.h"

namespace start::core {

/// \brief Output of the trajectory encoder.
struct EncoderOutput {
  tensor::Tensor sequence;  ///< [B, L+1, d] — position 0 is the [CLS] slot.
  tensor::Tensor cls;       ///< [B, d] pooled trajectory representations p_i.
};

/// \brief The full START model: TPE-GAT road encoder (stage 1) plus the
/// Time-Aware Trajectory Encoder (stage 2), Sec. III of the paper.
///
/// The model owns every learnable component used by both self-supervised
/// tasks: road/mask/CLS embeddings, minute-of-day and day-of-week tables,
/// the adaptive time-interval transform (Eq. 9), the Transformer stack, and
/// the masked-recovery output head (Eq. 12).
class StartModel : public nn::Module {
 public:
  StartModel(const StartConfig& config, const roadnet::RoadNetwork* net,
             const roadnet::TransferProbability* transfer, common::Rng* rng);

  /// Runs stage 1 and returns the road representations r_i [V, d].
  tensor::Tensor ComputeRoadReps() const;

  /// Encodes a padded batch (stage 2). The batch's sentinel road ids
  /// (kMaskRoad / kPadRoad) select the [MASK] embedding / a zero row.
  EncoderOutput Encode(const data::Batch& batch) const;

  /// Same, but with stage 1 already evaluated: `road_reps` is the
  /// `ComputeRoadReps()` output. A training step that encodes several
  /// batches under the same parameters (masked + contrastive) computes the
  /// road representations once and shares them — gradients flow into the
  /// GAT from every batch that used the tensor.
  EncoderOutput Encode(const data::Batch& batch,
                       const tensor::Tensor& road_reps) const;

  /// Extended token lookup table [V+2, d]: rows [0, V) are `road_reps`,
  /// row V the [MASK] embedding, row V+1 a zero row for padding. Encode
  /// assembles this per call; inference consumers whose parameters cannot
  /// change (serve::FrozenEncoder) build it once and feed EncodeWithTable,
  /// dropping an O(V·d) copy from every request.
  tensor::Tensor BuildExtendedTable(const tensor::Tensor& road_reps) const;

  /// Stage 2 with the extended lookup table already assembled. `ext` must be
  /// a `BuildExtendedTable` result for the current parameters.
  EncoderOutput EncodeWithTable(const data::Batch& batch,
                                const tensor::Tensor& ext) const;

  /// Masked-recovery logits [num_masked, |V|] for the listed masked slots
  /// ((b, pos) positions are 0-based into the original, CLS-less sequence).
  tensor::Tensor MaskedLogits(const EncoderOutput& out,
                              const std::vector<int64_t>& flat_positions,
                              int64_t max_len) const;

  /// \brief Frees stage 1 (the TPE-GAT and its road features) and the MLM
  /// head, which a frozen engine never reads once its extended table is
  /// built. Afterwards only BuildExtendedTable and EncodeWithTable may run.
  void ReleaseTrainingOnlyModules();

  const StartConfig& config() const { return config_; }
  int64_t num_roads() const { return num_roads_; }

 private:
  /// Builds the additive attention bias: padding mask + ∆̃ (Eqs. 7–9).
  tensor::Tensor BuildScoreBias(const data::Batch& batch) const;

  StartConfig config_;
  int64_t num_roads_;

  // Stage 1: either the TPE-GAT over road features, or a plain learnable
  // road-embedding table (the "w/o TPE-GAT" / "w/ Node2vec" ablations).
  std::unique_ptr<TpeGat> gat_;
  tensor::Tensor road_features_;   ///< Constant [V, F] input to the GAT.
  tensor::Tensor road_table_;      ///< Learnable [V, d] (ablations only).

  // Stage 2 embeddings.
  tensor::Tensor mask_embedding_;  ///< [1, d] for the [MASK] token.
  tensor::Tensor cls_embedding_;   ///< [1, d] for the [CLS] placeholder.
  std::unique_ptr<nn::Embedding> minute_embedding_;  ///< 1441 rows (0=[MASKT]).
  std::unique_ptr<nn::Embedding> dow_embedding_;     ///< 8 rows (0=[MASKT]).
  tensor::Tensor positional_;      ///< Constant sinusoidal [max_len+1, d].

  // Adaptive interval transform (Eq. 9).
  tensor::Tensor interval_w1_;  ///< [1, k]
  tensor::Tensor interval_w2_;  ///< [k, 1]

  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;

  // Masked-recovery head (Eq. 12).
  std::unique_ptr<nn::Linear> mlm_head_;
};

}  // namespace start::core

#endif  // START_CORE_START_MODEL_H_
