#ifndef START_BASELINES_TRANSFORMER_H_
#define START_BASELINES_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "baselines/base.h"
#include "nn/attention.h"
#include "nn/layers.h"

namespace start::baselines {

/// Width configuration shared by the Transformer-family baselines.
struct TransformerBaselineConfig {
  int64_t d = 64;
  int64_t layers = 2;
  int64_t heads = 4;
  int64_t max_len = 130;
  float dropout = 0.1f;
  uint64_t seed = 23;
  /// Optional node2vec initialisation of the road-embedding table
  /// (row-major [V, d]); used by Toast.
  std::vector<float> road_embedding_init;
};

/// \brief Shared token-Transformer backbone: road embedding table (+[MASK],
/// +[PAD], +[CLS] rows), sinusoidal positions, padding-masked encoder stack.
/// Deliberately time-blind — these baselines "consider trajectories as
/// ordinary road sequences" (Sec. I).
class TokenTransformer : public nn::Module {
 public:
  TokenTransformer(const TransformerBaselineConfig& config, int64_t num_roads,
                   common::Rng* rng);

  /// Token ids: roads in [0, V); kMaskToken/kPadToken sentinels below.
  int64_t mask_id() const { return num_roads_; }
  int64_t pad_id() const { return num_roads_ + 1; }
  int64_t cls_id() const { return num_roads_ + 2; }

  /// Encodes padded token ids [B, L] (already including a CLS slot if the
  /// caller wants one). Returns [B, L, d].
  tensor::Tensor Forward(const std::vector<int64_t>& ids,
                         const std::vector<int64_t>& lengths, int64_t batch,
                         int64_t max_len) const;

  int64_t d() const { return d_; }
  int64_t num_roads() const { return num_roads_; }

 private:
  int64_t d_;
  int64_t num_roads_;
  float dropout_;
  std::unique_ptr<nn::Embedding> embedding_;
  tensor::Tensor positional_;
  std::vector<std::unique_ptr<nn::TransformerEncoderLayer>> layers_;
};

/// \brief Transformer baseline [11]: MLM pre-training (independent 15%
/// masking), mean-pooled representation.
class TransformerMlm : public SequenceBaseline {
 public:
  TransformerMlm(const TransformerBaselineConfig& config,
                 const roadnet::RoadNetwork* net, common::Rng* rng);

  int64_t dim() const override { return backbone_->d(); }
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 protected:
  /// Independent per-token masking; returns flat positions + targets.
  void MaskTokens(std::vector<int64_t>* ids, int64_t batch, int64_t max_len,
                  const std::vector<int64_t>& lengths, double ratio,
                  common::Rng* rng, std::vector<int64_t>* positions,
                  std::vector<int64_t>* targets) const;
  /// Masked-token cross-entropy of one batch (15% masking drawn from
  /// `rng`); an undefined Tensor when no token was masked.
  tensor::Tensor MlmLoss(const std::vector<const traj::Trajectory*>& batch,
                         common::Rng* rng);
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;

  const roadnet::RoadNetwork* net_;
  std::unique_ptr<TokenTransformer> backbone_;
  std::unique_ptr<nn::Linear> mlm_head_;
};

/// \brief BERT baseline [22]: MLM plus the segment-order discrimination task
/// described in Sec. IV-B ((T1,T2) positive vs (T2,T1) negative), with a
/// [CLS] pooled representation.
class Bert : public TransformerMlm {
 public:
  Bert(const TransformerBaselineConfig& config,
       const roadnet::RoadNetwork* net, common::Rng* rng);

  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 protected:
  /// Encodes with a prepended [CLS]; returns the [CLS] row [B, d].
  tensor::Tensor EncodeCls(const std::vector<int64_t>& ids, int64_t batch,
                           int64_t max_len,
                           const std::vector<int64_t>& lengths) const;
  /// MLM step, then the binary [CLS] step: each row is kept (label 1) or
  /// replaced by MakeNegative (label 0) with probability 1/2.
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  /// Rewrites row `b` of `padded` into the binary task's negative; BERT
  /// swaps its two halves, (T1, T2) -> (T2, T1).
  virtual void MakeNegative(PaddedRoads* padded, int64_t b,
                            common::Rng* rng) const;

  std::unique_ptr<nn::Linear> order_head_;
};

/// \brief Toast baseline [17]: node2vec-initialised road embeddings,
/// Transformer with MLM + trajectory discrimination (real vs corrupted),
/// [CLS] pooling.
class Toast : public Bert {
 public:
  Toast(const TransformerBaselineConfig& config,
        const roadnet::RoadNetwork* net, common::Rng* rng);

 private:
  /// Replaces 30% of the row's roads with uniformly random roads.
  void MakeNegative(PaddedRoads* padded, int64_t b,
                    common::Rng* rng) const override;
};

}  // namespace start::baselines

#endif  // START_BASELINES_TRANSFORMER_H_
