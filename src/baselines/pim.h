#ifndef START_BASELINES_PIM_H_
#define START_BASELINES_PIM_H_

#include <memory>
#include <vector>

#include "baselines/base.h"
#include "baselines/transformer.h"
#include "nn/layers.h"
#include "nn/rnn.h"

namespace start::baselines {

/// Configuration for PIM / PIM-TF.
struct PimConfig {
  int64_t d = 64;
  int64_t layers = 2;   ///< Transformer layers (PIM-TF only).
  int64_t heads = 4;    ///< Transformer heads (PIM-TF only).
  int64_t max_len = 130;
  uint64_t seed = 29;
  /// node2vec initialisation of the road table (row-major [V, d]).
  std::vector<float> road_embedding_init;
};

/// \brief PIM [18]: node2vec road representations + LSTM encoder trained
/// with local/global mutual-information maximisation (InfoNCE).
/// Representation = LSTM final hidden state.
class Pim : public SequenceBaseline {
 public:
  Pim(const PimConfig& config, const roadnet::RoadNetwork* net,
      common::Rng* rng);

  int64_t dim() const override { return d_; }
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 private:
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  int64_t d_;
  const roadnet::RoadNetwork* net_;
  int64_t pad_id_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Lstm> lstm_;
};

/// \brief PIM-TF: PIM with the LSTM replaced by a Transformer encoder
/// (mean-pooled global representation), same mutual-information task.
class PimTf : public SequenceBaseline {
 public:
  PimTf(const PimConfig& config, const roadnet::RoadNetwork* net,
        common::Rng* rng);

  int64_t dim() const override { return backbone_->d(); }
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 private:
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  std::unique_ptr<TokenTransformer> backbone_;
};

}  // namespace start::baselines

#endif  // START_BASELINES_PIM_H_
