#ifndef START_BASELINES_SEQ2SEQ_H_
#define START_BASELINES_SEQ2SEQ_H_

#include <memory>
#include <vector>

#include "baselines/base.h"
#include "nn/layers.h"
#include "nn/rnn.h"

namespace start::baselines {

/// Width configuration shared by the encoder-decoder baselines.
struct Seq2SeqConfig {
  int64_t d = 64;
};

/// \brief traj2vec [9]: converts trajectories to feature sequences (road
/// features + time offsets/durations) and trains a GRU seq2seq autoencoder
/// with an MSE reconstruction loss. Representation = encoder final hidden.
class Traj2Vec : public SequenceBaseline {
 public:
  Traj2Vec(const Seq2SeqConfig& config, const roadnet::RoadNetwork* net,
           common::Rng* rng);

  int64_t dim() const override { return d_; }
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 private:
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  /// [B, L, F+2] feature tensor + lengths; time features zeroed in
  /// kDepartureOnly mode.
  tensor::Tensor BuildFeatures(const std::vector<const traj::Trajectory*>& b,
                               eval::EncodeMode mode,
                               std::vector<int64_t>* lengths) const;

  int64_t d_;
  int64_t feature_dim_;
  const roadnet::RoadNetwork* net_;
  std::vector<float> road_features_;
  std::unique_ptr<nn::Gru> encoder_;
  std::unique_ptr<nn::Gru> decoder_;
  std::unique_ptr<nn::Linear> reconstruct_;
};

/// \brief t2vec [8]: GRU seq2seq over road tokens with a spatial-proximity
/// aware reconstruction loss (neighbour-smoothed token targets).
/// Representation = encoder final hidden.
class T2Vec : public SequenceBaseline {
 public:
  T2Vec(const Seq2SeqConfig& config, const roadnet::RoadNetwork* net,
        common::Rng* rng);

  int64_t dim() const override { return d_; }
  tensor::Tensor EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) override;

 protected:
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  tensor::Tensor EmbedRoads(const PaddedRoads& padded) const;
  /// Teacher-forced decoder outputs [B, L, d]: the decoder reads the
  /// right-shifted road sequence plus the encoder's representation.
  tensor::Tensor Decode(const PaddedRoads& padded) const;
  /// Road-token logits [B*L, |V|] of decoder outputs.
  tensor::Tensor TokenLogits(const PaddedRoads& padded,
                             const tensor::Tensor& dec_out) const;

  int64_t d_;
  const roadnet::RoadNetwork* net_;
  int64_t pad_id_;  ///< = |V|, extra embedding row for padding.
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Gru> encoder_;
  std::unique_ptr<nn::Gru> decoder_;
  std::unique_ptr<nn::Linear> token_head_;
};

/// \brief Trembr [7]: like t2vec, but the decoder reconstructs both roads
/// and per-road travel times (the only time-aware baseline; Sec. V-A).
class Trembr : public T2Vec {
 public:
  Trembr(const Seq2SeqConfig& config, const roadnet::RoadNetwork* net,
         common::Rng* rng);

 private:
  double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                    nn::AdamW* opt, common::Rng* rng) override;
  std::unique_ptr<nn::Linear> time_head_;
};

}  // namespace start::baselines

#endif  // START_BASELINES_SEQ2SEQ_H_
