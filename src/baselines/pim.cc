#include "baselines/pim.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "tensor/ops.h"

namespace start::baselines {

using tensor::Shape;
using tensor::Tensor;

Pim::Pim(const PimConfig& config, const roadnet::RoadNetwork* net,
         common::Rng* rng)
    : d_(config.d), net_(net), pad_id_(net->num_segments()) {
  embedding_ =
      std::make_unique<nn::Embedding>(net->num_segments() + 1, d_, rng);
  if (!config.road_embedding_init.empty()) {
    START_CHECK_EQ(static_cast<int64_t>(config.road_embedding_init.size()),
                   net->num_segments() * d_);
    std::copy(config.road_embedding_init.begin(),
              config.road_embedding_init.end(), embedding_->table().data());
  }
  lstm_ = std::make_unique<nn::Lstm>(d_, d_, rng);
  RegisterModule("embedding", embedding_.get());
  RegisterModule("lstm", lstm_.get());
}

Tensor Pim::EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                        eval::EncodeMode mode) {
  (void)mode;
  const PaddedRoads padded = PadRoadBatch(batch, pad_id_);
  const Tensor emb = tensor::Reshape(
      embedding_->Forward(padded.ids),
      Shape({padded.batch_size, padded.max_len, d_}));
  return lstm_->Forward(emb, padded.lengths).last_hidden;
}

double Pim::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                       nn::AdamW* opt, common::Rng* rng) {
  (void)rng;  // In-batch negatives: nothing to sample.
  const PaddedRoads padded = PadRoadBatch(batch, pad_id_);
  const Tensor emb =
      tensor::Reshape(embedding_->Forward(padded.ids),
                      Shape({padded.batch_size, padded.max_len, d_}));
  const nn::Lstm::Output out = lstm_->Forward(emb, padded.lengths);
  // Mutual information maximisation: global (last hidden) vs local step
  // outputs, in-batch negatives (Sec. IV-B / [18]).
  return nn::TrainStep(
      opt, nn::InfoNceLoss(out.last_hidden, out.outputs, padded.lengths));
}

PimTf::PimTf(const PimConfig& config, const roadnet::RoadNetwork* net,
             common::Rng* rng) {
  TransformerBaselineConfig tf_config;
  tf_config.d = config.d;
  tf_config.layers = config.layers;
  tf_config.heads = config.heads;
  tf_config.max_len = config.max_len;
  tf_config.road_embedding_init = config.road_embedding_init;
  backbone_ =
      std::make_unique<TokenTransformer>(tf_config, net->num_segments(), rng);
  RegisterModule("backbone", backbone_.get());
}

Tensor PimTf::EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                          eval::EncodeMode mode) {
  (void)mode;
  const PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  const Tensor seq = backbone_->Forward(padded.ids, padded.lengths,
                                        padded.batch_size, padded.max_len);
  return MeanPoolValid(seq, padded.lengths);
}

double PimTf::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                         nn::AdamW* opt, common::Rng* rng) {
  (void)rng;  // In-batch negatives: nothing to sample.
  const PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  const Tensor seq = backbone_->Forward(padded.ids, padded.lengths,
                                        padded.batch_size, padded.max_len);
  const Tensor global = MeanPoolValid(seq, padded.lengths);
  return nn::TrainStep(opt, nn::InfoNceLoss(global, seq, padded.lengths));
}

}  // namespace start::baselines
