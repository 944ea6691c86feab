#include "baselines/transformer.h"

#include <algorithm>

#include "common/check.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace start::baselines {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// TokenTransformer
// ---------------------------------------------------------------------------

TokenTransformer::TokenTransformer(const TransformerBaselineConfig& config,
                                   int64_t num_roads, common::Rng* rng)
    : d_(config.d), num_roads_(num_roads), dropout_(config.dropout) {
  embedding_ = std::make_unique<nn::Embedding>(num_roads + 3, d_, rng);
  if (!config.road_embedding_init.empty()) {
    START_CHECK_EQ(static_cast<int64_t>(config.road_embedding_init.size()),
                   num_roads * d_);
    std::copy(config.road_embedding_init.begin(),
              config.road_embedding_init.end(), embedding_->table().data());
  }
  RegisterModule("embedding", embedding_.get());
  positional_ = nn::SinusoidalPositionalEncoding(config.max_len + 1, d_);
  for (int64_t l = 0; l < config.layers; ++l) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        d_, config.heads, d_, rng, config.dropout));
    RegisterModule("layer" + std::to_string(l), layers_.back().get());
  }
}

Tensor TokenTransformer::Forward(const std::vector<int64_t>& ids,
                                 const std::vector<int64_t>& lengths,
                                 int64_t batch, int64_t max_len) const {
  START_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * max_len);
  Tensor x = embedding_->Forward(ids);  // [B*L, d]
  std::vector<int64_t> pos_ids(ids.size());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < max_len; ++i) {
      pos_ids[static_cast<size_t>(b * max_len + i)] = i;
    }
  }
  x = tensor::Add(x, tensor::GatherRows(positional_, pos_ids));
  x = tensor::Reshape(x, Shape({batch, max_len, d_}));
  x = tensor::Dropout(x, dropout_, training(), dropout_rng());
  const Tensor bias = nn::MakePaddingBias(lengths, max_len);
  for (const auto& layer : layers_) x = layer->Forward(x, bias);
  return x;
}

// ---------------------------------------------------------------------------
// TransformerMlm
// ---------------------------------------------------------------------------

TransformerMlm::TransformerMlm(const TransformerBaselineConfig& config,
                               const roadnet::RoadNetwork* net,
                               common::Rng* rng)
    : net_(net) {
  backbone_ =
      std::make_unique<TokenTransformer>(config, net->num_segments(), rng);
  mlm_head_ =
      std::make_unique<nn::Linear>(config.d, net->num_segments(), rng);
  RegisterModule("backbone", backbone_.get());
  RegisterModule("mlm_head", mlm_head_.get());
}

Tensor TransformerMlm::EncodeBatch(
    const std::vector<const traj::Trajectory*>& batch,
    eval::EncodeMode mode) {
  (void)mode;
  const PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  const Tensor seq = backbone_->Forward(padded.ids, padded.lengths,
                                        padded.batch_size, padded.max_len);
  return MeanPoolValid(seq, padded.lengths);
}

void TransformerMlm::MaskTokens(std::vector<int64_t>* ids, int64_t batch,
                                int64_t max_len,
                                const std::vector<int64_t>& lengths,
                                double ratio, common::Rng* rng,
                                std::vector<int64_t>* positions,
                                std::vector<int64_t>* targets) const {
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < lengths[static_cast<size_t>(b)]; ++i) {
      if (!rng->Bernoulli(ratio)) continue;
      const size_t idx = static_cast<size_t>(b * max_len + i);
      positions->push_back(static_cast<int64_t>(idx));
      targets->push_back((*ids)[idx]);
      (*ids)[idx] = backbone_->mask_id();
    }
  }
}

Tensor TransformerMlm::MlmLoss(
    const std::vector<const traj::Trajectory*>& batch, common::Rng* rng) {
  PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  std::vector<int64_t> positions, targets;
  MaskTokens(&padded.ids, padded.batch_size, padded.max_len, padded.lengths,
             0.15, rng, &positions, &targets);
  if (positions.empty()) return Tensor();
  const Tensor seq = backbone_->Forward(padded.ids, padded.lengths,
                                        padded.batch_size, padded.max_len);
  const Tensor flat = tensor::Reshape(
      seq, Shape({padded.batch_size * padded.max_len, backbone_->d()}));
  const Tensor logits =
      mlm_head_->Forward(tensor::GatherRows(flat, positions));
  return tensor::CrossEntropyWithLogits(logits, targets);
}

double TransformerMlm::TrainBatch(
    const std::vector<const traj::Trajectory*>& batch, nn::AdamW* opt,
    common::Rng* rng) {
  const Tensor loss = MlmLoss(batch, rng);
  return loss.defined() ? nn::TrainStep(opt, loss) : 0.0;
}

// ---------------------------------------------------------------------------
// Bert
// ---------------------------------------------------------------------------

Bert::Bert(const TransformerBaselineConfig& config,
           const roadnet::RoadNetwork* net, common::Rng* rng)
    : TransformerMlm(config, net, rng) {
  order_head_ = std::make_unique<nn::Linear>(config.d, 1, rng);
  RegisterModule("order_head", order_head_.get());
}

Tensor Bert::EncodeCls(const std::vector<int64_t>& ids, int64_t batch,
                       int64_t max_len,
                       const std::vector<int64_t>& lengths) const {
  // Prepend [CLS] to every sequence.
  const int64_t l1 = max_len + 1;
  std::vector<int64_t> with_cls(static_cast<size_t>(batch * l1),
                                backbone_->pad_id());
  std::vector<int64_t> lens(lengths.size());
  for (int64_t b = 0; b < batch; ++b) {
    with_cls[static_cast<size_t>(b * l1)] = backbone_->cls_id();
    for (int64_t i = 0; i < max_len; ++i) {
      with_cls[static_cast<size_t>(b * l1 + i + 1)] =
          ids[static_cast<size_t>(b * max_len + i)];
    }
    lens[static_cast<size_t>(b)] = lengths[static_cast<size_t>(b)] + 1;
  }
  const Tensor seq = backbone_->Forward(with_cls, lens, batch, l1);
  return tensor::Reshape(tensor::Slice(seq, 1, 0, 1),
                         Shape({batch, backbone_->d()}));
}

Tensor Bert::EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                         eval::EncodeMode mode) {
  (void)mode;
  const PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  return EncodeCls(padded.ids, padded.batch_size, padded.max_len,
                   padded.lengths);
}

double Bert::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                        nn::AdamW* opt, common::Rng* rng) {
  // Task 1: MLM (one optimizer step).
  const double mlm = TransformerMlm::TrainBatch(batch, opt, rng);
  // Task 2: binary [CLS] discrimination of each row against a negative made
  // by MakeNegative with probability 1/2 (a second optimizer step).
  PaddedRoads padded = PadRoadBatch(batch, backbone_->pad_id());
  std::vector<float> labels(batch.size());
  for (int64_t b = 0; b < padded.batch_size; ++b) {
    const bool positive = rng->Bernoulli(0.5);
    labels[static_cast<size_t>(b)] = positive ? 1.0f : 0.0f;
    if (!positive) MakeNegative(&padded, b, rng);
  }
  const Tensor cls = EncodeCls(padded.ids, padded.batch_size, padded.max_len,
                               padded.lengths);
  return mlm + nn::TrainStep(opt, tensor::BceWithLogits(
                                      order_head_->Forward(cls), labels));
}

void Bert::MakeNegative(PaddedRoads* padded, int64_t b,
                        common::Rng* rng) const {
  (void)rng;  // Segment order: (T2, T1) is fully determined by T.
  // Rotate the sequence around its midpoint.
  const int64_t len = padded->lengths[static_cast<size_t>(b)];
  const auto first = padded->ids.begin() + b * padded->max_len;
  std::rotate(first, first + len / 2, first + len);
}

// ---------------------------------------------------------------------------
// Toast
// ---------------------------------------------------------------------------

Toast::Toast(const TransformerBaselineConfig& config,
             const roadnet::RoadNetwork* net, common::Rng* rng)
    : Bert(config, net, rng) {}

void Toast::MakeNegative(PaddedRoads* padded, int64_t b,
                         common::Rng* rng) const {
  // Trajectory discrimination: replace 30% of the roads with random roads.
  const int64_t len = padded->lengths[static_cast<size_t>(b)];
  for (int64_t i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.3)) {
      padded->ids[static_cast<size_t>(b * padded->max_len + i)] =
          rng->UniformInt(net_->num_segments());
    }
  }
}

}  // namespace start::baselines
