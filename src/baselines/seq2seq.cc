#include "baselines/seq2seq.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace start::baselines {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Traj2Vec
// ---------------------------------------------------------------------------

Traj2Vec::Traj2Vec(const Seq2SeqConfig& config,
                   const roadnet::RoadNetwork* net, common::Rng* rng)
    : d_(config.d),
      feature_dim_(roadnet::RoadNetwork::FeatureDim() + 2),
      net_(net),
      road_features_(net->BuildFeatureMatrix()) {
  encoder_ = std::make_unique<nn::Gru>(feature_dim_, d_, rng);
  decoder_ = std::make_unique<nn::Gru>(d_, d_, rng);
  reconstruct_ = std::make_unique<nn::Linear>(d_, feature_dim_, rng);
  RegisterModule("encoder", encoder_.get());
  RegisterModule("decoder", decoder_.get());
  RegisterModule("reconstruct", reconstruct_.get());
}

Tensor Traj2Vec::BuildFeatures(const std::vector<const traj::Trajectory*>& b,
                               eval::EncodeMode mode,
                               std::vector<int64_t>* lengths) const {
  const int64_t fd = roadnet::RoadNetwork::FeatureDim();
  int64_t max_len = 0;
  for (const auto* t : b) max_len = std::max(max_len, t->size());
  const int64_t bs = static_cast<int64_t>(b.size());
  std::vector<float> data(
      static_cast<size_t>(bs * max_len * feature_dim_), 0.0f);
  lengths->resize(static_cast<size_t>(bs));
  for (int64_t s = 0; s < bs; ++s) {
    const auto* t = b[static_cast<size_t>(s)];
    (*lengths)[static_cast<size_t>(s)] = t->size();
    for (int64_t i = 0; i < t->size(); ++i) {
      float* row =
          data.data() + (s * max_len + i) * feature_dim_;
      const int64_t road = t->roads[static_cast<size_t>(i)];
      std::copy(road_features_.data() + road * fd,
                road_features_.data() + (road + 1) * fd, row);
      if (mode == eval::EncodeMode::kFull) {
        // Offset from departure (hours) and step travel time (minutes).
        const int64_t t_in = t->timestamps[static_cast<size_t>(i)];
        const int64_t t_out =
            i + 1 < t->size() ? t->timestamps[static_cast<size_t>(i + 1)]
                              : t->end_time;
        row[fd] = static_cast<float>(t_in - t->departure_time()) / 3600.0f;
        row[fd + 1] = static_cast<float>(t_out - t_in) / 60.0f;
      }
    }
  }
  return Tensor::FromVector(Shape({bs, max_len, feature_dim_}),
                            std::move(data));
}

Tensor Traj2Vec::EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                             eval::EncodeMode mode) {
  std::vector<int64_t> lengths;
  const Tensor features = BuildFeatures(batch, mode, &lengths);
  return encoder_->Forward(features, lengths).last_hidden;
}

double Traj2Vec::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                           nn::AdamW* opt, common::Rng* rng) {
  (void)rng;  // The reconstruction task draws nothing.
  std::vector<int64_t> lengths;
  const Tensor features =
      BuildFeatures(batch, eval::EncodeMode::kFull, &lengths);
  const Tensor rep = encoder_->Forward(features, lengths).last_hidden;
  // Decoder consumes the repeated representation at every step.
  const int64_t bs = features.dim(0), l = features.dim(1);
  std::vector<Tensor> repeated(static_cast<size_t>(l),
                               tensor::Reshape(rep, Shape({bs, 1, d_})));
  const Tensor dec_in = tensor::Concat(repeated, 1);
  const Tensor dec_out = decoder_->Forward(dec_in, lengths).outputs;
  const Tensor recon = reconstruct_->Forward(dec_out);
  // MSE only over valid positions: zero both sides on padding.
  std::vector<float> mask(static_cast<size_t>(bs * l * feature_dim_), 0.0f);
  std::vector<float> target(static_cast<size_t>(bs * l * feature_dim_), 0.0f);
  for (int64_t s = 0; s < bs; ++s) {
    for (int64_t i = 0; i < lengths[static_cast<size_t>(s)]; ++i) {
      for (int64_t f = 0; f < feature_dim_; ++f) {
        const size_t idx = static_cast<size_t>((s * l + i) * feature_dim_ + f);
        mask[idx] = 1.0f;
        target[idx] = features.data()[idx];
      }
    }
  }
  const Tensor masked = tensor::Mul(
      recon, Tensor::FromVector(features.shape(), std::move(mask)));
  return nn::TrainStep(opt, tensor::MseLoss(masked, target));
}

// ---------------------------------------------------------------------------
// T2Vec
// ---------------------------------------------------------------------------

T2Vec::T2Vec(const Seq2SeqConfig& config, const roadnet::RoadNetwork* net,
             common::Rng* rng)
    : d_(config.d),
      net_(net),
      pad_id_(net->num_segments()) {
  embedding_ =
      std::make_unique<nn::Embedding>(net->num_segments() + 1, d_, rng);
  encoder_ = std::make_unique<nn::Gru>(d_, d_, rng);
  decoder_ = std::make_unique<nn::Gru>(d_, d_, rng);
  token_head_ =
      std::make_unique<nn::Linear>(d_, net->num_segments(), rng);
  RegisterModule("embedding", embedding_.get());
  RegisterModule("encoder", encoder_.get());
  RegisterModule("decoder", decoder_.get());
  RegisterModule("token_head", token_head_.get());
}

Tensor T2Vec::EmbedRoads(const PaddedRoads& padded) const {
  const Tensor flat = embedding_->Forward(padded.ids);
  return tensor::Reshape(flat,
                         Shape({padded.batch_size, padded.max_len, d_}));
}

Tensor T2Vec::EncodeBatch(const std::vector<const traj::Trajectory*>& batch,
                          eval::EncodeMode mode) {
  (void)mode;  // Road tokens carry no timestamps; nothing to hide.
  const PaddedRoads padded = PadRoadBatch(batch, pad_id_);
  return encoder_->Forward(EmbedRoads(padded), padded.lengths).last_hidden;
}

Tensor T2Vec::Decode(const PaddedRoads& padded) const {
  const Tensor rep =
      encoder_->Forward(EmbedRoads(padded), padded.lengths).last_hidden;
  // Teacher forcing: decoder input is the shifted target sequence, with
  // the trajectory representation injected as step-0 input.
  PaddedRoads shifted = padded;
  for (int64_t s = 0; s < padded.batch_size; ++s) {
    for (int64_t i = padded.max_len - 1; i > 0; --i) {
      shifted.ids[static_cast<size_t>(s * padded.max_len + i)] =
          padded.ids[static_cast<size_t>(s * padded.max_len + i - 1)];
    }
    shifted.ids[static_cast<size_t>(s * padded.max_len)] = pad_id_;
  }
  Tensor dec_in = EmbedRoads(shifted);
  // Add the representation to every step (conditioning).
  dec_in = tensor::Add(
      dec_in, tensor::Reshape(rep, Shape({padded.batch_size, 1, d_})));
  return decoder_->Forward(dec_in, padded.lengths).outputs;
}

Tensor T2Vec::TokenLogits(const PaddedRoads& padded,
                          const Tensor& dec_out) const {
  return tensor::Reshape(
      token_head_->Forward(dec_out),
      Shape({padded.batch_size * padded.max_len, net_->num_segments()}));
}

double T2Vec::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                         nn::AdamW* opt, common::Rng* rng) {
  const PaddedRoads padded = PadRoadBatch(batch, pad_id_);
  const Tensor logits = TokenLogits(padded, Decode(padded));
  // Hard targets (pad -> ignore) plus a spatially-smoothed target where
  // each position also predicts a sampled graph neighbour (the
  // spatial-proximity aware loss of t2vec).
  std::vector<int64_t> hard(padded.ids.size(), -1);
  std::vector<int64_t> soft(padded.ids.size(), -1);
  for (int64_t s = 0; s < padded.batch_size; ++s) {
    for (int64_t i = 0; i < padded.lengths[static_cast<size_t>(s)]; ++i) {
      const size_t idx = static_cast<size_t>(s * padded.max_len + i);
      const int64_t road = padded.ids[idx];
      hard[idx] = road;
      const auto neighbors = net_->OutSpan(road);
      if (!neighbors.empty()) {
        soft[idx] = neighbors[rng->UniformInt(neighbors.size())];
      }
    }
  }
  return nn::TrainStep(
      opt,
      tensor::Add(
          tensor::Scale(tensor::CrossEntropyWithLogits(logits, hard, -1),
                        0.8f),
          tensor::Scale(tensor::CrossEntropyWithLogits(logits, soft, -1),
                        0.2f)));
}

// ---------------------------------------------------------------------------
// Trembr
// ---------------------------------------------------------------------------

Trembr::Trembr(const Seq2SeqConfig& config, const roadnet::RoadNetwork* net,
               common::Rng* rng)
    : T2Vec(config, net, rng) {
  time_head_ = std::make_unique<nn::Linear>(d_, 1, rng);
  RegisterModule("time_head", time_head_.get());
}

double Trembr::TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                          nn::AdamW* opt, common::Rng* rng) {
  (void)rng;  // Both reconstruction targets are deterministic.
  const PaddedRoads padded = PadRoadBatch(batch, pad_id_);
  const Tensor dec_out = Decode(padded);
  // Road-token loss.
  std::vector<int64_t> hard(padded.ids.size(), -1);
  for (int64_t s = 0; s < padded.batch_size; ++s) {
    for (int64_t i = 0; i < padded.lengths[static_cast<size_t>(s)]; ++i) {
      const size_t idx = static_cast<size_t>(s * padded.max_len + i);
      hard[idx] = padded.ids[idx];
    }
  }
  const Tensor token_loss = tensor::CrossEntropyWithLogits(
      TokenLogits(padded, dec_out), hard, -1);
  // Timestamp reconstruction: per-step travel time (minutes), masked MSE.
  const Tensor pred_time = time_head_->Forward(dec_out);  // [B, L, 1]
  std::vector<float> mask(
      static_cast<size_t>(padded.batch_size * padded.max_len), 0.0f);
  std::vector<float> target(mask.size(), 0.0f);
  for (int64_t s = 0; s < padded.batch_size; ++s) {
    const auto* t = batch[static_cast<size_t>(s)];
    for (int64_t i = 0; i < t->size(); ++i) {
      const size_t idx = static_cast<size_t>(s * padded.max_len + i);
      const int64_t t_in = t->timestamps[static_cast<size_t>(i)];
      const int64_t t_out = i + 1 < t->size()
                                ? t->timestamps[static_cast<size_t>(i + 1)]
                                : t->end_time;
      mask[idx] = 1.0f;
      target[idx] = static_cast<float>(t_out - t_in) / 60.0f;
    }
  }
  const Shape flat_shape({padded.batch_size * padded.max_len, 1});
  const Tensor masked_pred =
      tensor::Mul(tensor::Reshape(pred_time, flat_shape),
                  Tensor::FromVector(flat_shape, std::move(mask)));
  const Tensor time_loss = tensor::MseLoss(masked_pred, target);
  return nn::TrainStep(
      opt, tensor::Add(token_loss, tensor::Scale(time_loss, 0.5f)));
}

}  // namespace start::baselines
