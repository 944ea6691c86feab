#include "core/start_model.h"

#include <cmath>

#include "common/check.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace start::core {

using tensor::Shape;
using tensor::Tensor;

StartModel::StartModel(const StartConfig& config,
                       const roadnet::RoadNetwork* net,
                       const roadnet::TransferProbability* transfer,
                       common::Rng* rng)
    : config_(config),
      num_roads_(net->num_segments()) {
  START_CHECK(net != nullptr);
  START_CHECK(net->finalized());
  const int64_t d = config_.d;
  if (config_.use_tpe_gat) {
    std::vector<int64_t> heads = config_.gat_heads;
    heads.resize(static_cast<size_t>(config_.gat_layers), 1);
    for (auto& h : heads) {
      while (h > 1 && d % h != 0) --h;  // keep head counts divisors of d
    }
    gat_ = std::make_unique<TpeGat>(
        net, config_.use_transfer_prob ? transfer : nullptr,
        roadnet::RoadNetwork::FeatureDim(), d, heads,
        config_.use_transfer_prob, rng);
    RegisterModule("tpe_gat", gat_.get());
    road_features_ = Tensor::FromVector(
        Shape({num_roads_, roadnet::RoadNetwork::FeatureDim()}),
        net->BuildFeatureMatrix());
  } else {
    Tensor init;
    if (!config_.road_embedding_init.empty()) {
      START_CHECK_EQ(
          static_cast<int64_t>(config_.road_embedding_init.size()),
          num_roads_ * d);
      init = Tensor::FromVector(Shape({num_roads_, d}),
                                config_.road_embedding_init);
    } else {
      init = nn::NormalInit(Shape({num_roads_, d}), rng, 0.02f);
    }
    road_table_ = RegisterParameter("road_table", init);
  }
  mask_embedding_ =
      RegisterParameter("mask_embedding", nn::NormalInit(Shape({1, d}), rng));
  cls_embedding_ =
      RegisterParameter("cls_embedding", nn::NormalInit(Shape({1, d}), rng));
  minute_embedding_ = std::make_unique<nn::Embedding>(1441, d, rng);
  dow_embedding_ = std::make_unique<nn::Embedding>(8, d, rng);
  RegisterModule("minute_embedding", minute_embedding_.get());
  RegisterModule("dow_embedding", dow_embedding_.get());
  positional_ = nn::SinusoidalPositionalEncoding(config_.max_len + 1, d);
  interval_w1_ = RegisterParameter(
      "interval_w1",
      nn::XavierUniform(Shape({1, config_.interval_hidden}), rng));
  interval_w2_ = RegisterParameter(
      "interval_w2",
      nn::XavierUniform(Shape({config_.interval_hidden, 1}), rng));
  for (int64_t l = 0; l < config_.encoder_layers; ++l) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        d, config_.encoder_heads, config_.FfnDim(), rng, config_.dropout));
    RegisterModule("encoder" + std::to_string(l), layers_.back().get());
  }
  mlm_head_ = std::make_unique<nn::Linear>(d, num_roads_, rng);
  RegisterModule("mlm_head", mlm_head_.get());
}

void StartModel::ReleaseTrainingOnlyModules() {
  if (gat_ != nullptr) {
    UnregisterModule("tpe_gat");
    gat_.reset();
    road_features_ = Tensor();
  }
  if (mlm_head_ != nullptr) {
    UnregisterModule("mlm_head");
    mlm_head_.reset();
  }
}

Tensor StartModel::ComputeRoadReps() const {
  if (config_.use_tpe_gat) {
    START_CHECK_MSG(gat_ != nullptr, "stage 1 was released");
    return gat_->Forward(road_features_);
  }
  return road_table_;
}

Tensor StartModel::BuildScoreBias(const data::Batch& batch) const {
  const int64_t b = batch.batch_size;
  const int64_t l1 = batch.max_len + 1;  // +1 for [CLS]
  // Padding bias: CLS (pos 0) is always valid.
  std::vector<int64_t> lengths(batch.lengths.size());
  for (size_t i = 0; i < batch.lengths.size(); ++i) {
    lengths[i] = batch.lengths[i] + 1;
  }
  const Tensor pad_bias = nn::MakePaddingBias(lengths, l1);
  if (!config_.use_time_interval) return pad_bias;

  // ∆ of Eq. (8) and the decayed ∆' (δ' = 1/log(e + δ), Sec. III-B2).
  // CLS rows/columns use δ = 0 (full view of the sequence); padded positions
  // are already excluded by the padding bias. Pooled, like the padding bias
  // (see nn::MakePaddingBias).
  Tensor dprime_t = Tensor::Zeros(Shape({b * l1 * l1, 1}));
  for (int64_t s = 0; s < b; ++s) {
    const double* times = batch.times.data() + s * batch.max_len;
    float* base = dprime_t.data() + s * l1 * l1;
    for (int64_t i = 0; i < l1; ++i) {
      for (int64_t j = 0; j < l1; ++j) {
        double delta;
        if (i == 0 || j == 0) {
          delta = 0.0;
        } else if (config_.interval_use_hops) {
          delta = static_cast<double>(std::llabs(i - j));  // "w/ Hop"
        } else {
          delta = std::fabs(times[i - 1] - times[j - 1]);
        }
        double dp;
        if (config_.interval_use_log) {
          dp = 1.0 / std::log(M_E + delta);
        } else {
          dp = 1.0 / std::max(1.0, delta);  // "w/o Log" variant
        }
        base[i * l1 + j] = static_cast<float>(dp);
      }
    }
  }
  Tensor delta_tilde;
  if (config_.interval_adaptive) {
    // Eq. (9): ∆̃ = LeakyReLU(∆' ω1) ω2ᵀ, element-wise through a k-wide map.
    delta_tilde = tensor::MatMul(
        tensor::LeakyRelu(tensor::MatMul(dprime_t, interval_w1_), 0.2f),
        interval_w2_);
  } else {
    delta_tilde = dprime_t;  // "w/o Adaptive": constant during training
  }
  delta_tilde = tensor::Reshape(delta_tilde, Shape({b, l1, l1}));
  return tensor::Add(pad_bias, delta_tilde);
}

EncoderOutput StartModel::Encode(const data::Batch& batch) const {
  return Encode(batch, ComputeRoadReps());
}

Tensor StartModel::BuildExtendedTable(const Tensor& road_reps) const {
  // Rows [0, V) are roads, row V the [MASK] embedding, row V+1 a frozen
  // zero row for padding.
  const Tensor zero_row = Tensor::Zeros(Shape({1, config_.d}));
  return tensor::Concat({road_reps, mask_embedding_, zero_row}, 0);
}

EncoderOutput StartModel::Encode(const data::Batch& batch,
                                 const Tensor& road_reps) const {
  return EncodeWithTable(batch, BuildExtendedTable(road_reps));
}

EncoderOutput StartModel::EncodeWithTable(const data::Batch& batch,
                                          const Tensor& ext) const {
  const int64_t b = batch.batch_size;
  const int64_t l = batch.max_len;
  const int64_t d = config_.d;
  START_CHECK_EQ(ext.dim(0), num_roads_ + 2);
  std::vector<int64_t> flat_ids(static_cast<size_t>(b * l));
  for (int64_t i = 0; i < b * l; ++i) {
    const int64_t r = batch.roads[static_cast<size_t>(i)];
    if (r >= 0) {
      START_CHECK_LT(r, num_roads_);
      flat_ids[static_cast<size_t>(i)] = r;
    } else if (r == data::kMaskRoad) {
      flat_ids[static_cast<size_t>(i)] = num_roads_;
    } else {
      flat_ids[static_cast<size_t>(i)] = num_roads_ + 1;  // padding
    }
  }
  Tensor x = tensor::GatherRows(ext, flat_ids);  // [B*L, d]
  if (config_.use_time_embedding) {
    // Eq. (5): x_i = r_i + tm_i + td_i (+ pe_i below).
    x = tensor::Add(x, minute_embedding_->Forward(batch.minute_idx));
    x = tensor::Add(x, dow_embedding_->Forward(batch.dow_idx));
  }
  // Positional encoding: rows 1..L (row 0 is reserved for [CLS]).
  std::vector<int64_t> pos_ids(static_cast<size_t>(b * l));
  for (int64_t s = 0; s < b; ++s) {
    for (int64_t i = 0; i < l; ++i) {
      pos_ids[static_cast<size_t>(s * l + i)] = i + 1;
    }
  }
  x = tensor::Add(x, tensor::GatherRows(positional_, pos_ids));
  x = tensor::Reshape(x, Shape({b, l, d}));
  // Prepend the [CLS] placeholder (Sec. III-B3), with positional row 0.
  const std::vector<int64_t> zeros(static_cast<size_t>(b), 0);
  Tensor cls_tokens = tensor::Add(tensor::GatherRows(cls_embedding_, zeros),
                                  tensor::GatherRows(positional_, zeros));
  cls_tokens = tensor::Reshape(cls_tokens, Shape({b, 1, d}));
  Tensor seq = tensor::Concat({cls_tokens, x}, 1);  // [B, L+1, d]
  // Embedding dropout: regular regularisation in training, and the Dropout
  // contrastive augmentation (two passes draw independent masks).
  seq = tensor::Dropout(seq, config_.dropout, training(), dropout_rng());

  const Tensor bias = BuildScoreBias(batch);
  for (const auto& layer : layers_) {
    seq = layer->Forward(seq, bias);
  }
  EncoderOutput out;
  out.sequence = seq;
  out.cls = tensor::Reshape(tensor::Slice(seq, 1, 0, 1), Shape({b, d}));
  return out;
}

Tensor StartModel::MaskedLogits(const EncoderOutput& out,
                                const std::vector<int64_t>& flat_positions,
                                int64_t max_len) const {
  START_CHECK(!flat_positions.empty());
  const int64_t b = out.sequence.dim(0);
  const int64_t l1 = out.sequence.dim(1);
  START_CHECK_EQ(l1, max_len + 1);
  const Tensor flat = tensor::Reshape(
      out.sequence, Shape({b * l1, out.sequence.dim(2)}));
  // Shift for the [CLS] offset: data position p of sequence s lives at row
  // s * (L+1) + (p+1).
  std::vector<int64_t> rows;
  rows.reserve(flat_positions.size());
  for (const int64_t fp : flat_positions) {
    const int64_t s = fp / max_len;
    const int64_t p = fp % max_len;
    rows.push_back(s * l1 + p + 1);
  }
  const Tensor gathered = tensor::GatherRows(flat, rows);
  START_CHECK_MSG(mlm_head_ != nullptr, "the MLM head was released");
  return mlm_head_->Forward(gathered);  // [M, |V|]
}

}  // namespace start::core
