#include "baselines/base.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace start::baselines {

PaddedRoads PadRoadBatch(const std::vector<const traj::Trajectory*>& batch,
                         int64_t pad_id) {
  START_CHECK(!batch.empty());
  PaddedRoads out;
  out.batch_size = static_cast<int64_t>(batch.size());
  for (const auto* t : batch) {
    START_CHECK_GT(t->size(), 0);
    out.max_len = std::max(out.max_len, t->size());
  }
  out.ids.assign(static_cast<size_t>(out.batch_size * out.max_len), pad_id);
  out.lengths.resize(static_cast<size_t>(out.batch_size));
  for (int64_t b = 0; b < out.batch_size; ++b) {
    const auto* t = batch[static_cast<size_t>(b)];
    out.lengths[static_cast<size_t>(b)] = t->size();
    for (int64_t i = 0; i < t->size(); ++i) {
      out.ids[static_cast<size_t>(b * out.max_len + i)] =
          t->roads[static_cast<size_t>(i)];
    }
  }
  return out;
}

double SequenceBaseline::Pretrain(
    const std::vector<traj::Trajectory>& corpus,
    const PretrainOptions& options) {
  common::Rng rng(options.seed);
  // Dropout masks come from a run-private stream rather than the process-
  // global one, so pre-training is a pure function of (model, corpus,
  // options). It is split off a second generator on the same seed, which
  // leaves `rng`'s draws (shuffles and task sampling) untouched.
  common::Rng dropout_rng = common::Rng(options.seed).Fork();
  SetDropoutRng(&dropout_rng);
  nn::AdamW opt(Parameters(), options.lr);
  SetTraining(true);
  const double loss = nn::TrainEpochs(
      static_cast<int64_t>(corpus.size()), options.epochs, options.batch_size,
      &rng, [&](const std::vector<int64_t>& rows) {
        std::vector<const traj::Trajectory*> batch;
        batch.reserve(rows.size());
        for (const int64_t i : rows) {
          batch.push_back(&corpus[static_cast<size_t>(i)]);
        }
        return TrainBatch(batch, &opt, &rng);
      });
  SetDropoutRng(nullptr);  // the run-private stream goes away now
  return loss;
}

tensor::Tensor MeanPoolValid(const tensor::Tensor& seq,
                             const std::vector<int64_t>& lengths) {
  START_CHECK_EQ(seq.ndim(), 3);
  const int64_t b = seq.dim(0), l = seq.dim(1), d = seq.dim(2);
  START_CHECK_EQ(static_cast<int64_t>(lengths.size()), b);
  // Weights [B, 1, L] with 1/len on valid slots: pooling is one bmm.
  std::vector<float> w(static_cast<size_t>(b * l), 0.0f);
  for (int64_t s = 0; s < b; ++s) {
    const int64_t len = lengths[static_cast<size_t>(s)];
    START_CHECK_GT(len, 0);
    const float inv = 1.0f / static_cast<float>(len);
    for (int64_t i = 0; i < std::min(len, l); ++i) {
      w[static_cast<size_t>(s * l + i)] = inv;
    }
  }
  const tensor::Tensor weights = tensor::Tensor::FromVector(
      tensor::Shape({b, 1, l}), std::move(w));
  return tensor::Reshape(tensor::BatchMatMul(weights, seq),
                         tensor::Shape({b, d}));
}

}  // namespace start::baselines
