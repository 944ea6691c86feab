#include "nn/attention.h"

#include <cmath>

#include "common/check.h"

namespace start::nn {

using tensor::Shape;
using tensor::Tensor;

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               common::Rng* rng, float dropout)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng),
      dropout_(dropout) {
  START_CHECK_MSG(dim % num_heads == 0,
                  "dim " << dim << " not divisible by heads " << num_heads);
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x,
                                       const Tensor& score_bias) const {
  START_CHECK_EQ(x.ndim(), 3);
  const int64_t b = x.dim(0), l = x.dim(1);
  START_CHECK_EQ(x.dim(2), dim_);
  if (score_bias.defined()) {
    START_CHECK(score_bias.shape() == Shape({b, l, l}));
  }
  const Tensor q = wq_.Forward(x);
  const Tensor k = wk_.Forward(x);
  const Tensor v = wv_.Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(static_cast<size_t>(num_heads_));
  for (int64_t h = 0; h < num_heads_; ++h) {
    // Head slices are zero-copy strided views; BatchMatMul consumes them
    // directly through its row-strided GEMM path.
    const Tensor qh = tensor::Slice(q, 2, h * head_dim_, head_dim_);
    const Tensor kh = tensor::Slice(k, 2, h * head_dim_, head_dim_);
    const Tensor vh = tensor::Slice(v, 2, h * head_dim_, head_dim_);
    Tensor scores =
        tensor::Scale(tensor::BatchMatMul(qh, kh, /*transpose_b=*/true),
                      scale);  // [B, L, L]
    if (score_bias.defined()) scores = tensor::Add(scores, score_bias);
    Tensor attn = tensor::SoftmaxLastDim(scores);
    attn = tensor::Dropout(attn, dropout_, training(), dropout_rng());
    head_outputs.push_back(tensor::BatchMatMul(attn, vh));  // [B, L, d']
  }
  const Tensor concat = num_heads_ == 1 ? head_outputs[0]
                                        : tensor::Concat(head_outputs, 2);
  return wo_.Forward(concat);
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t dim,
                                                 int64_t num_heads,
                                                 int64_t ffn_dim,
                                                 common::Rng* rng,
                                                 float dropout)
    : attn_(dim, num_heads, rng, dropout),
      ffn_(dim, ffn_dim, rng, dropout),
      ln1_(dim),
      ln2_(dim),
      dropout_(dropout) {
  RegisterModule("attn", &attn_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("ln1", &ln1_);
  RegisterModule("ln2", &ln2_);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x,
                                        const Tensor& score_bias) const {
  Tensor a = attn_.Forward(x, score_bias);
  a = tensor::Dropout(a, dropout_, training(), dropout_rng());
  Tensor h = ln1_.Forward(tensor::Add(x, a));
  Tensor f = ffn_.Forward(h);
  f = tensor::Dropout(f, dropout_, training(), dropout_rng());
  return ln2_.Forward(tensor::Add(h, f));
}

Tensor MakePaddingBias(const std::vector<int64_t>& lengths, int64_t max_len) {
  const int64_t b = static_cast<int64_t>(lengths.size());
  // A pooled buffer, not an adopted std::vector: a per-request vector that
  // the full pool refuses goes back to malloc, and that churn grows serving
  // RSS.
  Tensor bias = Tensor::Zeros(Shape({b, max_len, max_len}));
  for (int64_t s = 0; s < b; ++s) {
    const int64_t len = lengths[static_cast<size_t>(s)];
    START_CHECK_LE(len, max_len);
    START_CHECK_GT(len, 0);
    float* base = bias.data() + s * max_len * max_len;
    for (int64_t i = 0; i < max_len; ++i) {
      for (int64_t j = len; j < max_len; ++j) {
        base[i * max_len + j] = -1e9f;
      }
    }
  }
  return bias;
}

}  // namespace start::nn
