#ifndef START_TENSOR_OPS_H_
#define START_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace start::tensor {

// ---------------------------------------------------------------------------
// Elementwise ops (numpy-style broadcasting up to 4 dimensions).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Neg(const Tensor& a);
/// a * s (scalar).
Tensor Scale(const Tensor& a, float s);
/// a + s (scalar).
Tensor AddScalar(const Tensor& a, float s);

Tensor Relu(const Tensor& a);
/// LeakyReLU with the paper's default negative slope 0.2.
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
/// ELU with alpha = 1 (as in GAT).
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

/// Inverted-dropout: zeroes elements with probability p and rescales the rest
/// by 1/(1-p). Identity when `training` is false or p == 0. Samples the mask
/// from `rng` when given, else from common::GlobalRng() — pass an explicit
/// generator for reproducible masks (the global one is shared process state).
Tensor Dropout(const Tensor& a, float p, bool training,
               common::Rng* rng = nullptr);

// ---------------------------------------------------------------------------
// Shape ops. These return zero-copy views sharing the input's storage
// whenever the stride system can express the result (always for Slice,
// Select and 2-D Transpose; for Reshape unless the input's layout cannot be
// re-expressed, in which case the input is materialised first). Gradients
// flow through views like through any other op.
// ---------------------------------------------------------------------------

/// Returns a tensor with the same data viewed under `shape` (numel must match).
Tensor Reshape(const Tensor& a, const Shape& shape);
/// Transposes a 2-D tensor (zero-copy stride swap).
Tensor Transpose(const Tensor& a);
/// Concatenates tensors along `dim`. All other dimensions must agree.
Tensor Concat(const std::vector<Tensor>& parts, int64_t dim);
/// Slices `len` elements starting at `start` along `dim` (zero-copy view).
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t len);
/// Removes dimension `dim` at `index`: out = a[..., index, ...] (zero-copy
/// view; the rnn time-step hot path).
Tensor Select(const Tensor& a, int64_t dim, int64_t index);
/// Gathers rows of a 2-D tensor: out[i, :] = a[indices[i], :]. This is also
/// the embedding-lookup primitive (backward scatter-adds into `a`). When the
/// indices form a consecutive run, the result is a zero-copy row view.
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// 2-D matrix product [M,K]x[K,N] -> [M,N].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched matmul: [B,M,K]x[B,K,N] -> [B,M,N]. When transpose_b is true, b is
/// [B,N,K] and used as its transpose.
Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool transpose_b = false);

// ---------------------------------------------------------------------------
// Reductions & normalisation.
// ---------------------------------------------------------------------------

/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& a);
/// Softmax over the last dimension (numerically stabilised).
Tensor SoftmaxLastDim(const Tensor& a);
/// Fused layer normalisation over the last dimension:
/// y = (x - mu) / sqrt(var + eps) * gamma + beta.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);
/// L2-normalises each row of a 2-D tensor (used by cosine-similarity losses).
Tensor L2NormalizeRows(const Tensor& a, float eps = 1e-12f);

// ---------------------------------------------------------------------------
// Losses (fused, with analytic backward).
// ---------------------------------------------------------------------------

/// Mean cross-entropy between `logits` [N,C] and integer `targets` (size N).
/// Entries whose target equals `ignore_index` contribute nothing.
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets,
                              int64_t ignore_index = -1);
/// Mean squared error against a constant target (no gradient to target).
Tensor MseLoss(const Tensor& pred, const std::vector<float>& target);
/// Mean binary cross-entropy with logits against 0/1 constant targets.
Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets);

// ---------------------------------------------------------------------------
// Segment ops (sparse graph attention; Sec. III-A of the paper).
// ---------------------------------------------------------------------------

/// Softmax of `scores` [E] within segments given by `segment_ids` [E] (values
/// in [0, num_segments)). Empty segments are allowed.
Tensor SegmentSoftmax(const Tensor& scores,
                      const std::vector<int64_t>& segment_ids,
                      int64_t num_segments);
/// out[s, :] = sum_{e : segment_ids[e] == s} weights[e] * values[e, :].
/// `values` is [E,D], `weights` is [E]; result is [num_segments, D].
Tensor SegmentWeightedSum(const Tensor& values, const Tensor& weights,
                          const std::vector<int64_t>& segment_ids,
                          int64_t num_segments);

}  // namespace start::tensor

#endif  // START_TENSOR_OPS_H_
