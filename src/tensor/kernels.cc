#include "tensor/kernels.h"

#include "common/check.h"
#include "tensor/shape.h"

namespace start::tensor::internal {

namespace {

/// Right-aligns `dims`/`strides` of one operand against the broadcast output
/// dims, zeroing strides on broadcast dimensions.
void AlignOperand(const Shape& shape, const std::vector<int64_t>& strides,
                  const std::array<int64_t, kMaxDims>& out_dims,
                  std::array<int64_t, kMaxDims>* data_strides,
                  std::array<int64_t, kMaxDims>* grad_strides) {
  data_strides->fill(0);
  if (grad_strides != nullptr) grad_strides->fill(0);
  const std::vector<int64_t> logical = RowMajorStrides(shape.dims());
  for (int64_t i = 0; i < shape.ndim(); ++i) {
    const size_t src = static_cast<size_t>(shape.ndim() - 1 - i);
    const size_t slot = static_cast<size_t>(kMaxDims - 1 - i);
    const bool broadcast = shape.dims()[src] == 1 && out_dims[slot] != 1;
    (*data_strides)[slot] = broadcast ? 0 : strides[src];
    if (grad_strides != nullptr) {
      (*grad_strides)[slot] = broadcast ? 0 : logical[src];
    }
  }
}

}  // namespace

ElementwisePlan MakeBinaryPlan(const TensorImpl& a, const TensorImpl& b) {
  START_CHECK_LE(a.shape.ndim(), kMaxDims);
  START_CHECK_LE(b.shape.ndim(), kMaxDims);
  const Shape out = BroadcastShapes(a.shape, b.shape);
  ElementwisePlan plan;
  plan.numel = out.numel();
  plan.dims.fill(1);
  for (int64_t i = 0; i < out.ndim(); ++i) {
    plan.dims[static_cast<size_t>(kMaxDims - 1 - i)] = out.dim(out.ndim() - 1 - i);
  }
  AlignOperand(a.shape, a.strides, plan.dims, &plan.a, &plan.ga);
  AlignOperand(b.shape, b.strides, plan.dims, &plan.b, &plan.gb);
  plan.fast = a.shape == b.shape && a.contiguous && b.contiguous;
  return plan;
}

ElementwisePlan MakeUnaryPlan(const TensorImpl& a) {
  START_CHECK_LE(a.shape.ndim(), kMaxDims);
  ElementwisePlan plan;
  plan.numel = a.numel();
  plan.dims.fill(1);
  for (int64_t i = 0; i < a.shape.ndim(); ++i) {
    plan.dims[static_cast<size_t>(kMaxDims - 1 - i)] =
        a.shape.dim(a.shape.ndim() - 1 - i);
  }
  AlignOperand(a.shape, a.strides, plan.dims, &plan.a, nullptr);
  plan.fast = a.contiguous;
  return plan;
}

void GemmNN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  // ikj ordering: innermost loop is contiguous over both B and C rows.
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmNT(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void GemmTN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p * lda + i];
      if (av == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

float DotF32(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace start::tensor::internal
