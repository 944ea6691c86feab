#include "tensor/kernels.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "tensor/shape.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define START_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#endif

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

// ---------------------------------------------------------------------------
// Scalar reference loops: they define every GEMM result (see kernels.h).
// ---------------------------------------------------------------------------

void GemmNNReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
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

void GemmNTReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
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

void GemmTNReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
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

#if START_KERNELS_HAVE_AVX2

namespace {

// AVX2 kernels. target("avx2") and never "fma": a fused multiply-add rounds
// once where the reference rounds twice. Each kernel holds a block of C in
// registers and gives every lane the reference's operations in the
// reference's order, so only the SIMD width and the blocking differ.
#define START_AVX2 __attribute__((target("avx2"), always_inline)) inline

/// Lanes [0, n) of eight set, for a masked load/store of a short row tail.
START_AVX2 __m256i TailMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool kMasked>
START_AVX2 __m256 Load8(const float* p, __m256i mask) {
  return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
}

template <bool kMasked>
START_AVX2 void Store8(float* p, __m256i mask, __m256 v) {
  if (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

/// NN/TN microkernel: C[R rows, 8 * V columns] += A(r, p) * B[p, :] over
/// p = 0..k-1, skipping A(r, p) == 0, with A(r, p) = a[r * a_rs + p * a_ks].
/// kMasked (V == 1 only) limits the columns to the lanes set in `mask`.
template <int R, int V, bool kMasked>
START_AVX2 void AxpyBlock(const float* a, int64_t a_rs, int64_t a_ks,
                          const float* b, int64_t ldb, float* c, int64_t ldc,
                          int64_t k, __m256i mask) {
  static_assert(!kMasked || V == 1, "only a single register is masked");
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = Load8<kMasked>(c + r * ldc + 8 * v, mask);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = Load8<kMasked>(b + p * ldb + 8 * v, mask);
    }
    for (int r = 0; r < R; ++r) {
      const float av = a[r * a_rs + p * a_ks];
      if (av == 0.0f) continue;
      const __m256 va = _mm256_set1_ps(av);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      Store8<kMasked>(c + r * ldc + 8 * v, mask, acc[r][v]);
    }
  }
}

template <int R>
START_AVX2 void AxpyRows(const float* a, int64_t a_rs, int64_t a_ks,
                         const float* b, int64_t ldb, float* c, int64_t ldc,
                         int64_t k, int64_t n) {
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    AxpyBlock<R, 2, false>(a, a_rs, a_ks, b + j, ldb, c + j, ldc, k, all);
  }
  if (j + 8 <= n) {
    AxpyBlock<R, 1, false>(a, a_rs, a_ks, b + j, ldb, c + j, ldc, k, all);
    j += 8;
  }
  if (j < n) {
    AxpyBlock<R, 1, true>(a, a_rs, a_ks, b + j, ldb, c + j, ldc, k,
                          TailMask(n - j));
  }
}

/// GemmNN (a_rs = lda, a_ks = 1) and GemmTN (a_rs = 1, a_ks = lda).
__attribute__((target("avx2"))) void AxpyGemmAvx2(
    const float* a, int64_t a_rs, int64_t a_ks, const float* b, int64_t ldb,
    float* c, int64_t ldc, int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    AxpyRows<4>(a + i * a_rs, a_rs, a_ks, b, ldb, c + i * ldc, ldc, k, n);
  }
  for (; i < m; ++i) {
    AxpyRows<1>(a + i * a_rs, a_rs, a_ks, b, ldb, c + i * ldc, ldc, k, n);
  }
}

/// Columns per GemmNT panel: two registers.
constexpr int64_t kNtPanel = 16;

/// NT microkernel over a transposed panel bt[k][kNtPanel]: for R rows of A
/// and the panel's first `nn` columns, acc = 0; acc += A[r, p] * bt[p, j]
/// over p = 0..k-1; then C[r, j] += acc. Lanes past `nn` hold zero columns
/// and are never stored.
template <int R, int V>
START_AVX2 void DotBlock(const float* a, int64_t lda, const float* bt,
                         float* c, int64_t ldc, int64_t k, int64_t nn) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_loadu_ps(bt + p * kNtPanel + 8 * v);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_set1_ps(a[r * lda + p]);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    if (nn == 8 * V) {
      for (int v = 0; v < V; ++v) {
        _mm256_storeu_ps(crow + 8 * v,
                         _mm256_add_ps(_mm256_loadu_ps(crow + 8 * v),
                                       acc[r][v]));
      }
    } else {
      alignas(32) float sums[8 * V];
      for (int v = 0; v < V; ++v) _mm256_store_ps(sums + 8 * v, acc[r][v]);
      for (int64_t j = 0; j < nn; ++j) crow[j] += sums[j];
    }
  }
}

template <int V>
START_AVX2 void DotPanel(const float* a, int64_t lda, const float* bt,
                         float* c, int64_t ldc, int64_t m, int64_t k,
                         int64_t nn) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    DotBlock<4, V>(a + i * lda, lda, bt, c + i * ldc, ldc, k, nn);
  }
  for (; i < m; ++i) {
    DotBlock<1, V>(a + i * lda, lda, bt, c + i * ldc, ldc, k, nn);
  }
}

/// Depth up to which the GemmNT panel lives on the stack (16 KB, within L1).
constexpr int64_t kNtStackDepth = 256;

__attribute__((target("avx2"))) void GemmNTAvx2(
    const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
    int64_t ldc, int64_t m, int64_t k, int64_t n) {
  // The k x 16 panel: on the stack at attention depths (3 KB at head width
  // 48), on the heap for the deep products of training backward passes.
  alignas(32) float stack_panel[kNtStackDepth * kNtPanel];
  std::vector<float> heap_panel;
  float* bt = stack_panel;
  if (k > kNtStackDepth) {
    heap_panel.resize(static_cast<size_t>(k * kNtPanel));
    bt = heap_panel.data();
  }
  for (int64_t j0 = 0; j0 < n; j0 += kNtPanel) {
    const int64_t nn = std::min(kNtPanel, n - j0);
    for (int64_t j = 0; j < kNtPanel; ++j) {
      if (j < nn) {
        const float* brow = b + (j0 + j) * ldb;
        for (int64_t p = 0; p < k; ++p) bt[p * kNtPanel + j] = brow[p];
      } else {
        for (int64_t p = 0; p < k; ++p) bt[p * kNtPanel + j] = 0.0f;
      }
    }
    if (nn > 8) {
      DotPanel<2>(a, lda, bt, c + j0, ldc, m, k, nn);
    } else {
      DotPanel<1>(a, lda, bt, c + j0, ldc, m, k, nn);
    }
  }
}

#undef START_AVX2

bool UseAvx2() {
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
}

}  // namespace

#endif  // START_KERNELS_HAVE_AVX2

void GemmNN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
#if START_KERNELS_HAVE_AVX2
  if (UseAvx2()) return AxpyGemmAvx2(a, lda, 1, b, ldb, c, ldc, m, k, n);
#endif
  GemmNNReference(a, lda, b, ldb, c, ldc, m, k, n);
}

void GemmNT(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
#if START_KERNELS_HAVE_AVX2
  // One A row cannot amortise the panel transpose: the exact-scan query
  // (m = 1) runs faster on the reference loop.
  if (m > 1 && UseAvx2()) return GemmNTAvx2(a, lda, b, ldb, c, ldc, m, k, n);
#endif
  GemmNTReference(a, lda, b, ldb, c, ldc, m, k, n);
}

void GemmTN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n) {
#if START_KERNELS_HAVE_AVX2
  if (UseAvx2()) return AxpyGemmAvx2(a, 1, lda, b, ldb, c, ldc, m, k, n);
#endif
  GemmTNReference(a, lda, b, ldb, c, ldc, m, k, n);
}

float DotF32(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace start::tensor::internal
