#ifndef START_TENSOR_KERNELS_H_
#define START_TENSOR_KERNELS_H_

#include <array>
#include <cstdint>

#include "tensor/tensor.h"

/// \file
/// Templated elementwise kernel engine and strided GEMM primitives.
///
/// Every elementwise op is expressed as a functor instantiated into one of
/// the kernels below (marian-style). The engine specialises a contiguous
/// same-shape fast path (single flat SIMD loop) and otherwise runs
/// a fixed 4-deep loop nest whose stride arithmetic is hoisted out of the
/// inner loop — no per-element div/mod index decomposition.
///
/// Kernels read *data* through each operand's view strides (so strided views
/// feed ops without materialisation; broadcast dims have stride 0) and write
/// *gradients* through dense logical strides (gradient buffers are never
/// aliased views, see TensorImpl).

namespace start::tensor::internal {

constexpr int kMaxDims = 4;

/// Iteration plan for an elementwise kernel: right-aligned output dims padded
/// with leading 1s, per-operand data strides (0 on broadcast dims) and dense
/// logical gradient strides (0 on broadcast dims).
struct ElementwisePlan {
  std::array<int64_t, kMaxDims> dims{};
  std::array<int64_t, kMaxDims> a{};   ///< a data strides.
  std::array<int64_t, kMaxDims> b{};   ///< b data strides.
  std::array<int64_t, kMaxDims> ga{};  ///< a grad (dense logical) strides.
  std::array<int64_t, kMaxDims> gb{};  ///< b grad (dense logical) strides.
  int64_t numel = 0;
  bool fast = false;  ///< Same shape and both operands contiguous.
};

/// Plan for broadcasting `a` against `b` (CHECK-fails beyond kMaxDims).
ElementwisePlan MakeBinaryPlan(const TensorImpl& a, const TensorImpl& b);

/// Plan for a unary op over `a` (b-side strides unused).
ElementwisePlan MakeUnaryPlan(const TensorImpl& a);

// ---------------------------------------------------------------------------
// Elementwise kernels.
// ---------------------------------------------------------------------------

/// out[i] = f(a[i'], b[i'']) over the broadcast iteration space.
template <class F>
inline void BinaryForward(const ElementwisePlan& p, const float* pa,
                          const float* pb, float* out, F f) {
  const auto& d = p.dims;
  if (p.fast) {
    const int64_t n = p.numel;
#pragma omp simd
    for (int64_t i = 0; i < n; ++i) out[i] = f(pa[i], pb[i]);
    return;
  }
  for (int64_t i0 = 0; i0 < d[0]; ++i0) {
    for (int64_t i1 = 0; i1 < d[1]; ++i1) {
      const float* a1 = pa + i0 * p.a[0] + i1 * p.a[1];
      const float* b1 = pb + i0 * p.b[0] + i1 * p.b[1];
      float* o1 = out + (i0 * d[1] + i1) * d[2] * d[3];
      for (int64_t i2 = 0; i2 < d[2]; ++i2) {
        const float* a2 = a1 + i2 * p.a[2];
        const float* b2 = b1 + i2 * p.b[2];
        const int64_t sa = p.a[3], sb = p.b[3];
        for (int64_t i3 = 0; i3 < d[3]; ++i3) {
          *o1++ = f(a2[i3 * sa], b2[i3 * sb]);
        }
      }
    }
  }
}

/// Accumulates d(out)/d(a) and d(out)/d(b) into the dense logical gradient
/// buffers `ga` / `gb` (either may be null). `g` is the dense output grad;
/// `pa` / `pb` are read through data strides as in the forward pass.
template <class Da, class Db>
inline void BinaryBackward(const ElementwisePlan& p, const float* pa,
                           const float* pb, const float* g, float* ga,
                           float* gb, Da da, Db db) {
  const auto& d = p.dims;
  if (p.fast) {
    const int64_t n = p.numel;
    if (ga != nullptr && gb != nullptr) {
#pragma omp simd
      for (int64_t i = 0; i < n; ++i) {
        ga[i] += g[i] * da(pa[i], pb[i]);
        gb[i] += g[i] * db(pa[i], pb[i]);
      }
    } else if (ga != nullptr) {
#pragma omp simd
      for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * da(pa[i], pb[i]);
    } else if (gb != nullptr) {
#pragma omp simd
      for (int64_t i = 0; i < n; ++i) gb[i] += g[i] * db(pa[i], pb[i]);
    }
    return;
  }
  // Broadcast dims accumulate into a shared grad slot (stride 0), so the
  // general path stays serial for determinism and correctness.
  const float* gp = g;
  for (int64_t i0 = 0; i0 < d[0]; ++i0) {
    for (int64_t i1 = 0; i1 < d[1]; ++i1) {
      const float* a1 = pa + i0 * p.a[0] + i1 * p.a[1];
      const float* b1 = pb + i0 * p.b[0] + i1 * p.b[1];
      float* ga1 = ga != nullptr ? ga + i0 * p.ga[0] + i1 * p.ga[1] : nullptr;
      float* gb1 = gb != nullptr ? gb + i0 * p.gb[0] + i1 * p.gb[1] : nullptr;
      for (int64_t i2 = 0; i2 < d[2]; ++i2) {
        const float* a2 = a1 + i2 * p.a[2];
        const float* b2 = b1 + i2 * p.b[2];
        float* ga2 = ga1 != nullptr ? ga1 + i2 * p.ga[2] : nullptr;
        float* gb2 = gb1 != nullptr ? gb1 + i2 * p.gb[2] : nullptr;
        for (int64_t i3 = 0; i3 < d[3]; ++i3) {
          const float av = a2[i3 * p.a[3]];
          const float bv = b2[i3 * p.b[3]];
          const float gv = *gp++;
          if (ga2 != nullptr) ga2[i3 * p.ga[3]] += gv * da(av, bv);
          if (gb2 != nullptr) gb2[i3 * p.gb[3]] += gv * db(av, bv);
        }
      }
    }
  }
}

/// out[i] = f(a[i']) — dense output, possibly strided input.
template <class F>
inline void UnaryForward(const ElementwisePlan& p, const float* pa, float* out,
                         F f) {
  const auto& d = p.dims;
  if (p.fast) {
    const int64_t n = p.numel;
#pragma omp simd
    for (int64_t i = 0; i < n; ++i) out[i] = f(pa[i]);
    return;
  }
  for (int64_t i0 = 0; i0 < d[0]; ++i0) {
    for (int64_t i1 = 0; i1 < d[1]; ++i1) {
      const float* a1 = pa + i0 * p.a[0] + i1 * p.a[1];
      float* o1 = out + (i0 * d[1] + i1) * d[2] * d[3];
      for (int64_t i2 = 0; i2 < d[2]; ++i2) {
        const float* a2 = a1 + i2 * p.a[2];
        const int64_t sa = p.a[3];
        for (int64_t i3 = 0; i3 < d[3]; ++i3) *o1++ = f(a2[i3 * sa]);
      }
    }
  }
}

/// ga[i] += g[i] * dfn(x[i'], y[i]) — g, y, ga dense; x through data strides.
template <class D>
inline void UnaryBackward(const ElementwisePlan& p, const float* g,
                          const float* x, const float* y, float* ga, D dfn) {
  const auto& d = p.dims;
  if (p.fast) {
    const int64_t n = p.numel;
#pragma omp simd
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * dfn(x[i], y[i]);
    return;
  }
  int64_t flat = 0;
  for (int64_t i0 = 0; i0 < d[0]; ++i0) {
    for (int64_t i1 = 0; i1 < d[1]; ++i1) {
      const float* x1 = x + i0 * p.a[0] + i1 * p.a[1];
      for (int64_t i2 = 0; i2 < d[2]; ++i2) {
        const float* x2 = x1 + i2 * p.a[2];
        const int64_t sa = p.a[3];
        for (int64_t i3 = 0; i3 < d[3]; ++i3, ++flat) {
          ga[flat] += g[flat] * dfn(x2[i3 * sa], y[flat]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM primitives with explicit leading dimensions (row strides), so matmul
// accepts row-strided and transpose views without materialisation.
//
// Kernel contract: every output element gets the float operations of the
// *Reference loop, in that loop's order, so every kernel is bitwise equal
// to its reference on every input (zeros, -0.0, infinities and NaN too):
//  - GemmNN / GemmTN: for p = 0, 1, ..., k-1, unless A(i,p) == 0:
//    C[i,j] += A(i,p) * B(p,j) (a multiply, then an add);
//  - GemmNT: acc = 0; for p = 0, ..., k-1: acc += A[i,p] * B[j,p]; then
//    C[i,j] += acc.
// No FMA: a fused multiply-add rounds once where the reference rounds twice.
// That is a build property: start_tensor compiles with -ffp-contract=off, so
// GCC and clang never fuse `c += x * y`, also in code whose target has FMA
// (the AVX-512 int8 kernel in qgemm.cc); tests/property_test.cc checks it.
// On hosts with AVX2 (checked once with __builtin_cpu_supports) the entry
// points run register-blocked AVX2 kernels; elsewhere they run the
// references. GemmNT with m == 1 always runs its reference loop.
// ---------------------------------------------------------------------------

/// C[m,n] (ldc) += A[m,k] (lda) * B[k,n] (ldb).
void GemmNN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n);

/// C[m,n] (ldc) += A[m,k] (lda) * B^T where B is stored [n,k] (ldb).
void GemmNT(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n);

/// C[m,n] (ldc) += A^T * B where A is stored [k,m] (lda), B is [k,n] (ldb).
void GemmTN(const float* a, int64_t lda, const float* b, int64_t ldb, float* c,
            int64_t ldc, int64_t m, int64_t k, int64_t n);

/// The portable scalar loops that define the results above (tests and
/// bench_tensor_kernels compare the dispatched kernels against them).
void GemmNNReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n);
void GemmNTReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n);
void GemmTNReference(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t m, int64_t k, int64_t n);

/// Single inner product over `n` floats — the SIMD dot microkernel shared by
/// point lookups that cannot batch rows into a GEMM (graph-index traversal
/// visits scattered rows one neighbor at a time).
float DotF32(const float* a, const float* b, int64_t n);

}  // namespace start::tensor::internal

#endif  // START_TENSOR_KERNELS_H_
