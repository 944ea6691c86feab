#include "tensor/qgemm.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define START_QGEMM_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace start::tensor::qgemm {

namespace {

int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

/// Byte offset of logical (row, k) inside the panel layout: panels of
/// kRowsPerPanel rows, each panel a sequence of kColBlock-wide k-blocks
/// stored [k-block][row-in-panel].
int64_t PackedOffset(int64_t row, int64_t k, int64_t cols_padded) {
  const int64_t panel = row / kRowsPerPanel;
  const int64_t r = row % kRowsPerPanel;
  const int64_t kb = k / kColBlock;
  return panel * kRowsPerPanel * cols_padded + kb * kRowsPerPanel * kColBlock +
         r * kColBlock + (k % kColBlock);
}

/// Quantizes one row of `cols` floats: absmax scale, round-half-even codes
/// clamped to [-127, 127]. The symmetric [-127, 127] range (not -128) keeps
/// the AVX2 maddubs pair-sums within i16 (127*127*2 < 32767), so the SIMD
/// path never saturates.
void QuantizeRow(const float* src, int64_t cols, int8_t* dst, float* scale) {
  float absmax = 0.0f;
  for (int64_t k = 0; k < cols; ++k) {
    absmax = std::max(absmax, std::fabs(src[k]));
  }
  if (absmax == 0.0f) {
    *scale = 0.0f;
    std::memset(dst, 0, static_cast<size_t>(cols));
    return;
  }
  *scale = absmax / 127.0f;
  const float inv = 127.0f / absmax;
  for (int64_t k = 0; k < cols; ++k) {
    int32_t q = static_cast<int32_t>(std::nearbyintf(src[k] * inv));
    q = q > 127 ? 127 : (q < -127 ? -127 : q);
    dst[k] = static_cast<int8_t>(q);
  }
}

/// Scalar reference microkernel: i32 dot of one activation row against the
/// kRowsPerPanel channels of one packed panel. Bit-exact (integer) — the
/// AVX2 kernel below must produce the same accumulators.
void PanelDotScalar(const int8_t* pa, const int8_t* panel, int64_t cols_padded,
                    int32_t acc[kRowsPerPanel]) {
  for (int64_t r = 0; r < kRowsPerPanel; ++r) acc[r] = 0;
  for (int64_t kb = 0; kb < cols_padded; kb += kColBlock) {
    const int8_t* pbk = panel + kb * kRowsPerPanel;
    for (int64_t r = 0; r < kRowsPerPanel; ++r) {
      const int8_t* br = pbk + r * kColBlock;
      int32_t s = 0;
      for (int64_t t = 0; t < kColBlock; ++t) {
        s += static_cast<int32_t>(pa[kb + t]) * static_cast<int32_t>(br[t]);
      }
      acc[r] += s;
    }
  }
}

#if START_QGEMM_HAVE_AVX2
__attribute__((target("avx2"))) int32_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// AVX2 microkernel: maddubs wants u8 x s8, so the activation's sign is
/// transferred onto the weight byte (|a| * (b * sign(a)) == a * b; a == 0
/// zeroes the weight byte). With codes in [-127, 127] the two-product i16
/// pair-sums cannot saturate. madd against ones widens to exact i32.
__attribute__((target("avx2"))) void PanelDotAvx2(
    const int8_t* pa, const int8_t* panel, int64_t cols_padded,
    int32_t acc_out[kRowsPerPanel]) {
  static_assert(kRowsPerPanel == 4 && kColBlock == 32,
                "microkernel is written for 4x32 panels");
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  for (int64_t kb = 0; kb < cols_padded; kb += kColBlock) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + kb));
    const __m256i absa = _mm256_abs_epi8(va);
    const int8_t* pbk = panel + kb * kRowsPerPanel;
    // No lambda here: a lambda is a distinct function and would not inherit
    // target("avx2"), so the intrinsics fail to inline under the base ISA.
#define START_QGEMM_STEP(r)                                          \
  _mm256_madd_epi16(                                                 \
      _mm256_maddubs_epi16(                                          \
          absa, _mm256_sign_epi8(                                    \
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>( \
                        pbk + (r)*kColBlock)),                       \
                    va)),                                            \
      ones)
    acc0 = _mm256_add_epi32(acc0, START_QGEMM_STEP(0));
    acc1 = _mm256_add_epi32(acc1, START_QGEMM_STEP(1));
    acc2 = _mm256_add_epi32(acc2, START_QGEMM_STEP(2));
    acc3 = _mm256_add_epi32(acc3, START_QGEMM_STEP(3));
#undef START_QGEMM_STEP
  }
  acc_out[0] = HorizontalSumI32(acc0);
  acc_out[1] = HorizontalSumI32(acc1);
  acc_out[2] = HorizontalSumI32(acc2);
  acc_out[3] = HorizontalSumI32(acc3);
}
#endif  // START_QGEMM_HAVE_AVX2

}  // namespace

Backend ActiveBackend() {
  static const Backend backend = [] {
#if START_QGEMM_HAVE_AVX2
    const char* env = std::getenv("START_QGEMM_BACKEND");
    if (env == nullptr || std::strcmp(env, "scalar") != 0) {
      if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
    }
#endif
    return Backend::kScalar;
  }();
  return backend;
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales) {
  for (int64_t i = 0; i < rows; ++i) {
    QuantizeRow(src + i * ld, cols, dst + i * cols, &scales[i]);
  }
}

PackedMatrix Pack(const int8_t* q, const float* scales, int64_t rows,
                  int64_t cols) {
  START_CHECK(rows > 0 && cols > 0);
  // i32 accumulation stays exact while cols * 127^2 < 2^31.
  START_CHECK_LT(cols, int64_t{1} << 17);
  PackedMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.rows_padded = RoundUp(rows, kRowsPerPanel);
  m.cols_padded = RoundUp(cols, kColBlock);
  m.data.assign(static_cast<size_t>(m.rows_padded * m.cols_padded), 0);
  m.scales.assign(scales, scales + rows);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t k = 0; k < cols; ++k) {
      m.data[static_cast<size_t>(PackedOffset(i, k, m.cols_padded))] =
          q[i * cols + k];
    }
  }
  return m;
}

PackedMatrix QuantizeAndPack(const float* src, int64_t ld, int64_t rows,
                             int64_t cols) {
  std::vector<int8_t> q(static_cast<size_t>(rows * cols));
  std::vector<float> scales(static_cast<size_t>(rows));
  QuantizeRows(src, ld, rows, cols, q.data(), scales.data());
  return Pack(q.data(), scales.data(), rows, cols);
}

std::vector<int8_t> Unpack(const PackedMatrix& m) {
  std::vector<int8_t> q(static_cast<size_t>(m.rows * m.cols));
  for (int64_t i = 0; i < m.rows; ++i) {
    for (int64_t k = 0; k < m.cols; ++k) {
      q[static_cast<size_t>(i * m.cols + k)] =
          m.data[static_cast<size_t>(PackedOffset(i, k, m.cols_padded))];
    }
  }
  return q;
}

void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales) {
  for (int64_t i = 0; i < m; ++i) {
    int8_t* row = aq + i * b.cols_padded;
    QuantizeRow(a + i * lda, b.cols, row, &a_scales[i]);
    if (b.cols_padded > b.cols) {
      std::memset(row + b.cols, 0, static_cast<size_t>(b.cols_padded - b.cols));
    }
  }
}

void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc, Backend backend) {
#if !START_QGEMM_HAVE_AVX2
  backend = Backend::kScalar;
#endif
  const int64_t panels = b.rows_padded / kRowsPerPanel;
  const float* b_scales = b.scales.data();
  const int8_t* b_data = b.data.data();
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* pa = aq + i * b.cols_padded;
    const float sa = a_scales[i];
    float* crow = c + i * ldc;
    for (int64_t p = 0; p < panels; ++p) {
      const int8_t* panel = b_data + p * kRowsPerPanel * b.cols_padded;
      int32_t acc[kRowsPerPanel];
#if START_QGEMM_HAVE_AVX2
      if (backend == Backend::kAvx2) {
        PanelDotAvx2(pa, panel, b.cols_padded, acc);
      } else {
        PanelDotScalar(pa, panel, b.cols_padded, acc);
      }
#else
      PanelDotScalar(pa, panel, b.cols_padded, acc);
#endif
      // Shared dequant epilogue: both backends run these exact float ops in
      // this exact order, which is what makes them bitwise interchangeable.
      const int64_t j0 = p * kRowsPerPanel;
      const int64_t jn = std::min(kRowsPerPanel, b.rows - j0);
      for (int64_t r = 0; r < jn; ++r) {
        crow[j0 + r] += static_cast<float>(acc[r]) * (sa * b_scales[j0 + r]);
      }
    }
  }
}

void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc) {
  Gemm(aq, a_scales, m, b, c, ldc, ActiveBackend());
}

void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy) {
  // Grow-only per-thread scratch: steady-state serving quantizes activations
  // without touching the allocator.
  thread_local std::vector<int8_t> aq;
  thread_local std::vector<float> a_scales;
  if (static_cast<int64_t>(aq.size()) < m * b.cols_padded) {
    aq.resize(static_cast<size_t>(m * b.cols_padded));
  }
  if (static_cast<int64_t>(a_scales.size()) < m) {
    a_scales.resize(static_cast<size_t>(m));
  }
  QuantizeActivations(x, ldx, m, b, aq.data(), a_scales.data());
  for (int64_t i = 0; i < m; ++i) {
    float* row = y + i * ldy;
    if (bias != nullptr) {
      std::memcpy(row, bias, static_cast<size_t>(b.rows) * sizeof(float));
    } else {
      std::memset(row, 0, static_cast<size_t>(b.rows) * sizeof(float));
    }
  }
  Gemm(aq.data(), a_scales.data(), m, b, y, ldy);
}

}  // namespace start::tensor::qgemm
