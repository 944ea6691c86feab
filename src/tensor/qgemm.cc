#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
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

/// The code of one scaled value: rounded half to even, clamped to
/// [-127, 127]. The symmetric range (not -128) keeps the AVX2 maddubs
/// pair-sums within i16 (127*127*2 < 32767), so the SIMD path never
/// saturates. NaN gets -127 (x86's conversion of NaN, 0x80000000, clamped),
/// spelled out because the C++ cast of NaN is undefined.
inline int8_t Code(float v) {
  if (std::isnan(v)) return -127;
  const int32_t q = static_cast<int32_t>(std::nearbyintf(v));
  return static_cast<int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
}

/// Scalar reference quantizer of one row of `cols` floats: absmax scale,
/// then Code(x / scale) per element. NaN inputs do not count toward the
/// absmax.
void QuantizeRowScalar(const float* src, int64_t cols, int8_t* dst,
                       float* scale) {
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
  for (int64_t k = 0; k < cols; ++k) dst[k] = Code(src[k] * inv);
}

/// Shared dequant epilogue for one row and one panel: both backends run
/// these exact float ops in this exact order, which is what makes them
/// bitwise interchangeable.
inline void Dequant(const int32_t acc[kRowsPerPanel], float sa,
                    const float* b_scales, int64_t jn, float* crow) {
  for (int64_t r = 0; r < jn; ++r) {
    crow[r] += static_cast<float>(acc[r]) * (sa * b_scales[r]);
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
/// The same quantizer, eight floats per step. _mm256_max_ps(x, m) returns m
/// when x is NaN, as std::max(m, x) does; _mm256_cvtps_epi32 rounds half to
/// even under the default MXCSR, like nearbyintf, and turns NaN into
/// 0x80000000. Codes are bitwise those of QuantizeRowScalar.
__attribute__((target("avx2"))) void QuantizeRowAvx2(const float* src,
                                                     int64_t cols, int8_t* dst,
                                                     float* scale) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  int64_t k = 0;
  for (; k + 8 <= cols; k += 8) {
    vmax = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(src + k), abs_mask),
                         vmax);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float absmax = 0.0f;
  for (const float lane : lanes) absmax = std::max(absmax, lane);
  for (; k < cols; ++k) absmax = std::max(absmax, std::fabs(src[k]));
  if (absmax == 0.0f) {
    *scale = 0.0f;
    std::memset(dst, 0, static_cast<size_t>(cols));
    return;
  }
  *scale = absmax / 127.0f;
  const float inv = 127.0f / absmax;
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  // packs interleaves 128-bit lanes; this restores element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
#define START_QGEMM_CODES(off)                                              \
  _mm256_min_epi32(                                                         \
      _mm256_max_epi32(                                                     \
          _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(src + k + (off)), \
                                           vinv)),                          \
          lo),                                                              \
      hi)
  k = 0;
  for (; k + 32 <= cols; k += 32) {
    const __m256i q01 = _mm256_packs_epi32(START_QGEMM_CODES(0),
                                           START_QGEMM_CODES(8));
    const __m256i q23 = _mm256_packs_epi32(START_QGEMM_CODES(16),
                                           START_QGEMM_CODES(24));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + k),
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(q01, q23), order));
  }
#undef START_QGEMM_CODES
  for (; k < cols; ++k) dst[k] = Code(src[k] * inv);
}

/// Reduces one row's four channel accumulators: lane r of the result is the
/// i32 total of a_r (integer adds, so exact in any order).
__attribute__((target("avx2"), always_inline)) inline __m128i ReduceFour(
    __m256i a0, __m256i a1, __m256i a2, __m256i a3) {
  const __m256i s = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                      _mm256_hadd_epi32(a2, a3));
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

/// AVX2 Gemm of R (1 or 2) activation rows, leading dimension b.cols_padded,
/// against every panel of `b`; each loaded weight block serves all R rows.
/// maddubs wants u8 x s8, so the activation's sign is transferred onto the
/// weight byte (|a| * (b * sign(a)) == a * b; a == 0 zeroes the weight
/// byte). With codes in [-127, 127] the two-product i16 pair-sums cannot
/// saturate; madd against ones widens to exact i32.
template <int R>
__attribute__((target("avx2"), always_inline)) inline void GemmRowsAvx2(
    const int8_t* pa, const float* a_scales, const PackedMatrix& b, float* c,
    int64_t ldc) {
  static_assert(kRowsPerPanel == 4 && kColBlock == 32,
                "microkernel is written for 4x32 panels");
  const int64_t kp = b.cols_padded;
  const __m256i ones = _mm256_set1_epi16(1);
  for (int64_t j0 = 0; j0 < b.rows_padded; j0 += kRowsPerPanel) {
    const int8_t* panel = b.data.data() + j0 * kp;
    __m256i acc[R][kRowsPerPanel];
    for (int r = 0; r < R; ++r) {
      for (int ch = 0; ch < kRowsPerPanel; ++ch) {
        acc[r][ch] = _mm256_setzero_si256();
      }
    }
    for (int64_t kb = 0; kb < kp; kb += kColBlock) {
      const __m256i* pbk =
          reinterpret_cast<const __m256i*>(panel + kb * kRowsPerPanel);
      __m256i w[kRowsPerPanel];
      for (int ch = 0; ch < kRowsPerPanel; ++ch) {
        w[ch] = _mm256_loadu_si256(pbk + ch);
      }
      for (int r = 0; r < R; ++r) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + r * kp + kb));
        const __m256i absa = _mm256_abs_epi8(va);
        for (int ch = 0; ch < kRowsPerPanel; ++ch) {
          acc[r][ch] = _mm256_add_epi32(
              acc[r][ch],
              _mm256_madd_epi16(
                  _mm256_maddubs_epi16(absa, _mm256_sign_epi8(w[ch], va)),
                  ones));
        }
      }
    }
    const int64_t jn = std::min(kRowsPerPanel, b.rows - j0);
    for (int r = 0; r < R; ++r) {
      alignas(16) int32_t sums[kRowsPerPanel];
      _mm_store_si128(reinterpret_cast<__m128i*>(sums),
                      ReduceFour(acc[r][0], acc[r][1], acc[r][2], acc[r][3]));
      Dequant(sums, a_scales[r], b.scales.data() + j0, jn, c + r * ldc + j0);
    }
  }
}

/// Two rows per pass; an odd last row runs alone.
__attribute__((target("avx2"))) void GemmAvx2(const int8_t* aq,
                                              const float* a_scales, int64_t m,
                                              const PackedMatrix& b, float* c,
                                              int64_t ldc) {
  int64_t i = 0;
  for (; i + 2 <= m; i += 2) {
    GemmRowsAvx2<2>(aq + i * b.cols_padded, a_scales + i, b, c + i * ldc, ldc);
  }
  if (i < m) {
    GemmRowsAvx2<1>(aq + i * b.cols_padded, a_scales + i, b, c + i * ldc, ldc);
  }
}
#endif  // START_QGEMM_HAVE_AVX2

void QuantizeRow(const float* src, int64_t cols, int8_t* dst, float* scale,
                 Backend backend) {
#if START_QGEMM_HAVE_AVX2
  if (backend == Backend::kAvx2) return QuantizeRowAvx2(src, cols, dst, scale);
#endif
  (void)backend;
  QuantizeRowScalar(src, cols, dst, scale);
}

}  // namespace

Backend ActiveBackend() {
  static const Backend backend = [] {
#if START_QGEMM_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
    return Backend::kScalar;
  }();
  return backend;
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales, Backend backend) {
  for (int64_t i = 0; i < rows; ++i) {
    QuantizeRow(src + i * ld, cols, dst + i * cols, &scales[i], backend);
  }
}

void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales) {
  QuantizeRows(src, ld, rows, cols, dst, scales, ActiveBackend());
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
                         const PackedMatrix& b, int8_t* aq, float* a_scales,
                         Backend backend) {
  for (int64_t i = 0; i < m; ++i) {
    int8_t* row = aq + i * b.cols_padded;
    QuantizeRow(a + i * lda, b.cols, row, &a_scales[i], backend);
    if (b.cols_padded > b.cols) {
      std::memset(row + b.cols, 0, static_cast<size_t>(b.cols_padded - b.cols));
    }
  }
}

void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales) {
  QuantizeActivations(a, lda, m, b, aq, a_scales, ActiveBackend());
}

void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc, Backend backend) {
#if START_QGEMM_HAVE_AVX2
  if (backend == Backend::kAvx2) return GemmAvx2(aq, a_scales, m, b, c, ldc);
#endif
  (void)backend;
  const int64_t panels = b.rows_padded / kRowsPerPanel;
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* pa = aq + i * b.cols_padded;
    for (int64_t p = 0; p < panels; ++p) {
      int32_t acc[kRowsPerPanel];
      PanelDotScalar(pa, b.data.data() + p * kRowsPerPanel * b.cols_padded,
                     b.cols_padded, acc);
      const int64_t j0 = p * kRowsPerPanel;
      Dequant(acc, a_scales[i], b.scales.data() + j0,
              std::min(kRowsPerPanel, b.rows - j0), c + i * ldc + j0);
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
