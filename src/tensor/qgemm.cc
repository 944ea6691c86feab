#include "tensor/qgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define START_QGEMM_HAVE_X86 1
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

/// Dequant epilogue for one row and one panel: every backend runs these
/// exact float ops in this exact order (GemmRowsVnni in 16 lanes), which is
/// what makes them bitwise interchangeable.
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

#if START_QGEMM_HAVE_X86
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

/// AVX-512 VNNI Gemm of R (1 to 4) activation rows against every panel of
/// `b`. One zmm holds two channels' 32-byte k-blocks and each activation
/// block is broadcast to both halves, so each loaded weight block serves all
/// R rows. vpdpbusd sums four u8 x s8 products into each i32 lane, with no
/// i16 stage: |w| is the u8 operand and the activation byte takes w's sign
/// (|w| * -a == a * w where w < 0; codes are never -128, so -a fits).
///
/// The epilogue reduces the 4 x 4 sums into one zmm ordered [row][channel]
/// and dequantizes 16 lanes at once with Dequant's operations in Dequant's
/// order: sa * sb, then float(acc) times that, then C plus the product.
/// Masked loads and stores leave rows >= R and columns >= b.rows untouched.
template <int R>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"),
               always_inline)) inline void
GemmRowsVnni(const int8_t* pa, const float* a_scales, const PackedMatrix& b,
             float* c, int64_t ldc) {
  static_assert(kRowsPerPanel == 4 && kColBlock == 32,
                "microkernel is written for 4x32 panels");
  const int64_t kp = b.cols_padded;
  const __m512i zero = _mm512_setzero_si512();
  // Lane 4r + ch of the reduced sums comes from lane order[4r + ch].
  const __m512i order = _mm512_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9,
                                          13, 10, 14, 11, 15);
  const __m512 sa = _mm512_permutexvar_ps(
      _mm512_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
      _mm512_castps128_ps512(_mm_maskz_loadu_ps((1 << R) - 1, a_scales)));
  for (int64_t j0 = 0; j0 < b.rows_padded; j0 += kRowsPerPanel) {
    const int8_t* panel = b.data.data() + j0 * kp;
    // acc[r][p]: row r against channels 2p (low half) and 2p + 1 (high).
    // Rows >= R stay zero.
    __m512i acc[4][2];
    for (int r = 0; r < 4; ++r) acc[r][0] = acc[r][1] = zero;
    for (int64_t kb = 0; kb < kp; kb += kColBlock) {
      const int8_t* pbk = panel + kb * kRowsPerPanel;
      const __m512i w01 = _mm512_loadu_si512(pbk);
      const __m512i w23 = _mm512_loadu_si512(pbk + 2 * kColBlock);
      const __m512i u01 = _mm512_abs_epi8(w01);
      const __m512i u23 = _mm512_abs_epi8(w23);
      const __mmask64 neg01 = _mm512_movepi8_mask(w01);
      const __mmask64 neg23 = _mm512_movepi8_mask(w23);
      for (int r = 0; r < R; ++r) {
        const __m512i va = _mm512_broadcast_i64x4(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(pa + r * kp + kb)));
        const __m512i na = _mm512_sub_epi8(zero, va);
        acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], u01,
                                        _mm512_mask_blend_epi8(neg01, va, na));
        acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], u23,
                                        _mm512_mask_blend_epi8(neg23, va, na));
      }
    }
    // Integer adds, so exact in any order: interleave the channel pairs,
    // then the row pairs, then fold the 128-bit lanes.
    __m512i u[4];
    for (int r = 0; r < 4; ++r) {
      u[r] = _mm512_add_epi32(_mm512_unpacklo_epi32(acc[r][0], acc[r][1]),
                              _mm512_unpackhi_epi32(acc[r][0], acc[r][1]));
    }
    const __m512i v01 = _mm512_add_epi32(_mm512_unpacklo_epi64(u[0], u[1]),
                                         _mm512_unpackhi_epi64(u[0], u[1]));
    const __m512i v23 = _mm512_add_epi32(_mm512_unpacklo_epi64(u[2], u[3]),
                                         _mm512_unpackhi_epi64(u[2], u[3]));
    const __m512i sums = _mm512_permutexvar_epi32(
        order, _mm512_add_epi32(_mm512_shuffle_i32x4(v01, v23, 0x88),
                                _mm512_shuffle_i32x4(v01, v23, 0xdd)));
    const int64_t jn = std::min(kRowsPerPanel, b.rows - j0);
    const __mmask8 cols = static_cast<__mmask8>((1 << jn) - 1);
    const __m512 sb =
        _mm512_broadcast_f32x4(_mm_maskz_loadu_ps(cols, b.scales.data() + j0));
    const __m512 prod =
        _mm512_mul_ps(_mm512_cvtepi32_ps(sums), _mm512_mul_ps(sa, sb));
    // Lane indices of insert/extract must be literals, also at -O0.
    float* c0 = c + j0;
    __m512 cv = _mm512_castps128_ps512(_mm_maskz_loadu_ps(cols, c0));
    if (R > 1) {
      cv = _mm512_insertf32x4(cv, _mm_maskz_loadu_ps(cols, c0 + ldc), 1);
    }
    if (R > 2) {
      cv = _mm512_insertf32x4(cv, _mm_maskz_loadu_ps(cols, c0 + 2 * ldc), 2);
    }
    if (R > 3) {
      cv = _mm512_insertf32x4(cv, _mm_maskz_loadu_ps(cols, c0 + 3 * ldc), 3);
    }
    cv = _mm512_add_ps(cv, prod);
    _mm_mask_storeu_ps(c0, cols, _mm512_castps512_ps128(cv));
    if (R > 1) _mm_mask_storeu_ps(c0 + ldc, cols, _mm512_extractf32x4_ps(cv, 1));
    if (R > 2) {
      _mm_mask_storeu_ps(c0 + 2 * ldc, cols, _mm512_extractf32x4_ps(cv, 2));
    }
    if (R > 3) {
      _mm_mask_storeu_ps(c0 + 3 * ldc, cols, _mm512_extractf32x4_ps(cv, 3));
    }
  }
}

/// Four rows per pass; the last one to three rows run as one block.
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void GemmVnni(
    const int8_t* aq, const float* a_scales, int64_t m, const PackedMatrix& b,
    float* c, int64_t ldc) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmRowsVnni<4>(aq + i * b.cols_padded, a_scales + i, b, c + i * ldc, ldc);
  }
  const int8_t* pa = aq + i * b.cols_padded;
  switch (m - i) {
    case 3: return GemmRowsVnni<3>(pa, a_scales + i, b, c + i * ldc, ldc);
    case 2: return GemmRowsVnni<2>(pa, a_scales + i, b, c + i * ldc, ldc);
    case 1: return GemmRowsVnni<1>(pa, a_scales + i, b, c + i * ldc, ldc);
  }
}
#endif  // START_QGEMM_HAVE_X86

void QuantizeRow(const float* src, int64_t cols, int8_t* dst, float* scale,
                 Backend backend) {
#if START_QGEMM_HAVE_X86
  // kAvx512Vnni quantizes with the AVX2 code too.
  if (backend != Backend::kScalar) {
    return QuantizeRowAvx2(src, cols, dst, scale);
  }
#endif
  (void)backend;
  QuantizeRowScalar(src, cols, dst, scale);
}

}  // namespace

const std::vector<Backend>& SupportedBackends() {
  static const std::vector<Backend> backends = [] {
    std::vector<Backend> v = {Backend::kScalar};
#if START_QGEMM_HAVE_X86
    if (__builtin_cpu_supports("avx2")) v.push_back(Backend::kAvx2);
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni")) {
      v.push_back(Backend::kAvx512Vnni);
    }
#endif
    return v;
  }();
  return backends;
}

Backend ActiveBackend() {
  static const Backend backend = SupportedBackends().back();
  return backend;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512Vnni: return "avx512vnni";
  }
  return "unknown";
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
#if START_QGEMM_HAVE_X86
  if (backend == Backend::kAvx512Vnni) {
    return GemmVnni(aq, a_scales, m, b, c, ldc);
  }
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
