#ifndef START_TENSOR_QGEMM_H_
#define START_TENSOR_QGEMM_H_

#include <cstdint>
#include <vector>

/// \file
/// Post-training int8 GEMM for the frozen serving plane.
///
/// Scheme (marian-style symmetric per-row quantization):
///  - Weights are stored output-channel-major ([N, K], i.e. the B^T layout of
///    GemmNT) and quantized per row with absmax scales: s_j = absmax_j / 127,
///    q = clamp(round_half_even(x / s_j), -127, 127). A zero row gets s = 0
///    and all-zero codes, so dequantization is exact there too.
///  - Activations are quantized dynamically per batch row with the same
///    per-row absmax scheme.
///  - The dot products accumulate in exact i32 arithmetic and dequantize once
///    per output element: C[i,j] += float(acc) * (sa_i * sb_j), a multiply
///    and then an add, never a fused multiply-add. Because the integer part
///    is exact and every backend runs this one float epilogue, results are
///    bitwise identical between the scalar reference and each SIMD kernel.
///    The AVX-512 kernel is compiled for a target that has FMA, so the
///    "never fused" half is a build property: start_tensor is compiled with
///    -ffp-contract=off (CMakeLists.txt), which stops GCC and clang from
///    contracting `c += x * y`. tests/property_test.cc checks this bit for
///    bit; clang is covered only where its CI job runs those tests.
///
/// Packing layout (cache-blocked panels): rows are grouped into panels of
/// kRowsPerPanel output channels; within a panel the K dimension is split
/// into blocks of kColBlock bytes, stored as [k-block][row-in-panel], so the
/// microkernel streams one contiguous cache line per (row, k-block) step.
/// Both K and N are zero-padded to multiples of the block sizes; padding
/// contributes exact zeros to every dot product.
///
/// i32 accumulation is exact while K * 127 * 127 < 2^31, i.e. K <= ~133k —
/// far above any model width here; Pack CHECK-enforces the bound.

namespace start::tensor::qgemm {

/// Output channels interleaved per packed panel.
inline constexpr int64_t kRowsPerPanel = 4;
/// K-dimension block (bytes per row per step): 32 int8 codes, one ymm
/// register (the AVX-512 kernel loads two channels' blocks per zmm).
inline constexpr int64_t kColBlock = 32;

/// A quantized, panel-packed weight matrix (logical [rows, cols] = [N, K]).
struct PackedMatrix {
  int64_t rows = 0;         ///< N: output channels.
  int64_t cols = 0;         ///< K: reduction depth.
  int64_t rows_padded = 0;  ///< rows rounded up to kRowsPerPanel.
  int64_t cols_padded = 0;  ///< cols rounded up to kColBlock.
  std::vector<int8_t> data;   ///< rows_padded * cols_padded packed bytes.
  std::vector<float> scales;  ///< [rows] per-row dequant scales.
};

/// Kernel backends, all bitwise identical in codes, scales and output:
///  - kScalar: the portable reference (the oracle tests compare against);
///  - kAvx2: quantizer eight floats per step; GEMM with sign transfer +
///    maddubs + madd, two activation rows per loaded weight block;
///  - kAvx512Vnni: the kAvx2 quantizer; GEMM with vpdpbusd (four u8 x s8
///    products summed into each i32 lane) over |w| and the activation with
///    w's sign, four activation rows per loaded weight block.
/// Calling a backend the CPU lacks is undefined (an illegal instruction).
enum class Backend { kScalar, kAvx2, kAvx512Vnni };

/// Every backend this CPU can run, in enum order (kScalar first), checked
/// once with __builtin_cpu_supports: kAvx2 needs avx2; kAvx512Vnni needs
/// avx512f, avx512bw, avx512vl and avx512vnni.
const std::vector<Backend>& SupportedBackends();
/// The backend the host dispatches to: the last of SupportedBackends().
Backend ActiveBackend();
const char* BackendName(Backend backend);

/// \brief Per-row absmax int8 quantization of `rows` x `cols` floats read
/// with leading dimension `ld` (so strided views / submatrices quantize
/// without materialisation). Writes dense row-major [rows, cols] codes and
/// one scale per row. A NaN input is left out of its row's absmax and gets
/// code -127.
void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales, Backend backend);
void QuantizeRows(const float* src, int64_t ld, int64_t rows, int64_t cols,
                  int8_t* dst, float* scales);

/// Packs dense row-major [rows, cols] int8 codes (+ per-row scales) into the
/// panel layout above.
PackedMatrix Pack(const int8_t* q, const float* scales, int64_t rows,
                  int64_t cols);

/// Quantize + pack in one step from f32 row-major [rows, cols] with leading
/// dimension `ld`.
PackedMatrix QuantizeAndPack(const float* src, int64_t ld, int64_t rows,
                             int64_t cols);

/// Round-trip of Pack: recovers the dense row-major [rows, cols] int8 codes
/// (padding dropped). Pack(Unpack(m)) == m bitwise.
std::vector<int8_t> Unpack(const PackedMatrix& m);

/// \brief Quantizes `m` activation rows of `a` (f32, leading dimension
/// `lda`) against packed weights `b`: writes int8 codes with leading
/// dimension b.cols_padded (the k-tail [cols, cols_padded) zero-filled) and
/// one scale per row. `aq` must hold m * b.cols_padded bytes.
void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales,
                         Backend backend);
void QuantizeActivations(const float* a, int64_t lda, int64_t m,
                         const PackedMatrix& b, int8_t* aq, float* a_scales);

/// \brief C[m, b.rows] (ldc) += dequant(Aq · Bq^T): i32 accumulate over the
/// quantized codes, then += float(acc) * (a_scales[i] * b.scales[j]).
///
/// `aq` is the QuantizeActivations output (leading dimension b.cols_padded).
/// Columns [b.rows, ldc) of C are never touched. Bitwise invariant in
/// backend.
void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc, Backend backend);
void Gemm(const int8_t* aq, const float* a_scales, int64_t m,
          const PackedMatrix& b, float* c, int64_t ldc);

/// \brief One-call affine epilogue for nn::Linear's frozen int8 path:
/// y[m, b.rows] (ldy) = dequant(quantize(x) · Bq^T) + bias, overwriting y
/// (bias may be null = zero). Uses thread-local scratch for the quantized
/// activations, so steady-state serving allocates nothing.
void AffineForward(const float* x, int64_t ldx, int64_t m,
                   const PackedMatrix& b, const float* bias, float* y,
                   int64_t ldy);

}  // namespace start::tensor::qgemm

#endif  // START_TENSOR_QGEMM_H_
