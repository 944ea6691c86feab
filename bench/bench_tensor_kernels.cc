// Microbenchmark for the tensor kernels:
//  - the elementwise engine: broadcast and same-shape ops at
//    transformer-pretraining shapes [B=64, T=128, D=256], against a faithful
//    reimplementation of the seed's scalar div/mod broadcast loop;
//  - the GEMM kernels at one d=192 encoder layer's shapes (L=161 roads,
//    head width 48 inside rows of 192): attention scores (GemmNT), context
//    (GemmNN) and an int8 projection (qgemm::AffineForward), each against
//    its scalar reference, whose output it must match bit for bit;
//  - the int8 GEMM (qgemm::Gemm) on every backend this CPU supports, at
//    m = 45 and 720 activation rows and the three (K, N) shapes of a d=192
//    encoder layer, in GMAC/s; each backend's output must match the scalar
//    backend's bit for bit. These rates depend on the CPU, so they are
//    written under "int8_gemm", apart from the "benchmarks" speedups that
//    tools/check_bench_regression.py compares with a baseline.
// Emits BENCH_tensor.json so CI tracks the kernel perf trajectory.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_tensor_kernels
//   ./build/bench_tensor_kernels
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"

namespace {

using start::common::Rng;
using start::common::Stopwatch;
using start::tensor::NoGradGuard;
using start::tensor::Shape;
using start::tensor::Tensor;

constexpr int64_t kB = 64, kT = 128, kD = 256;

/// The seed's broadcast indexing: per output element, a div/mod walk over the
/// padded dims recovers each input's flat index. Kept verbatim as the
/// baseline the fused kernels are measured against.
struct ScalarBroadcastMap {
  std::array<int64_t, 4> out_dims{};
  std::array<int64_t, 4> a_strides{};
  std::array<int64_t, 4> b_strides{};
  int64_t numel = 0;

  void Map(int64_t flat, int64_t* ia, int64_t* ib) const {
    int64_t a = 0;
    int64_t b = 0;
    for (int d = 3; d >= 0; --d) {
      const int64_t q = flat % out_dims[d];
      flat /= out_dims[d];
      a += q * a_strides[d];
      b += q * b_strides[d];
    }
    *ia = a;
    *ib = b;
  }
};

ScalarBroadcastMap MakeScalarMap(const Shape& a, const Shape& b) {
  const Shape out = start::tensor::BroadcastShapes(a, b);
  ScalarBroadcastMap map;
  map.numel = out.numel();
  map.out_dims.fill(1);
  map.a_strides.fill(0);
  map.b_strides.fill(0);
  for (int64_t i = 0; i < out.ndim(); ++i) {
    map.out_dims[static_cast<size_t>(3 - i)] = out.dim(out.ndim() - 1 - i);
  }
  auto fill = [&](const Shape& s, std::array<int64_t, 4>* st) {
    int64_t stride = 1;
    for (int64_t i = 0; i < s.ndim(); ++i) {
      const int64_t d = s.dim(s.ndim() - 1 - i);
      const size_t slot = static_cast<size_t>(3 - i);
      (*st)[slot] = (d == 1 && map.out_dims[slot] != 1) ? 0 : stride;
      stride *= d;
    }
  };
  fill(a, &map.a_strides);
  fill(b, &map.b_strides);
  return map;
}

void ScalarBroadcastAdd(const ScalarBroadcastMap& map, const float* pa,
                        const float* pb, float* out) {
  for (int64_t i = 0; i < map.numel; ++i) {
    int64_t ia, ib;
    map.Map(i, &ia, &ib);
    out[i] = pa[ia] + pb[ib];
  }
}

struct BenchResult {
  std::string name;
  double scalar_ms = 0.0;  // seed loop or scalar reference
  double kernel_ms = 0.0;
  double speedup = 0.0;
};

/// Median-of-`iters` wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int iters, Fn fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    fn();
    samples.push_back(sw.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

BenchResult BenchBroadcast(const char* name, const Shape& sa, const Shape& sb,
                           int iters) {
  Rng rng(42);
  const Tensor a = Tensor::Rand(sa, &rng, -1, 1);
  const Tensor b = Tensor::Rand(sb, &rng, -1, 1);
  const ScalarBroadcastMap map = MakeScalarMap(sa, sb);
  std::vector<float> scalar_out(static_cast<size_t>(map.numel));

  BenchResult r;
  r.name = name;
  r.scalar_ms = TimeMs(iters, [&] {
    ScalarBroadcastAdd(map, a.data(), b.data(), scalar_out.data());
  });
  NoGradGuard no_grad;
  Tensor sink;  // keep the result alive so the write isn't elided
  r.kernel_ms = TimeMs(iters, [&] { sink = start::tensor::Add(a, b); });
  // Cross-check: both paths must agree elementwise.
  for (int64_t i = 0; i < map.numel; ++i) {
    const float diff = scalar_out[static_cast<size_t>(i)] - sink.data()[i];
    if (diff > 1e-6f || diff < -1e-6f) {
      std::fprintf(stderr, "MISMATCH in %s at %lld\n", name,
                   static_cast<long long>(i));
      std::exit(1);
    }
  }
  r.speedup = r.scalar_ms / r.kernel_ms;
  return r;
}

/// Encoder-layer shapes of the GEMM rows: sequence length, head width and
/// model width (the row stride of a head's slice of Q, K and V).
constexpr int64_t kL = 161, kHead = 48, kModel = 192;

std::vector<float> RandomFloats(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

/// Exits 1 unless one call of `reference` (writing `a`) and one of `kernel`
/// (writing `b`), both starting from `init`, give bitwise-equal outputs;
/// then times each, one call per sample.
template <typename Ref, typename Kernel>
BenchResult BenchAgainstReference(const char* name, int iters,
                                  const std::vector<float>& init,
                                  std::vector<float>* a, std::vector<float>* b,
                                  Ref reference, Kernel kernel) {
  *a = init;
  *b = init;
  reference();
  kernel();
  if (std::memcmp(a->data(), b->data(), a->size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "MISMATCH in %s: kernel differs from its scalar "
                 "reference\n", name);
    std::exit(1);
  }
  BenchResult r;
  r.name = name;
  r.scalar_ms = TimeMs(iters, reference);
  r.kernel_ms = TimeMs(iters, kernel);
  r.speedup = r.scalar_ms / r.kernel_ms;
  return r;
}

/// Attention scores of one head: C[L, L] += Q_h K_h^T, head slices read in
/// place from [L, 192] rows.
BenchResult BenchAttentionScores(int iters) {
  namespace in = start::tensor::internal;
  Rng rng(7);
  const std::vector<float> q = RandomFloats(kL * kModel, &rng);
  const std::vector<float> k = RandomFloats(kL * kModel, &rng);
  const std::vector<float> init(static_cast<size_t>(kL * kL), 0.0f);
  std::vector<float> ref, out;
  return BenchAgainstReference(
      "gemm_nt_scores_L161_h48_ld192", iters, init, &ref, &out,
      [&] {
        in::GemmNTReference(q.data(), kModel, k.data(), kModel, ref.data(),
                            kL, kL, kHead, kL);
      },
      [&] {
        in::GemmNT(q.data(), kModel, k.data(), kModel, out.data(), kL, kL,
                   kHead, kL);
      });
}

/// Attention context of one head: C[L, 48] += P V_h with P the [L, L]
/// softmax (zeros past each row's length, as padding leaves them) and V_h a
/// head slice of [L, 192] rows.
BenchResult BenchAttentionContext(int iters) {
  namespace in = start::tensor::internal;
  Rng rng(8);
  std::vector<float> p = RandomFloats(kL * kL, &rng);
  for (int64_t i = 0; i < kL; ++i) {
    for (int64_t j = kL - 16; j < kL; ++j) p[static_cast<size_t>(i * kL + j)] = 0;
  }
  const std::vector<float> v = RandomFloats(kL * kModel, &rng);
  const std::vector<float> init(static_cast<size_t>(kL * kHead), 0.0f);
  std::vector<float> ref, out;
  return BenchAgainstReference(
      "gemm_nn_context_L161_h48_ld192", iters, init, &ref, &out,
      [&] {
        in::GemmNNReference(p.data(), kL, v.data(), kModel, ref.data(), kHead,
                            kL, kL, kHead);
      },
      [&] {
        in::GemmNN(p.data(), kL, v.data(), kModel, out.data(), kHead, kL, kL,
                   kHead);
      });
}

/// One int8 projection Linear at d=192 over L rows: the scalar reference is
/// QuantizeActivations + bias + Gemm on qgemm::Backend::kScalar.
BenchResult BenchInt8Projection(int iters) {
  namespace qg = start::tensor::qgemm;
  Rng rng(9);
  const std::vector<float> x = RandomFloats(kL * kModel, &rng);
  const std::vector<float> w = RandomFloats(kModel * kModel, &rng);
  const std::vector<float> bias = RandomFloats(kModel, &rng);
  const qg::PackedMatrix packed =
      qg::QuantizeAndPack(w.data(), kModel, kModel, kModel);
  std::vector<int8_t> aq(static_cast<size_t>(kL * packed.cols_padded));
  std::vector<float> scales(static_cast<size_t>(kL));
  const std::vector<float> init(static_cast<size_t>(kL * kModel), 0.0f);
  std::vector<float> ref, out;
  return BenchAgainstReference(
      "int8_affine_forward_L161_d192", iters, init, &ref, &out,
      [&] {
        qg::QuantizeActivations(x.data(), kModel, kL, packed, aq.data(),
                                scales.data(), qg::Backend::kScalar);
        for (int64_t i = 0; i < kL; ++i) {
          std::memcpy(ref.data() + i * kModel, bias.data(),
                      sizeof(float) * static_cast<size_t>(kModel));
        }
        qg::Gemm(aq.data(), scales.data(), kL, packed, ref.data(), kModel,
                 qg::Backend::kScalar);
      },
      [&] {
        qg::AffineForward(x.data(), kModel, kL, packed, bias.data(),
                          out.data(), kModel);
      });
}

struct Int8GemmResult {
  std::string backend;
  int64_t m = 0, k = 0, n = 0;
  double ms = 0.0;
  double gmacs = 0.0;  // m * k * n multiply-adds per second, / 1e9
};

/// qgemm::Gemm of m pre-quantized rows against a packed [n, k] matrix on
/// every supported backend; exits 1 unless each output matches the scalar
/// backend's bit for bit.
void BenchInt8Gemm(int64_t m, int64_t k, int64_t n,
                   std::vector<Int8GemmResult>* out) {
  namespace qg = start::tensor::qgemm;
  Rng rng(10);
  const std::vector<float> w = RandomFloats(n * k, &rng);
  const std::vector<float> x = RandomFloats(m * k, &rng);
  const std::vector<float> init = RandomFloats(m * n, &rng);
  const qg::PackedMatrix packed = qg::QuantizeAndPack(w.data(), k, n, k);
  std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
  std::vector<float> scales(static_cast<size_t>(m));
  qg::QuantizeActivations(x.data(), k, m, packed, aq.data(), scales.data());
  std::vector<float> ref = init;
  qg::Gemm(aq.data(), scales.data(), m, packed, ref.data(), n,
           qg::Backend::kScalar);
  for (const qg::Backend backend : qg::SupportedBackends()) {
    std::vector<float> c = init;
    qg::Gemm(aq.data(), scales.data(), m, packed, c.data(), n, backend);
    if (std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "MISMATCH in int8 gemm m=%ld k=%ld n=%ld: %s "
                   "backend differs from scalar\n", m, k, n,
                   qg::BackendName(backend));
      std::exit(1);
    }
    Int8GemmResult r;
    r.backend = qg::BackendName(backend);
    r.m = m;
    r.k = k;
    r.n = n;
    // C keeps accumulating across samples; only the time is used.
    r.ms = TimeMs(backend == qg::Backend::kScalar ? 5 : 31, [&] {
      qg::Gemm(aq.data(), scales.data(), m, packed, c.data(), n, backend);
    });
    r.gmacs = static_cast<double>(m * k * n) / (r.ms * 1e6);
    out->push_back(r);
  }
}

}  // namespace

int main() {
  std::vector<BenchResult> results;
  // The acceptance shape: [B=64, T=128, D=256] broadcast elementwise.
  results.push_back(
      BenchBroadcast("add_broadcast_row_B64_T128_D256", Shape({kB, kT, kD}),
                     Shape({kD}), 9));
  results.push_back(
      BenchBroadcast("add_broadcast_col_B64_T128_D256", Shape({kB, kT, kD}),
                     Shape({kB, kT, 1}), 9));
  results.push_back(BenchBroadcast("add_same_shape_B64_T128_D256",
                                   Shape({kB, kT, kD}), Shape({kB, kT, kD}),
                                   9));
  results.push_back(BenchAttentionScores(51));
  results.push_back(BenchAttentionContext(51));
  results.push_back(BenchInt8Projection(51));
  std::vector<Int8GemmResult> int8_gemm;
  for (const int64_t m : {int64_t{45}, int64_t{720}}) {
    for (const auto& [k, n] : {std::pair<int64_t, int64_t>{192, 192},
                               {192, 768},
                               {768, 192}}) {
      BenchInt8Gemm(m, k, n, &int8_gemm);
    }
  }

  std::FILE* json = std::fopen("BENCH_tensor.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_tensor.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("%-36s scalar %8.3f ms   kernel %8.3f ms   speedup %5.2fx\n",
                r.name.c_str(), r.scalar_ms, r.kernel_ms, r.speedup);
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"scalar_ms\": %.4f, "
                 "\"kernel_ms\": %.4f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.scalar_ms, r.kernel_ms, r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"int8_gemm\": [\n");
  for (size_t i = 0; i < int8_gemm.size(); ++i) {
    const auto& r = int8_gemm[i];
    std::printf("int8_gemm %-10s m=%-3ld k=%-3ld n=%-3ld %8.3f ms %7.2f "
                "GMAC/s\n",
                r.backend.c_str(), r.m, r.k, r.n, r.ms, r.gmacs);
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"m\": %ld, \"k\": %ld, "
                 "\"n\": %ld, \"ms\": %.4f, \"gmac_per_s\": %.3f}%s\n",
                 r.backend.c_str(), r.m, r.k, r.n, r.ms, r.gmacs,
                 i + 1 < int8_gemm.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_tensor.json\n");

  // Acceptance gate: broadcast elementwise must beat the seed scalar loop 2x.
  for (const auto& r : results) {
    if (r.name.find("broadcast") != std::string::npos &&
        r.speedup < 2.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx < 2x\n", r.name.c_str(),
                   r.speedup);
      return 1;
    }
  }
  return 0;
}
