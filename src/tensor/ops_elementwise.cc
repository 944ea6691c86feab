#include <cmath>
#include <functional>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace start::tensor {

namespace {

using internal::BinaryBackward;
using internal::BinaryForward;
using internal::ElementwisePlan;
using internal::MakeBinaryPlan;
using internal::MakeUnaryPlan;
using internal::UnaryBackward;
using internal::UnaryForward;

/// Shared scaffolding for broadcasting binary elementwise ops.
/// fwd(av, bv) computes the output value; da(av, bv) / db(av, bv) compute the
/// local partial derivatives d out / d a and d out / d b. Strided views feed
/// the kernel directly — no materialisation.
template <typename Fwd, typename Da, typename Db>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, Da da, Db db,
                const char* name) {
  START_CHECK(a.defined() && b.defined());
  const ElementwisePlan plan = MakeBinaryPlan(*a.impl(), *b.impl());
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  auto out = AcquireBuffer(plan.numel);
  BinaryForward(plan, a.impl()->base_ptr(), b.impl()->base_ptr(), out->data(),
                fwd);
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  auto backward = [plan, a_impl, b_impl, da, db](TensorImpl& self) {
    const bool need_a = a_impl->requires_grad;
    const bool need_b = b_impl->requires_grad;
    if (!need_a && !need_b) return;
    BinaryBackward(plan, a_impl->base_ptr(), b_impl->base_ptr(),
                   self.grad_ptr(), need_a ? a_impl->grad_ptr() : nullptr,
                   need_b ? b_impl->grad_ptr() : nullptr, da, db);
  };
  return MakeOpResultBuffer(out_shape, std::move(out), {a.impl(), b.impl()},
                            std::move(backward), name);
}

/// Shared scaffolding for unary elementwise ops. dfn(x, y) is the local
/// derivative given input x and output y. The output buffer itself is
/// captured for y-based derivative rules (sigmoid, tanh, exp) — no copy.
template <typename Fwd, typename Dfn>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfn dfn, const char* name) {
  START_CHECK(a.defined());
  const ElementwisePlan plan = MakeUnaryPlan(*a.impl());
  auto out = AcquireBuffer(plan.numel);
  UnaryForward(plan, a.impl()->base_ptr(), out->data(), fwd);
  auto a_impl = a.impl();
  auto y_buf = out;
  auto backward = [plan, a_impl, y_buf, dfn](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    UnaryBackward(plan, self.grad_ptr(), a_impl->base_ptr(), y_buf->data(),
                  a_impl->grad_ptr(), dfn);
  };
  return MakeOpResultBuffer(a.shape(), std::move(out), {a.impl()},
                            std::move(backward), name);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; },
      "add");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; },
      "mul");
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return -x; }, [](float, float) { return -1.0f; },
      "neg");
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return s * x; }, [s](float, float) { return s; },
      "scale");
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; },
      "add_scalar");
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "relu");
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(
      a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      },
      "leaky_relu");
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp(
      a,
      [alpha](float x) { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; },
      "elu");
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; }, "tanh");
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); }, "sigmoid");
}

Tensor Dropout(const Tensor& a, float p, bool training, common::Rng* rng) {
  START_CHECK(a.defined());
  START_CHECK_GE(p, 0.0f);
  START_CHECK_LT(p, 1.0f);
  if (!training || p == 0.0f) return a;
  // Mask sampling walks elements in logical order from a single generator, so
  // results are reproducible for a given rng state (pass an explicit rng to
  // seed it in tests; the global one is used otherwise).
  const Tensor ac = a.Contiguous();
  const int64_t n = ac.numel();
  const float keep_scale = 1.0f / (1.0f - p);
  auto mask = AcquireBuffer(n);
  common::Rng& r = rng != nullptr ? *rng : common::GlobalRng();
  auto out = AcquireBuffer(n);
  const float* pa = ac.data();
  float* pm = mask->data();
  float* po = out->data();
  for (int64_t i = 0; i < n; ++i) {
    const float m = r.Bernoulli(p) ? 0.0f : keep_scale;
    pm[i] = m;
    po[i] = pa[i] * m;
  }
  auto a_impl = ac.impl();
  auto backward = [a_impl, mask, n](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    const float* pm = mask->data();
    float* ga = a_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * pm[i];
  };
  return MakeOpResultBuffer(ac.shape(), std::move(out), {ac.impl()},
                            std::move(backward), "dropout");
}

}  // namespace start::tensor
