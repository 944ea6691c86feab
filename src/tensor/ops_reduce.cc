#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace start::tensor {

Tensor Mean(const Tensor& a) {
  START_CHECK(a.defined());
  const Tensor ac = a.Contiguous();
  const int64_t n = ac.numel();
  START_CHECK_GT(n, 0);
  double acc = 0.0;
  const float* pa = ac.data();
  for (int64_t i = 0; i < n; ++i) acc += pa[i];
  const float inv = 1.0f / static_cast<float>(n);
  auto a_impl = ac.impl();
  auto backward = [a_impl, n, inv](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float g = self.grad_ptr()[0] * inv;
    float* ga = a_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) ga[i] += g;
  };
  return MakeOpResult(Shape({1}), {static_cast<float>(acc / n)}, {ac.impl()},
                      std::move(backward), "mean");
}

namespace {

int64_t LastDim(const Tensor& a) { return a.shape().dim(-1); }

}  // namespace

Tensor SoftmaxLastDim(const Tensor& a) {
  START_CHECK(a.defined());
  const Tensor ac = a.Contiguous();
  const int64_t d = LastDim(ac);
  const int64_t rows = ac.numel() / d;
  auto out = AcquireBuffer(ac.numel());
  const float* pa = ac.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = pa + r * d;
    float* y = out->data() + r * d;
    float mx = x[0];
    for (int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
    float sum = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      y[i] = std::exp(x[i] - mx);
      sum += y[i];
    }
    const float inv = 1.0f / sum;
    for (int64_t i = 0; i < d; ++i) y[i] *= inv;
  }
  auto a_impl = ac.impl();
  // The output buffer is the saved softmax for the backward pass — no copy.
  auto y_buf = out;
  auto backward = [a_impl, y_buf, rows, d](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = a_impl->grad_ptr();
    const float* y = y_buf->data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* yr = y + r * d;
      const float* gr = g + r * d;
      float dot = 0.0f;
      for (int64_t i = 0; i < d; ++i) dot += yr[i] * gr[i];
      float* gar = ga + r * d;
      for (int64_t i = 0; i < d; ++i) gar[i] += yr[i] * (gr[i] - dot);
    }
  };
  return MakeOpResultBuffer(ac.shape(), std::move(out), {ac.impl()},
                            std::move(backward), "softmax");
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  START_CHECK(x.defined());
  const Tensor xc = x.Contiguous();
  const Tensor gc = gamma.Contiguous();
  const Tensor bc = beta.Contiguous();
  const int64_t d = LastDim(xc);
  START_CHECK_EQ(gc.numel(), d);
  START_CHECK_EQ(bc.numel(), d);
  const int64_t rows = xc.numel() / d;
  auto out = AcquireBuffer(xc.numel());
  // Save normalised values and inverse stddevs for the backward pass.
  auto xhat = AcquireBuffer(xc.numel());
  auto inv_std = AcquireBuffer(rows);
  const float* px = xc.data();
  const float* pg = gc.data();
  const float* pb = bc.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = px + r * d;
    float mean = 0.0f;
    for (int64_t i = 0; i < d; ++i) mean += xr[i];
    mean /= static_cast<float>(d);
    float var = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      const float c = xr[i] - mean;
      var += c * c;
    }
    var /= static_cast<float>(d);
    const float istd = 1.0f / std::sqrt(var + eps);
    (*inv_std)[static_cast<size_t>(r)] = istd;
    float* hr = xhat->data() + r * d;
    float* yr = out->data() + r * d;
    for (int64_t i = 0; i < d; ++i) {
      hr[i] = (xr[i] - mean) * istd;
      yr[i] = hr[i] * pg[i] + pb[i];
    }
  }
  auto x_impl = xc.impl();
  auto g_impl = gc.impl();
  auto b_impl = bc.impl();
  auto backward = [x_impl, g_impl, b_impl, xhat, inv_std, rows,
                   d](TensorImpl& self) {
    const float* g = self.grad_ptr();
    const float* pg = g_impl->data_ptr();
    for (int64_t r = 0; r < rows; ++r) {
      const float* gr = g + r * d;
      const float* hr = xhat->data() + r * d;
      if (g_impl->requires_grad) {
        float* gg = g_impl->grad_ptr();
        for (int64_t i = 0; i < d; ++i) gg[i] += gr[i] * hr[i];
      }
      if (b_impl->requires_grad) {
        float* gb = b_impl->grad_ptr();
        for (int64_t i = 0; i < d; ++i) gb[i] += gr[i];
      }
      if (x_impl->requires_grad) {
        // dx = istd/d * (d*dy*gamma - sum(dy*gamma) - xhat * sum(dy*gamma*xhat))
        const float istd = (*inv_std)[static_cast<size_t>(r)];
        float sum1 = 0.0f, sum2 = 0.0f;
        for (int64_t i = 0; i < d; ++i) {
          const float dyg = gr[i] * pg[i];
          sum1 += dyg;
          sum2 += dyg * hr[i];
        }
        float* gx = x_impl->grad_ptr() + r * d;
        const float invd = 1.0f / static_cast<float>(d);
        for (int64_t i = 0; i < d; ++i) {
          const float dyg = gr[i] * pg[i];
          gx[i] += istd * (dyg - invd * sum1 - invd * hr[i] * sum2);
        }
      }
    }
  };
  return MakeOpResultBuffer(xc.shape(), std::move(out),
                            {xc.impl(), gc.impl(), bc.impl()},
                            std::move(backward), "layer_norm");
}

Tensor L2NormalizeRows(const Tensor& a, float eps) {
  START_CHECK_EQ(a.ndim(), 2);
  const Tensor ac = a.Contiguous();
  const int64_t rows = ac.dim(0), d = ac.dim(1);
  auto out = AcquireBuffer(ac.numel());
  auto norms = AcquireBuffer(rows);
  const float* pa = ac.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = pa + r * d;
    float sq = 0.0f;
    for (int64_t i = 0; i < d; ++i) sq += xr[i] * xr[i];
    const float norm = std::sqrt(sq) + eps;
    (*norms)[static_cast<size_t>(r)] = norm;
    float* yr = out->data() + r * d;
    for (int64_t i = 0; i < d; ++i) yr[i] = xr[i] / norm;
  }
  auto a_impl = ac.impl();
  auto backward = [a_impl, norms, rows, d](TensorImpl& self) {
    if (!a_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    const float* x = a_impl->data_ptr();
    float* ga = a_impl->grad_ptr();
    for (int64_t r = 0; r < rows; ++r) {
      const float norm = (*norms)[static_cast<size_t>(r)];
      const float* xr = x + r * d;
      const float* gr = g + r * d;
      float dot = 0.0f;
      for (int64_t i = 0; i < d; ++i) dot += gr[i] * xr[i];
      const float inv = 1.0f / norm;
      const float inv3 = inv * inv * inv;
      float* gar = ga + r * d;
      for (int64_t i = 0; i < d; ++i) {
        gar[i] += gr[i] * inv - xr[i] * dot * inv3;
      }
    }
  };
  return MakeOpResultBuffer(ac.shape(), std::move(out), {ac.impl()},
                            std::move(backward), "l2_normalize");
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int64_t>& targets,
                              int64_t ignore_index) {
  START_CHECK_EQ(logits.ndim(), 2);
  const Tensor lc = logits.Contiguous();
  const int64_t n = lc.dim(0), c = lc.dim(1);
  START_CHECK_EQ(static_cast<int64_t>(targets.size()), n);
  const float* pl = lc.data();
  // Save per-row softmax for the backward pass.
  auto probs = AcquireBuffer(n * c);
  double loss = 0.0;
  int64_t valid = 0;
  for (int64_t r = 0; r < n; ++r) {
    const float* x = pl + r * c;
    float mx = x[0];
    for (int64_t i = 1; i < c; ++i) mx = std::max(mx, x[i]);
    float sum = 0.0f;
    float* pr = probs->data() + r * c;
    for (int64_t i = 0; i < c; ++i) {
      pr[i] = std::exp(x[i] - mx);
      sum += pr[i];
    }
    const float inv = 1.0f / sum;
    for (int64_t i = 0; i < c; ++i) pr[i] *= inv;
    const int64_t t = targets[static_cast<size_t>(r)];
    if (t == ignore_index) continue;
    START_CHECK_MSG(t >= 0 && t < c, "target " << t << " out of " << c);
    loss += -std::log(std::max(pr[t], 1e-12f));
    ++valid;
  }
  START_CHECK_MSG(valid > 0, "cross entropy with no valid targets");
  const float inv_valid = 1.0f / static_cast<float>(valid);
  auto l_impl = lc.impl();
  auto tgt = std::make_shared<std::vector<int64_t>>(targets);
  auto backward = [l_impl, probs, tgt, n, c, ignore_index,
                   inv_valid](TensorImpl& self) {
    if (!l_impl->requires_grad) return;
    const float g = self.grad_ptr()[0] * inv_valid;
    float* gl = l_impl->grad_ptr();
    for (int64_t r = 0; r < n; ++r) {
      const int64_t t = (*tgt)[static_cast<size_t>(r)];
      if (t == ignore_index) continue;
      const float* pr = probs->data() + r * c;
      float* gr = gl + r * c;
      for (int64_t i = 0; i < c; ++i) {
        gr[i] += g * (pr[i] - (i == t ? 1.0f : 0.0f));
      }
    }
  };
  return MakeOpResult(Shape({1}),
                      {static_cast<float>(loss / static_cast<double>(valid))},
                      {lc.impl()}, std::move(backward), "cross_entropy");
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& target) {
  START_CHECK(pred.defined());
  const Tensor pc = pred.Contiguous();
  const int64_t n = pc.numel();
  START_CHECK_EQ(static_cast<int64_t>(target.size()), n);
  const float* pp = pc.data();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double diff = pp[i] - target[static_cast<size_t>(i)];
    loss += diff * diff;
  }
  const float inv = 1.0f / static_cast<float>(n);
  auto p_impl = pc.impl();
  auto tgt = std::make_shared<std::vector<float>>(target);
  auto backward = [p_impl, tgt, n, inv](TensorImpl& self) {
    if (!p_impl->requires_grad) return;
    const float g = self.grad_ptr()[0] * 2.0f * inv;
    const float* pp = p_impl->data_ptr();
    float* gp = p_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) {
      gp[i] += g * (pp[i] - (*tgt)[static_cast<size_t>(i)]);
    }
  };
  return MakeOpResult(Shape({1}), {static_cast<float>(loss / n)},
                      {pc.impl()}, std::move(backward), "mse");
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& targets) {
  START_CHECK(logits.defined());
  const Tensor lc = logits.Contiguous();
  const int64_t n = lc.numel();
  START_CHECK_EQ(static_cast<int64_t>(targets.size()), n);
  const float* pl = lc.data();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float x = pl[i];
    const float y = targets[static_cast<size_t>(i)];
    // Numerically stable: max(x,0) - x*y + log(1 + exp(-|x|)).
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::fabs(x)));
  }
  const float inv = 1.0f / static_cast<float>(n);
  auto l_impl = lc.impl();
  auto tgt = std::make_shared<std::vector<float>>(targets);
  auto backward = [l_impl, tgt, n, inv](TensorImpl& self) {
    if (!l_impl->requires_grad) return;
    const float g = self.grad_ptr()[0] * inv;
    const float* pl = l_impl->data_ptr();
    float* gl = l_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) {
      const float sig = 1.0f / (1.0f + std::exp(-pl[i]));
      gl[i] += g * (sig - (*tgt)[static_cast<size_t>(i)]);
    }
  };
  return MakeOpResult(Shape({1}), {static_cast<float>(loss / n)},
                      {lc.impl()}, std::move(backward), "bce");
}

}  // namespace start::tensor
