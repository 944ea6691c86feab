#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "nn/module.h"

namespace start::nn {

AdamW::AdamW(std::vector<tensor::Tensor> params, double lr, double beta1,
             double beta2, double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    START_CHECK(params_[i].defined());
    START_CHECK(params_[i].requires_grad());
    m_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
    v_[i].assign(static_cast<size_t>(params_[i].numel()), 0.0f);
  }
}

void AdamW::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void AdamW::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g[j]);
      v[j] = static_cast<float>(beta2_ * v[j] +
                                (1.0 - beta2_) * static_cast<double>(g[j]) *
                                    g[j]);
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      // Decoupled weight decay (AdamW): decay applied directly to weights.
      w[j] -= static_cast<float>(lr_ * (mhat / (std::sqrt(vhat) + eps_) +
                                        weight_decay_ * w[j]));
    }
  }
}

double TrainStep(AdamW* opt, tensor::Tensor loss) {
  opt->ZeroGrad();
  loss.Backward();
  ClipGradNorm(opt->params(), kGradClip);
  opt->Step();
  return loss.item();
}

double TrainEpochs(int64_t n, int64_t epochs, int64_t batch_size,
                   common::Rng* rng,
                   const std::function<double(const std::vector<int64_t>&)>&
                       step) {
  START_CHECK_MSG(n >= 2, "a minibatch epoch needs at least 2 items, got "
                              << n);
  START_CHECK_GT(batch_size, 0);
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  double last_epoch_loss = 0.0;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    double total = 0.0;
    int64_t batches = 0;
    for (int64_t begin = 0; begin + 1 < n; begin += batch_size) {
      const int64_t end = std::min(n, begin + batch_size);
      total += step(std::vector<int64_t>(order.begin() + begin,
                                         order.begin() + end));
      ++batches;
    }
    last_epoch_loss = total / static_cast<double>(batches);
  }
  return last_epoch_loss;
}

}  // namespace start::nn
