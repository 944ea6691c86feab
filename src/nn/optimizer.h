#ifndef START_NN_OPTIMIZER_H_
#define START_NN_OPTIMIZER_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace start::nn {

/// \brief AdamW (decoupled weight decay) over a fixed parameter list — the
/// paper's optimizer [29] and the one every training path uses.
class AdamW {
 public:
  AdamW(std::vector<tensor::Tensor> params, double lr, double beta1 = 0.9,
        double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.01);

  /// Applies one update using the parameters' current gradients.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

  /// The parameter list this optimizer updates, in construction order (the
  /// same order as Module::Parameters() when built from one). Checkpointing
  /// uses this to pair slot buffers with parameter names.
  const std::vector<tensor::Tensor>& params() const { return params_; }

  /// Update count driving bias correction; settable so a resumed run
  /// continues the correction schedule exactly where it stopped.
  int64_t step_count() const { return t_; }
  void set_step_count(int64_t t) { t_ = t; }

  /// First/second-moment slot buffers, one per parameter in params() order;
  /// exposed mutable so checkpoint restore can write the saved slots back.
  std::vector<std::vector<float>>& moment1() { return m_; }
  const std::vector<std::vector<float>>& moment1() const { return m_; }
  std::vector<std::vector<float>>& moment2() { return v_; }
  const std::vector<std::vector<float>>& moment2() const { return v_; }

 private:
  std::vector<tensor::Tensor> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Global gradient-norm bound of every TrainStep.
inline constexpr double kGradClip = 5.0;

/// One update of `opt` from `loss`: ZeroGrad, `loss.Backward()`,
/// ClipGradNorm(opt->params(), kGradClip), Step. Returns `loss.item()`.
double TrainStep(AdamW* opt, tensor::Tensor loss);

/// \brief The minibatch loop every pre-training task and fine-tune head
/// shares.
///
/// Each of `epochs` epochs shuffles [0, n) with `rng` (one Rng::Shuffle per
/// epoch, over the previous epoch's order, starting from 0..n-1), then hands
/// `step` the consecutive `batch_size` slices of that order. A slice starts
/// only where at least two indices remain (`begin + 1 < n`), so a trailing
/// singleton is dropped rather than trained as a batch of one. `step` runs
/// the caller's task — usually one TrainStep — and returns its loss; `rng`
/// may be drawn from inside `step`, after that epoch's shuffle. Returns the
/// mean `step` loss of the last epoch (0 when `epochs` is 0).
///
/// Requires n >= 2: with one item no batch would run, and the caller would
/// get an untrained model and a loss of 0.
double TrainEpochs(int64_t n, int64_t epochs, int64_t batch_size,
                   common::Rng* rng,
                   const std::function<double(const std::vector<int64_t>&)>&
                       step);

}  // namespace start::nn

#endif  // START_NN_OPTIMIZER_H_
