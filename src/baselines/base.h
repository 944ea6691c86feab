#ifndef START_BASELINES_BASE_H_
#define START_BASELINES_BASE_H_

#include <vector>

#include "common/rng.h"
#include "eval/encoder.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace start::baselines {

/// \brief Self-supervised pre-training options shared by all baselines
/// (each baseline keeps its own *task*; these are just loop hyper-parameters).
struct PretrainOptions {
  int64_t epochs = 3;
  int64_t batch_size = 16;
  double lr = 1e-3;
  uint64_t seed = 5;
};

/// \brief Padded batch of raw road-id sequences.
struct PaddedRoads {
  int64_t batch_size = 0;
  int64_t max_len = 0;
  std::vector<int64_t> ids;      ///< [B, L]; padding slots hold `pad_id`.
  std::vector<int64_t> lengths;  ///< Valid tokens per sequence.
};

/// Pads the road sequences of a batch; `pad_id` fills the tail slots.
PaddedRoads PadRoadBatch(const std::vector<const traj::Trajectory*>& batch,
                         int64_t pad_id);

/// \brief Shared base for baseline models: an nn::Module that also fulfils
/// the eval::TrajectoryEncoder interface (Table II's common protocol).
class SequenceBaseline : public nn::Module, public eval::TrajectoryEncoder {
 public:
  void SetTraining(bool training) override {
    nn::Module::SetTraining(training);
  }
  void SetDropoutRng(common::Rng* rng) override {
    nn::Module::SetDropoutRng(rng);
  }
  std::vector<tensor::Tensor> TrainableParameters() override {
    return Parameters();
  }

  /// Runs the baseline's own self-supervised task over `corpus` (at least
  /// two trajectories): AdamW over Parameters() at `options.lr`, training
  /// mode on, and nn::TrainEpochs (nn/optimizer.h, the loop contract) over
  /// the corpus with one Rng seeded by `options.seed`, which both shuffles
  /// and feeds TrainBatch; dropout draws from a run-private stream derived
  /// from the same seed. A baseline overrides only TrainBatch. Returns the
  /// last epoch's mean TrainBatch loss.
  double Pretrain(const std::vector<traj::Trajectory>& corpus,
                  const PretrainOptions& options);

 protected:
  /// The one thing a baseline overrides: its self-supervised task on one
  /// batch. Computes the task loss, updates through nn::TrainStep(opt, ...)
  /// (once per loss, e.g. twice for a two-task baseline), draws any task
  /// randomness from `rng`, and returns the summed step losses.
  virtual double TrainBatch(const std::vector<const traj::Trajectory*>& batch,
                            nn::AdamW* opt, common::Rng* rng) = 0;
};

/// Mean over valid (non-padded) positions of a [B, L, d] tensor -> [B, d].
/// Used by baselines without a [CLS] token.
tensor::Tensor MeanPoolValid(const tensor::Tensor& seq,
                             const std::vector<int64_t>& lengths);

}  // namespace start::baselines

#endif  // START_BASELINES_BASE_H_
