#ifndef START_CORE_PRETRAIN_H_
#define START_CORE_PRETRAIN_H_

#include <vector>

#include "core/start_model.h"
#include "data/augmentation.h"
#include "traj/traffic_model.h"

namespace start::core {

/// \brief Pre-training hyper-parameters (defaults follow Sec. IV-C at
/// laptop scale; the paper trains 30 epochs with batch 64 and lr 2e-4).
struct PretrainConfig {
  int64_t epochs = 5;
  int64_t batch_size = 16;
  double lr = 1e-3;
  double weight_decay = 0.01;
  double warmup_fraction = 0.15;  ///< Fraction of steps used for warm-up.
  double lambda = 0.6;  ///< Loss mix of Eq. (15).
  float tau = 0.05f;    ///< NT-Xent temperature.
  int64_t mask_span = 2;       ///< lm.
  double mask_ratio = 0.15;    ///< pm.
  data::AugmentationKind aug_a = data::AugmentationKind::kTrim;
  data::AugmentationKind aug_b = data::AugmentationKind::kTemporalShift;
  bool use_mask_task = true;         ///< false = "w/o Mask" ablation.
  bool use_contrastive_task = true;  ///< false = "w/o Contra" ablation.
  uint64_t seed = 7;

  // --- Batch plan (see data/loader.h and ARCHITECTURE.md) ----------------
  /// Length-bucket granularity (roads per bucket) of the plan's
  /// length-bucketed batches, which cut padding waste.
  int64_t bucket_width = 8;

  // --- Checkpointing (see core/checkpoint.h and ARCHITECTURE.md) ----------
  /// When non-empty, a full training checkpoint (parameters + AdamW slots +
  /// trainer bookkeeping) is written here at the end of the run and every
  /// `checkpoint_every_steps` optimizer steps. The file doubles as the model
  /// artifact: eval::TrajectoryEncoder::WarmStart and the fine-tuning tasks
  /// load it directly — no retraining.
  std::string checkpoint_path;
  /// Periodic checkpoint cadence in optimizer steps; 0 = final-only.
  int64_t checkpoint_every_steps = 0;
  /// Resume from `checkpoint_path` when it holds a training checkpoint. The
  /// resumed run replays the batch and dropout StepSeed streams from the
  /// saved step, so it is bitwise identical to a never-interrupted run
  /// (tests/core_pretrain_test.cc asserts this).
  bool resume = false;
  /// Stop after this many optimizer steps past the resume point (0 = run the
  /// whole plan). Simulates interruption; pair with `checkpoint_path`.
  int64_t max_steps = 0;
};

/// \brief Per-epoch telemetry of a pre-training run.
struct PretrainStats {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_mask_loss;
  std::vector<double> epoch_contrastive_loss;
};

/// Runs the two self-supervised tasks of Sec. III-C over `corpus`
/// (span-masked recovery + trajectory contrastive learning) with AdamW,
/// gradient clipping at nn::kGradClip and the warm-up/cosine schedule.
/// `traffic` supplies historical travel times for the Temporal Shifting
/// augmentation.
///
/// Everything runs on the calling thread. Each plan step builds its batch
/// from `Rng(data::StepSeed(seed, step))` into one reused
/// `data::TrainingBatch`, then takes one optimizer step over it, in a fixed
/// order that pins every bit of the output (tests/core_pretrain_test.cc
/// compares a default run with recorded constants):
///  1. Stage 1 (TPE-GAT road representations) runs once, with dropout
///     seeded from (seed, step).
///  2. Stage 2 encodes the masked batch, then the contrastive batch, through
///     a zero-copy leaf of the road representations, with dropout reseeded
///     from (seed, step).
///  3. The masked-recovery cross entropy and NT-Xent are evaluated over
///     zero-copy leaves of the logits and [CLS] rows and mixed by Eq. 15's
///     `lambda` (with one task off, the other has weight 1).
///  4. Backward runs through the loss graph, then the masked encoder graph,
///     then the contrastive one, then stage 1 once from the accumulated
///     road-representation gradient. Separate passes fix the order in which
///     the two branches accumulate into shared parameters; one combined
///     backward would sum them in a different order and change the bits.
///  5. Parameters no pass reached get zero gradients, so AdamW still decays
///     them; then the global norm is clipped and AdamW steps.
/// Gradients stay unallocated from one step's start until a backward pass
/// reaches them. Dropout is reseeded every step, so no RNG cursor is
/// checkpointed: a resumed run replays the same streams from the saved step.
PretrainStats Pretrain(StartModel* model,
                       const std::vector<traj::Trajectory>& corpus,
                       const traj::TrafficModel* traffic,
                       const PretrainConfig& config);

}  // namespace start::core

#endif  // START_CORE_PRETRAIN_H_
