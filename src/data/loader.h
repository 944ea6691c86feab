#ifndef START_DATA_LOADER_H_
#define START_DATA_LOADER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/augmentation.h"
#include "data/batch.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace start::data {

/// \brief One fully-assembled pre-training step: the span-masked batch for
/// the recovery task plus the two-augmented-views batch for the contrastive
/// task (Sec. III-C).
struct TrainingBatch {
  bool has_masked = false;   ///< `masked` / `mask_*` are valid.
  bool has_contrastive = false;  ///< `contrastive` is valid.

  Batch masked;              ///< Span-masked views, one per trajectory.
  std::vector<int64_t> mask_positions;  ///< Flat b * max_len + pos indices.
  std::vector<int64_t> mask_targets;    ///< Original road ids (Eq. 13).
  Batch contrastive;         ///< aug_a(t), aug_b(t) interleaved per t.
};

/// Derives a step-private seed: a SplitMix64-style mix of the base seed and
/// the step index, so neighbouring steps get uncorrelated streams. Every
/// pre-training step draws all of its batch randomness from a fresh
/// `Rng(StepSeed(seed, step))`, so randomness never crosses step boundaries:
/// a step's batch is a pure function of (plan, seed, step), and a run
/// resumed at step s builds exactly the batches of an uninterrupted one.
uint64_t StepSeed(uint64_t seed, int64_t step);

/// \brief Plan generation parameters for `MakeShuffledPlan`.
struct PlanConfig {
  int64_t batch_size = 16;
  int64_t epochs = 1;
  /// Group same-length-bucket trajectories into a batch (see
  /// `BucketBatchPlan`) so padding waste drops; batch order is re-shuffled
  /// per epoch so training sees no length curriculum.
  bool bucket_by_length = true;
  /// Lengths l with (l-1)/bucket_width equal share a bucket.
  int64_t bucket_width = 8;
  uint64_t seed = 7;
};

/// \brief A multi-epoch step plan plus step->epoch bookkeeping.
struct PretrainPlan {
  std::vector<std::vector<int64_t>> steps;  ///< Trajectory indices per step.
  std::vector<int64_t> epoch_of_step;       ///< Same length as `steps`.
};

/// Builds the full multi-epoch plan up front: per epoch, shuffle the corpus
/// order with an epoch-seeded Rng, cut it into (optionally length-bucketed)
/// batches of `batch_size` (one final batch may be partial), then shuffle
/// the batch order. Deterministic in (lengths, config).
PretrainPlan MakeShuffledPlan(const std::vector<int64_t>& lengths,
                              const PlanConfig& config);

/// \brief What the pretrain builder assembles per step (mirrors the two
/// pretext tasks' knobs in `core::PretrainConfig`).
struct PretrainBatchOptions {
  bool use_mask_task = true;
  bool use_contrastive_task = true;
  int64_t mask_span = 2;     ///< lm.
  double mask_ratio = 0.15;  ///< pm.
  AugmentationKind aug_a = AugmentationKind::kTrim;
  AugmentationKind aug_b = AugmentationKind::kTemporalShift;
  AugmentationConfig augmentation;
};

/// Builds one pre-training step: span-masked views + flattened recovery
/// targets for task 1, and the aug_a/aug_b view pairs for task 2.
/// `indices` are the step's trajectory indices from the plan and `rng` is
/// its private generator (`Rng(StepSeed(seed, step))`).
TrainingBatch BuildPretrainBatch(const std::vector<traj::Trajectory>& corpus,
                                 const traj::TrafficModel* traffic,
                                 const PretrainBatchOptions& options,
                                 const std::vector<int64_t>& indices,
                                 common::Rng* rng);

}  // namespace start::data

#endif  // START_DATA_LOADER_H_
