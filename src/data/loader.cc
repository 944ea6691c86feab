#include "data/loader.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace start::data {

uint64_t StepSeed(uint64_t seed, int64_t step) {
  // SplitMix64 finalizer over (seed, step): adjacent steps land in
  // uncorrelated streams.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                          (static_cast<uint64_t>(step) + 0x51ed2701ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

PretrainPlan MakeShuffledPlan(const std::vector<int64_t>& lengths,
                              const PlanConfig& config) {
  START_CHECK(!lengths.empty());
  START_CHECK_GT(config.batch_size, 0);
  START_CHECK_GT(config.epochs, 0);
  const int64_t n = static_cast<int64_t>(lengths.size());
  PretrainPlan plan;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    // One private stream per epoch, so epoch e's order does not depend on
    // how many draws epoch e-1 consumed.
    common::Rng rng(StepSeed(config.seed ^ 0xe90cd3f7ULL, epoch));
    std::vector<int64_t> order(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    rng.Shuffle(&order);
    std::vector<std::vector<int64_t>> batches;
    if (config.bucket_by_length) {
      batches = BucketBatchPlan(lengths, order, config.batch_size,
                                config.bucket_width);
    } else {
      for (int64_t begin = 0; begin < n; begin += config.batch_size) {
        const int64_t end = std::min(n, begin + config.batch_size);
        batches.emplace_back(order.begin() + begin, order.begin() + end);
      }
    }
    // A trailing singleton batch would give the contrastive task only two
    // views (NT-Xent needs >= 4 rows); fold it into the previous batch, or
    // duplicate the index when the corpus itself is a single trajectory.
    if (batches.back().size() == 1) {
      if (batches.size() > 1) {
        batches[batches.size() - 2].push_back(batches.back().front());
        batches.pop_back();
      } else {
        batches.back().push_back(batches.back().front());
      }
    }
    // Bucketed batches come out roughly sorted by length; undo that so the
    // epoch is not a curriculum.
    rng.Shuffle(&batches);
    for (auto& b : batches) {
      plan.steps.push_back(std::move(b));
      plan.epoch_of_step.push_back(epoch);
    }
  }
  return plan;
}

void BuildPretrainBatch(const std::vector<traj::Trajectory>& corpus,
                        const traj::TrafficModel* traffic,
                        const PretrainBatchOptions& options,
                        const std::vector<int64_t>& indices, common::Rng* rng,
                        TrainingBatch* out) {
  START_CHECK(options.use_mask_task || options.use_contrastive_task);
  START_CHECK(!indices.empty());
  out->has_masked = false;
  out->has_contrastive = false;
  out->mask_positions.clear();
  out->mask_targets.clear();
  auto& views = out->scratch_views;

  // --- Task 1: span-masked recovery views (Sec. III-C1) ------------------
  if (options.use_mask_task) {
    auto& infos = out->scratch_infos;
    views.clear();
    infos.clear();
    for (const int64_t idx : indices) {
      const traj::Trajectory& t = corpus[static_cast<size_t>(idx)];
      View v = MakeView(t);
      infos.push_back(ApplySpanMask(&v, options.mask_span,
                                    options.mask_ratio, rng));
      views.push_back(std::move(v));
    }
    MakeBatchInto(views, &out->masked);
    for (size_t b = 0; b < infos.size(); ++b) {
      for (size_t k = 0; k < infos[b].positions.size(); ++k) {
        out->mask_positions.push_back(static_cast<int64_t>(b) *
                                          out->masked.max_len +
                                      infos[b].positions[k]);
        out->mask_targets.push_back(infos[b].targets[k]);
      }
    }
    out->has_masked = true;
  }

  // --- Task 2: contrastive view pairs (Sec. III-C2) ----------------------
  if (options.use_contrastive_task) {
    views.clear();
    for (const int64_t idx : indices) {
      const traj::Trajectory& t = corpus[static_cast<size_t>(idx)];
      views.push_back(
          Augment(t, options.aug_a, options.augmentation, traffic, rng));
      views.push_back(
          Augment(t, options.aug_b, options.augmentation, traffic, rng));
    }
    MakeBatchInto(views, &out->contrastive);
    out->has_contrastive = true;
  }
}

}  // namespace start::data
