#include "data/loader.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "data/batch.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace start::data {
namespace {

// ---------------------------------------------------------------------------
// Length-bucketed batch plans
// ---------------------------------------------------------------------------

TEST(BucketBatchPlanTest, CoversEveryIndexExactlyOnce) {
  const std::vector<int64_t> lengths = {6, 12, 128, 7, 33, 8, 64, 10, 9, 40};
  std::vector<int64_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  const auto plan = BucketBatchPlan(lengths, order, /*batch_size=*/3,
                                    /*bucket_width=*/8);
  std::multiset<int64_t> seen;
  for (const auto& batch : plan) {
    EXPECT_LE(batch.size(), 3u);
    EXPECT_GE(batch.size(), 1u);
    seen.insert(batch.begin(), batch.end());
  }
  ASSERT_EQ(seen.size(), lengths.size());
  for (int64_t i = 0; i < static_cast<int64_t>(lengths.size()); ++i) {
    EXPECT_EQ(seen.count(i), 1u) << "index " << i;
  }
}

TEST(BucketBatchPlanTest, FullBatchesShareALengthBucket) {
  // 8 lengths in bucket 0 (1..8), 8 in bucket 15 (121..128).
  std::vector<int64_t> lengths;
  for (int i = 0; i < 8; ++i) lengths.push_back(6 + (i % 3));
  for (int i = 0; i < 8; ++i) lengths.push_back(125 + (i % 3));
  std::vector<int64_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  // Interleave short/long so bucketing has to do real work.
  std::vector<int64_t> interleaved;
  for (int i = 0; i < 8; ++i) {
    interleaved.push_back(order[static_cast<size_t>(i)]);
    interleaved.push_back(order[static_cast<size_t>(8 + i)]);
  }
  const auto plan =
      BucketBatchPlan(lengths, interleaved, /*batch_size=*/4, /*bucket_width=*/8);
  ASSERT_EQ(plan.size(), 4u);
  for (const auto& batch : plan) {
    ASSERT_EQ(batch.size(), 4u);
    const int64_t bucket =
        (lengths[static_cast<size_t>(batch[0])] - 1) / 8;
    for (const int64_t idx : batch) {
      EXPECT_EQ((lengths[static_cast<size_t>(idx)] - 1) / 8, bucket);
    }
  }
}

TEST(BucketBatchPlanTest, ImprovesPaddingEfficiencyOnSkewedLengths) {
  // Skewed corpus: mostly short trips, one long cohort near the cap. Group
  // sizes are multiples of the batch size so the buckets can pack perfectly.
  std::vector<int64_t> lengths;
  for (int i = 0; i < 32; ++i) lengths.push_back(8);
  for (int i = 0; i < 16; ++i) lengths.push_back(12);
  for (int i = 0; i < 16; ++i) lengths.push_back(124);
  // Shuffled arrival order, so long trajectories land in most naive chunks.
  std::vector<int64_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  common::Rng rng(3);
  rng.Shuffle(&order);

  auto plan_efficiency = [&](const std::vector<std::vector<int64_t>>& plan) {
    int64_t tokens = 0, slots = 0;
    for (const auto& batch : plan) {
      int64_t max_len = 0;
      for (const int64_t idx : batch) {
        tokens += lengths[static_cast<size_t>(idx)];
        max_len = std::max(max_len, lengths[static_cast<size_t>(idx)]);
      }
      slots += max_len * static_cast<int64_t>(batch.size());
    }
    return static_cast<double>(tokens) / static_cast<double>(slots);
  };

  std::vector<std::vector<int64_t>> naive;
  for (size_t begin = 0; begin < order.size(); begin += 16) {
    naive.emplace_back(order.begin() + static_cast<int64_t>(begin),
                       order.begin() + static_cast<int64_t>(begin + 16));
  }
  const auto bucketed = BucketBatchPlan(lengths, order, 16, 8);
  // Buckets separate the cohorts exactly: zero padding. The naive chunks pay
  // 124 slots for mostly-8-token rows.
  EXPECT_DOUBLE_EQ(plan_efficiency(bucketed), 1.0);
  EXPECT_LT(plan_efficiency(naive), 0.5);
}

TEST(PaddingEfficiencyTest, ExactOnKnownLengths) {
  EXPECT_DOUBLE_EQ(PaddingEfficiency({4, 4, 4}), 1.0);
  EXPECT_DOUBLE_EQ(PaddingEfficiency({2, 4}), 6.0 / 8.0);
}

TEST(MakeShuffledPlanTest, CoversCorpusEachEpochWithoutSingletons) {
  std::vector<int64_t> lengths;
  for (int i = 0; i < 33; ++i) lengths.push_back(6 + i % 40);
  PlanConfig config;
  config.batch_size = 8;
  config.epochs = 3;
  config.seed = 11;
  const PretrainPlan plan = MakeShuffledPlan(lengths, config);
  ASSERT_EQ(plan.steps.size(), plan.epoch_of_step.size());
  std::vector<std::multiset<int64_t>> per_epoch(3);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    EXPECT_GE(plan.steps[s].size(), 2u);  // NT-Xent needs >= 2 trajectories
    per_epoch[static_cast<size_t>(plan.epoch_of_step[s])].insert(
        plan.steps[s].begin(), plan.steps[s].end());
  }
  for (const auto& seen : per_epoch) {
    EXPECT_EQ(seen.size(), lengths.size());
    for (int64_t i = 0; i < 33; ++i) EXPECT_EQ(seen.count(i), 1u);
  }
  // Same config -> same plan; different seed -> different step order.
  const PretrainPlan again = MakeShuffledPlan(lengths, config);
  EXPECT_EQ(plan.steps, again.steps);
  config.seed = 12;
  EXPECT_NE(plan.steps, MakeShuffledPlan(lengths, config).steps);
}

// ---------------------------------------------------------------------------
// Pre-training batches
// ---------------------------------------------------------------------------

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest()
      : net_(roadnet::BuildSyntheticCity({.grid_width = 7, .grid_height = 7})),
        traffic_(&net_, {}) {
    traj::TripGenerator::Config config;
    config.num_drivers = 6;
    config.num_days = 6;
    config.trips_per_driver_day = 3.0;
    config.seed = 99;
    traj::TripGenerator gen(&traffic_, config);
    auto raw = gen.Generate();
    DatasetConfig ds;
    ds.min_length = 5;
    ds.min_user_trajectories = 2;
    corpus_ = TrajDataset::FromCorpus(net_, std::move(raw), ds).All();
    PlanConfig plan_config;
    plan_config.batch_size = 8;
    plan_config.epochs = 2;
    plan_config.seed = 5;
    plan_ = MakeShuffledPlan(Lengths(corpus_), plan_config);
  }

  /// Builds step `step` of the plan into `*out` from its private stream.
  void Build(int64_t step, uint64_t seed, TrainingBatch* out) const {
    common::Rng rng(StepSeed(seed, step));
    BuildPretrainBatch(corpus_, &traffic_, PretrainBatchOptions{},
                       plan_.steps[static_cast<size_t>(step)], &rng, out);
  }

  /// Steps [start_step, end of plan) built the way core::Pretrain builds
  /// them: into one batch reused across steps, copied out after each.
  std::vector<TrainingBatch> Run(uint64_t seed = 5,
                                 int64_t start_step = 0) const {
    std::vector<TrainingBatch> got;
    TrainingBatch tb;
    for (int64_t step = start_step;
         step < static_cast<int64_t>(plan_.steps.size()); ++step) {
      Build(step, seed, &tb);
      got.push_back(tb);
    }
    return got;
  }

  roadnet::RoadNetwork net_;
  traj::TrafficModel traffic_;
  std::vector<traj::Trajectory> corpus_;
  PretrainPlan plan_;
};

void ExpectBitwiseEqual(const TrainingBatch& a, const TrainingBatch& b) {
  ASSERT_EQ(a.has_masked, b.has_masked);
  ASSERT_EQ(a.has_contrastive, b.has_contrastive);
  EXPECT_EQ(a.masked.max_len, b.masked.max_len);
  EXPECT_EQ(a.masked.embedding_dropout, b.masked.embedding_dropout);
  EXPECT_EQ(a.masked.roads, b.masked.roads);
  EXPECT_EQ(a.masked.minute_idx, b.masked.minute_idx);
  EXPECT_EQ(a.masked.dow_idx, b.masked.dow_idx);
  EXPECT_EQ(a.masked.times, b.masked.times);  // bitwise: no FP ops reorder
  EXPECT_EQ(a.masked.lengths, b.masked.lengths);
  EXPECT_EQ(a.mask_positions, b.mask_positions);
  EXPECT_EQ(a.mask_targets, b.mask_targets);
  EXPECT_EQ(a.contrastive.max_len, b.contrastive.max_len);
  EXPECT_EQ(a.contrastive.embedding_dropout, b.contrastive.embedding_dropout);
  EXPECT_EQ(a.contrastive.roads, b.contrastive.roads);
  EXPECT_EQ(a.contrastive.minute_idx, b.contrastive.minute_idx);
  EXPECT_EQ(a.contrastive.dow_idx, b.contrastive.dow_idx);
  EXPECT_EQ(a.contrastive.times, b.contrastive.times);
  EXPECT_EQ(a.contrastive.lengths, b.contrastive.lengths);
}

TEST_F(LoaderTest, DeterministicForFixedSeed) {
  ASSERT_GT(corpus_.size(), 16u);
  const auto run1 = Run();
  const auto run2 = Run();
  ASSERT_EQ(run1.size(), run2.size());
  ASSERT_FALSE(run1.empty());
  for (size_t i = 0; i < run1.size(); ++i) {
    ExpectBitwiseEqual(run1[i], run2[i]);
  }
}

TEST_F(LoaderTest, ReusedBatchMatchesAFreshBatchPerStep) {
  // The scratch-reuse contract: core::Pretrain rebuilds one TrainingBatch in
  // place every step, so nothing of step s-1 may reach step s. A fresh batch
  // per step has nothing to leak; the reused one must match it bit for bit.
  const auto reused = Run();
  ASSERT_EQ(reused.size(), plan_.steps.size());
  for (size_t s = 0; s < reused.size(); ++s) {
    TrainingBatch fresh;
    Build(static_cast<int64_t>(s), /*seed=*/5, &fresh);
    SCOPED_TRACE("step " + std::to_string(s));
    ExpectBitwiseEqual(reused[s], fresh);
  }
}

TEST_F(LoaderTest, ResumedRunBuildsTheExactTailOfTheStream) {
  // The resume contract core::Pretrain's checkpoint resume rests on: a run
  // that starts at step s — its first batch built alone into a fresh
  // TrainingBatch — must build exactly steps s.. of a full run.
  const auto full = Run();
  ASSERT_GT(full.size(), 4u);
  const int64_t start = static_cast<int64_t>(full.size()) / 2;
  const auto tail = Run(/*seed=*/5, start);
  ASSERT_EQ(tail.size(), full.size() - static_cast<size_t>(start));
  for (size_t i = 0; i < tail.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(start + static_cast<int64_t>(i)));
    ExpectBitwiseEqual(tail[i], full[static_cast<size_t>(start) + i]);
  }
}

TEST_F(LoaderTest, DifferentSeedsGiveDifferentBatches) {
  const auto a = Run(/*seed=*/5);
  const auto b = Run(/*seed=*/6);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a[i].masked.roads != b[i].masked.roads;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(LoaderTest, BatchesCoverThePlan) {
  const auto got = Run();
  ASSERT_EQ(got.size(), plan_.steps.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].masked.batch_size,
              static_cast<int64_t>(plan_.steps[i].size()));
    EXPECT_EQ(got[i].contrastive.batch_size,
              static_cast<int64_t>(2 * plan_.steps[i].size()));
  }
}

TEST_F(LoaderTest, MakeBatchIntoReusesBuffersAcrossCalls) {
  ASSERT_GE(corpus_.size(), 8u);
  std::vector<View> big, small;
  for (size_t i = 0; i < 8; ++i) big.push_back(MakeView(corpus_[i]));
  for (size_t i = 0; i < 4; ++i) small.push_back(MakeView(corpus_[i]));
  Batch batch;
  MakeBatchInto(big, &batch);
  const Batch reference = MakeBatch(small);
  const int64_t* roads_buffer = batch.roads.data();
  const double* times_buffer = batch.times.data();
  // Refilling with a smaller extent must not reallocate...
  MakeBatchInto(small, &batch);
  EXPECT_EQ(batch.roads.data(), roads_buffer);
  EXPECT_EQ(batch.times.data(), times_buffer);
  // ...and must produce exactly what a fresh MakeBatch would.
  EXPECT_EQ(batch.batch_size, reference.batch_size);
  EXPECT_EQ(batch.max_len, reference.max_len);
  EXPECT_EQ(batch.roads, reference.roads);
  EXPECT_EQ(batch.minute_idx, reference.minute_idx);
  EXPECT_EQ(batch.dow_idx, reference.dow_idx);
  EXPECT_EQ(batch.times, reference.times);
  EXPECT_EQ(batch.lengths, reference.lengths);
}

}  // namespace
}  // namespace start::data
