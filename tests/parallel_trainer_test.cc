// Reduction-path tests for the data-parallel sharded pretraining engine:
//  * the fixed-order tree all-reduce itself (nn/allreduce.h),
//  * K-shard bitwise-identity to single-shard execution (the engine's core
//    contract), for parameters, optimizer state, AND loss curves,
//  * gradient accumulation: two micro-batches ≡ one double batch, bitwise,
//  * mid-plan checkpoint resume across *different* shard counts.
//
// This suite carries the `concurrency` ctest label: the sharded step fans
// forward/backward out over a ThreadPool, so the TSan CI job runs it.
#include "core/parallel_trainer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/pretrain.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "nn/allreduce.h"
#include "nn/optimizer.h"
#include "testing.h"

namespace start::core {
namespace {

using start::testutil::ExpectFloatsBitwiseEqual;
using start::testutil::ExpectParamsBitwiseEqual;
using start::testutil::MakeTinyWorld;
using start::testutil::TempDir;
using start::testutil::TinyStartConfig;
using start::testutil::TinyWorld;

// ---------------------------------------------------------------------------
// nn::TreeReduce — the fixed combination order, in isolation.
// ---------------------------------------------------------------------------

std::shared_ptr<std::vector<float>> Buf(std::vector<float> v) {
  return std::make_shared<std::vector<float>>(std::move(v));
}

TEST(TreeReduceTest, CombinesInFixedPairwiseOrder) {
  // With 5 slots the tree is ((s0+s1)+(s2+s3))+s4. Use magnitudes that make
  // float addition order-sensitive: 1e8 + 1 + -1e8 + 1 + 1.
  auto result = nn::TreeReduce(
      {Buf({1e8f}), Buf({1.0f}), Buf({-1e8f}), Buf({1.0f}), Buf({1.0f})});
  ASSERT_NE(result, nullptr);
  // (1e8 + 1) = 1e8 (absorbed); (-1e8 + 1) = -1e8 (absorbed);
  // 1e8 + -1e8 = 0; 0 + 1 = 1. A left fold would differ (it also gives 1
  // here only by coincidence of this arrangement — assert the tree exactly).
  const float expected = ((1e8f + 1.0f) + (-1e8f + 1.0f)) + 1.0f;
  EXPECT_EQ((*result)[0], expected);
}

TEST(TreeReduceTest, NullSlotsAreExactZeros) {
  auto result =
      nn::TreeReduce({nullptr, Buf({2.0f, 3.0f}), nullptr, Buf({1.0f, 1.0f})});
  ASSERT_NE(result, nullptr);
  EXPECT_EQ((*result)[0], 3.0f);
  EXPECT_EQ((*result)[1], 4.0f);
  EXPECT_EQ(nn::TreeReduce({nullptr, nullptr}), nullptr);
  EXPECT_EQ(nn::TreeReduce({}), nullptr);
}

TEST(TreeReduceTest, ReduceIntoInstallsCombinedGrads) {
  tensor::Tensor p =
      tensor::Tensor::Zeros(tensor::Shape({2}), /*requires_grad=*/true);
  tensor::Tensor single =
      tensor::Tensor::Zeros(tensor::Shape({2}), /*requires_grad=*/true);
  tensor::Tensor untouched =
      tensor::Tensor::Zeros(tensor::Shape({3}), /*requires_grad=*/true);
  // Stale gradients are replaced, not accumulated onto.
  p.ZeroGrad();
  p.grad()[0] = 5.0f;
  untouched.ZeroGrad();
  untouched.grad()[2] = 7.0f;
  auto only = Buf({3.0f, 4.0f});
  const float* only_storage = only->data();
  std::vector<nn::GradShard> shards;
  shards.push_back({Buf({1.0f, 2.0f}), std::move(only), nullptr});
  shards.push_back({Buf({10.0f, 20.0f}), nullptr, nullptr});
  shards.push_back({nullptr, nullptr, nullptr});
  nn::TreeReduceInto(std::move(shards), {p, single, untouched});
  EXPECT_EQ(p.grad()[0], 11.0f);
  EXPECT_EQ(p.grad()[1], 22.0f);
  // One live slot: its buffer is installed as the gradient, not copied.
  EXPECT_EQ(single.grad(), only_storage);
  EXPECT_EQ(single.grad()[1], 4.0f);
  // No shard touched it: an allocated, exactly-zero gradient.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(untouched.grad()[i], 0.0f);
}

// ---------------------------------------------------------------------------
// Engine fixtures.
// ---------------------------------------------------------------------------

class ParallelTrainerTest : public ::testing::Test {
 protected:
  ParallelTrainerTest() : world_(MakeTinyWorld()) {}

  std::unique_ptr<StartModel> MakeModel(uint64_t seed) const {
    common::Rng rng(seed);
    return std::make_unique<StartModel>(TinyStartConfig(), world_->net.get(),
                                        world_->transfer.get(), &rng);
  }

  /// Assembles the pre-training batch for `indices` through the standard
  /// builder, seeded like loader step `step`.
  data::TrainingBatch MakeBatch(const std::vector<int64_t>& indices,
                                int64_t step) const {
    common::Rng rng(data::BatchLoader::StepSeed(kSeed, step));
    data::TrainingBatch tb;
    tb.step = step;
    data::MakePretrainBuilder(&world_->corpus, world_->traffic.get(),
                              {})(indices, &rng, &tb);
    return tb;
  }

  static constexpr uint64_t kSeed = 33;
  std::unique_ptr<TinyWorld> world_;
};

/// Splits `full` (trajectory rows [0, n)) into two micro TrainingBatches
/// covering rows [0, n/2) and [n/2, n) with identical padded content — the
/// aligned-row-stream premise of the accumulation-equivalence contract.
std::pair<data::TrainingBatch, data::TrainingBatch> SplitBatch(
    const data::TrainingBatch& full) {
  const int64_t n = full.masked.batch_size;
  const int64_t half = n / 2;
  data::TrainingBatch a, b;
  a.step = full.step;
  b.step = full.step + 1;
  a.has_masked = b.has_masked = full.has_masked;
  a.has_contrastive = b.has_contrastive = full.has_contrastive;
  data::SliceBatchRows(full.masked, 0, half, &a.masked);
  data::SliceBatchRows(full.masked, half, n, &b.masked);
  data::SliceBatchRows(full.contrastive, 0, 2 * half, &a.contrastive);
  data::SliceBatchRows(full.contrastive, 2 * half, 2 * n, &b.contrastive);
  const int64_t max_len = full.masked.max_len;
  for (size_t i = 0; i < full.mask_positions.size(); ++i) {
    const int64_t flat = full.mask_positions[i];
    if (flat < half * max_len) {
      a.mask_positions.push_back(flat);
      a.mask_targets.push_back(full.mask_targets[i]);
    } else {
      b.mask_positions.push_back(flat - half * max_len);
      b.mask_targets.push_back(full.mask_targets[i]);
    }
  }
  return {std::move(a), std::move(b)};
}

// ---------------------------------------------------------------------------
// K-shard bitwise identity (engine level: parameters + optimizer state +
// per-step losses).
// ---------------------------------------------------------------------------

TEST_F(ParallelTrainerTest, ShardCountIsBitwiseNeutral) {
  ASSERT_GE(world_->corpus.size(), 8u);
  const std::vector<int64_t> indices = {0, 1, 2, 3, 4, 5, 6, 7};
  constexpr int64_t kSteps = 3;

  // Reference: single shard over the same grain decomposition.
  std::vector<double> ref_losses;
  auto reference = MakeModel(kSeed);
  nn::AdamW ref_opt(reference->Parameters(), 1e-3);
  {
    ShardConfig config;
    config.num_shards = 1;
    config.shard_grain = 2;
    config.seed = kSeed;
    ParallelTrainer trainer(reference.get(), config);
    for (int64_t s = 0; s < kSteps; ++s) {
      const data::TrainingBatch tb = MakeBatch(indices, s);
      ref_losses.push_back(
          trainer.Step({&tb}, s, &ref_opt, /*lr=*/1e-3).loss);
    }
  }

  for (const int k : {2, 3, 5}) {
    SCOPED_TRACE("num_shards=" + std::to_string(k));
    auto model = MakeModel(kSeed);
    nn::AdamW opt(model->Parameters(), 1e-3);
    ShardConfig config;
    config.num_shards = k;
    config.shard_grain = 2;
    config.seed = kSeed;
    ParallelTrainer trainer(model.get(), config);
    for (int64_t s = 0; s < kSteps; ++s) {
      const data::TrainingBatch tb = MakeBatch(indices, s);
      const ShardStepStats stats = trainer.Step({&tb}, s, &opt, 1e-3);
      EXPECT_EQ(stats.loss, ref_losses[static_cast<size_t>(s)])
          << "loss diverged at step " << s;
    }
    ExpectParamsBitwiseEqual(*reference, *model);
    // Optimizer slot buffers are part of the contract too: a bitwise run
    // that diverges in m/v would drift after resume.
    for (size_t i = 0; i < ref_opt.moment1().size(); ++i) {
      ExpectFloatsBitwiseEqual(ref_opt.moment1()[i], opt.moment1()[i],
                               "adam m");
      ExpectFloatsBitwiseEqual(ref_opt.moment2()[i], opt.moment2()[i],
                               "adam v");
    }
    EXPECT_EQ(ref_opt.step_count(), opt.step_count());
  }
}

// With shard_grain == 0 (no intra-batch decomposition) a K > 1 engine must
// still match K = 1: grains then map 1:1 to micro-batches.
TEST_F(ParallelTrainerTest, WholeBatchGrainsStayBitwiseNeutral) {
  const std::vector<int64_t> indices = {0, 1, 2, 3, 4, 5};
  auto a = MakeModel(kSeed);
  auto b = MakeModel(kSeed);
  nn::AdamW opt_a(a->Parameters(), 1e-3), opt_b(b->Parameters(), 1e-3);
  ShardConfig config;
  config.shard_grain = 0;
  config.accum_steps = 2;
  config.seed = kSeed;
  ShardConfig config_k3 = config;
  config_k3.num_shards = 3;
  ParallelTrainer trainer_a(a.get(), config);
  ParallelTrainer trainer_b(b.get(), config_k3);
  const data::TrainingBatch m0 = MakeBatch(indices, 0);
  const data::TrainingBatch m1 = MakeBatch(indices, 1);
  const ShardStepStats sa = trainer_a.Step({&m0, &m1}, 0, &opt_a, 1e-3);
  const ShardStepStats sb = trainer_b.Step({&m0, &m1}, 0, &opt_b, 1e-3);
  EXPECT_EQ(sa.loss, sb.loss);
  EXPECT_EQ(sa.grains, 2);
  ExpectParamsBitwiseEqual(*a, *b);
}

// Ablation variants drop one central loss entirely; the engine must handle
// an undefined logits/CLS gather on every shard count.
TEST_F(ParallelTrainerTest, TaskAblationsStayBitwiseNeutral) {
  const std::vector<int64_t> indices = {0, 1, 2, 3, 4, 5};
  for (const bool use_mask : {true, false}) {
    SCOPED_TRACE(use_mask ? "mask_only" : "contrastive_only");
    data::PretrainBatchOptions options;
    options.use_mask_task = use_mask;
    options.use_contrastive_task = !use_mask;
    common::Rng rng(data::BatchLoader::StepSeed(kSeed, 0));
    data::TrainingBatch tb;
    data::MakePretrainBuilder(&world_->corpus, world_->traffic.get(),
                              options)(indices, &rng, &tb);

    auto a = MakeModel(kSeed);
    auto b = MakeModel(kSeed);
    nn::AdamW opt_a(a->Parameters(), 1e-3), opt_b(b->Parameters(), 1e-3);
    ShardConfig config;
    config.shard_grain = 2;
    config.use_mask_task = use_mask;
    config.use_contrastive_task = !use_mask;
    config.seed = kSeed;
    ShardConfig config_k3 = config;
    config_k3.num_shards = 3;
    ParallelTrainer trainer_a(a.get(), config);
    ParallelTrainer trainer_b(b.get(), config_k3);
    const ShardStepStats sa = trainer_a.Step({&tb}, 0, &opt_a, 1e-3);
    const ShardStepStats sb = trainer_b.Step({&tb}, 0, &opt_b, 1e-3);
    EXPECT_EQ(sa.loss, sb.loss);
    if (use_mask) {
      EXPECT_EQ(sa.con_loss, 0.0);
      EXPECT_GT(sa.mask_loss, 0.0);
    } else {
      EXPECT_EQ(sa.mask_loss, 0.0);
      EXPECT_GT(sa.con_loss, 0.0);
    }
    ExpectParamsBitwiseEqual(*a, *b);
  }
}

// ---------------------------------------------------------------------------
// Gradient accumulation: 2 micro-batches ≡ 1 double batch, bitwise.
// ---------------------------------------------------------------------------

TEST_F(ParallelTrainerTest, TwoMicroBatchesMatchOneDoubleBatchBitwise) {
  ASSERT_GE(world_->corpus.size(), 8u);
  const std::vector<int64_t> indices = {3, 1, 7, 2, 6, 0, 5, 4};
  constexpr int64_t kGrain = 2;  // divides the half batch: slices align

  auto whole = MakeModel(kSeed);
  auto split = MakeModel(kSeed);
  nn::AdamW opt_whole(whole->Parameters(), 1e-3);
  nn::AdamW opt_split(split->Parameters(), 1e-3);

  ShardConfig whole_config;
  whole_config.num_shards = 2;
  whole_config.shard_grain = kGrain;
  whole_config.accum_steps = 1;
  whole_config.seed = kSeed;
  ShardConfig split_config = whole_config;
  split_config.num_shards = 3;  // also cross-checks shard neutrality
  split_config.accum_steps = 2;

  ParallelTrainer whole_trainer(whole.get(), whole_config);
  ParallelTrainer split_trainer(split.get(), split_config);
  for (int64_t s = 0; s < 2; ++s) {
    const data::TrainingBatch full = MakeBatch(indices, s);
    const auto [micro_a, micro_b] = SplitBatch(full);
    const ShardStepStats stats_whole =
        whole_trainer.Step({&full}, s, &opt_whole, 1e-3);
    const ShardStepStats stats_split =
        split_trainer.Step({&micro_a, &micro_b}, s, &opt_split, 1e-3);
    // Same grain set → same central losses → same update, bitwise.
    EXPECT_EQ(stats_whole.loss, stats_split.loss);
    EXPECT_EQ(stats_whole.mask_loss, stats_split.mask_loss);
    EXPECT_EQ(stats_whole.con_loss, stats_split.con_loss);
    EXPECT_EQ(stats_whole.grains, stats_split.grains);
  }
  ExpectParamsBitwiseEqual(*whole, *split);
  for (size_t i = 0; i < opt_whole.moment1().size(); ++i) {
    ExpectFloatsBitwiseEqual(opt_whole.moment1()[i], opt_split.moment1()[i],
                             "adam m");
    ExpectFloatsBitwiseEqual(opt_whole.moment2()[i], opt_split.moment2()[i],
                             "adam v");
  }
}

// ---------------------------------------------------------------------------
// Full Pretrain() runs: shard counts, accumulation, and mid-plan resume
// across DIFFERENT shard counts — everything through the loader, the LR
// schedule, and the checkpoint container.
// ---------------------------------------------------------------------------

class ShardedPretrainTest : public ParallelTrainerTest {
 protected:
  PretrainConfig EngineConfig() const {
    PretrainConfig config;
    config.epochs = 2;
    config.batch_size = 8;
    config.lr = 2e-3;
    config.seed = 21;
    config.shard_grain = 2;
    return config;
  }

  PretrainStats Run(const PretrainConfig& config, StartModel* model) {
    return Pretrain(model, world_->corpus, world_->traffic.get(), config);
  }

  static void ExpectStatsBitwiseEqual(const PretrainStats& a,
                                      const PretrainStats& b) {
    ASSERT_EQ(a.epoch_loss.size(), b.epoch_loss.size());
    for (size_t e = 0; e < a.epoch_loss.size(); ++e) {
      EXPECT_EQ(a.epoch_loss[e], b.epoch_loss[e]);
      EXPECT_EQ(a.epoch_mask_loss[e], b.epoch_mask_loss[e]);
      EXPECT_EQ(a.epoch_contrastive_loss[e], b.epoch_contrastive_loss[e]);
    }
  }
};

TEST_F(ShardedPretrainTest, PretrainShardSweepBitwiseIdentical) {
  // Grain 2 splits every batch into micro-shards; grain 0 is the
  // PretrainConfig default (one grain per step) that every run without
  // sharding knobs trains with.
  struct Sweep {
    int64_t grain;
    std::vector<int> shard_counts;
  };
  for (const Sweep& sweep : {Sweep{2, {2, 3}}, Sweep{0, {3}}}) {
    SCOPED_TRACE("shard_grain=" + std::to_string(sweep.grain));
    PretrainConfig base = EngineConfig();
    base.shard_grain = sweep.grain;
    auto reference = MakeModel(77);
    const PretrainStats ref_stats = Run(base, reference.get());  // K = 1
    for (const int k : sweep.shard_counts) {
      SCOPED_TRACE("num_shards=" + std::to_string(k));
      auto model = MakeModel(77);
      PretrainConfig config = base;
      config.num_shards = k;
      const PretrainStats stats = Run(config, model.get());
      ExpectParamsBitwiseEqual(*reference, *model);
      ExpectStatsBitwiseEqual(ref_stats, stats);
    }
  }
}

TEST_F(ShardedPretrainTest, ResumeAcrossShardCountsBitwise) {
  // Reference: uninterrupted single-shard engine run.
  auto reference = MakeModel(77);
  const PretrainStats ref_stats = Run(EngineConfig(), reference.get());

  // Interrupted run with K = 2, checkpointing at the (mid-plan, mid-epoch)
  // interruption point...
  TempDir dir;
  const std::string ckpt = dir.File("sharded_resume.sttn");
  auto half = MakeModel(77);
  PretrainConfig interrupted = EngineConfig();
  interrupted.num_shards = 2;
  interrupted.checkpoint_path = ckpt;
  interrupted.max_steps = 3;  // optimizer steps; lands inside epoch 0
  Run(interrupted, half.get());

  // ...resumed under K = 3 into a differently-initialised model: shard
  // count is a scheduling knob, so the tail must replay the reference run
  // exactly — parameters AND the per-epoch loss trace.
  auto resumed = MakeModel(1234);
  PretrainConfig tail = EngineConfig();
  tail.num_shards = 3;
  tail.checkpoint_path = ckpt;
  tail.resume = true;
  const PretrainStats resumed_stats = Run(tail, resumed.get());
  ExpectParamsBitwiseEqual(*reference, *resumed);
  ExpectStatsBitwiseEqual(ref_stats, resumed_stats);
}

// Resuming from the FINAL checkpoint of a completed sharded run must
// no-op gracefully even when accum_steps does not divide the plan length:
// the end-of-plan cursor then sits after a *partial* accumulation group,
// the one legal non-multiple-of-accum value (regression test — this used
// to CHECK-abort).
TEST_F(ShardedPretrainTest, ResumeAfterCompletedRunWithPartialFinalGroup) {
  PretrainConfig config = EngineConfig();
  config.epochs = 1;
  config.accum_steps = 2;
  // Pick a batch size whose step count is NOT a multiple of accum_steps so
  // the final accumulation group really is partial.
  const auto total_steps_for = [&](int64_t batch_size) {
    data::PlanConfig plan_config;
    plan_config.batch_size = batch_size;
    plan_config.epochs = config.epochs;
    plan_config.seed = config.seed;
    return static_cast<int64_t>(
        data::MakeShuffledPlan(data::Lengths(world_->corpus), plan_config)
            .steps.size());
  };
  int64_t batch_size = 0;
  for (const int64_t candidate : {8, 7, 9, 11, 13}) {
    if (total_steps_for(candidate) % config.accum_steps != 0) {
      batch_size = candidate;
      break;
    }
  }
  ASSERT_GT(batch_size, 0) << "no batch size yields a partial final group";
  config.batch_size = batch_size;
  config.num_shards = 2;

  TempDir dir;
  config.checkpoint_path = dir.File("completed.sttn");
  auto model = MakeModel(11);
  Run(config, model.get());  // completes; final save cursor == total_steps

  auto resumed = MakeModel(12);
  PretrainConfig again = config;
  again.resume = true;
  const PretrainStats stats = Run(again, resumed.get());  // must not abort
  ASSERT_EQ(stats.epoch_loss.size(), 1u);
  // The resumed run consumed no steps: its parameters are exactly the
  // checkpointed (completed) ones.
  ExpectParamsBitwiseEqual(*model, *resumed);
}

// A checkpoint written under one grain decomposition must not silently
// resume under another — the summation order differs, so the plan hash
// refuses and the run restarts from scratch: it matches a run that never
// saw the checkpoint, bitwise.
TEST_F(ShardedPretrainTest, GrainChangeRefusesResume) {
  TempDir dir;
  const std::string ckpt = dir.File("grain2.sttn");
  auto a = MakeModel(5);
  PretrainConfig grain2 = EngineConfig();
  grain2.num_shards = 2;
  grain2.checkpoint_path = ckpt;
  grain2.max_steps = 3;  // mid-plan cursor: a resume would skip steps
  Run(grain2, a.get());

  PretrainConfig grain0 = EngineConfig();
  grain0.shard_grain = 0;
  auto fresh = MakeModel(6);
  const PretrainStats fresh_stats = Run(grain0, fresh.get());

  auto b = MakeModel(6);
  PretrainConfig resumed = grain0;
  resumed.checkpoint_path = ckpt;
  resumed.resume = true;  // refused -> trains from scratch
  const PretrainStats stats = Run(resumed, b.get());
  ExpectParamsBitwiseEqual(*fresh, *b);
  ExpectStatsBitwiseEqual(fresh_stats, stats);
}

// The checkpoint records the shard topology and per-replica RNG cursors.
TEST_F(ShardedPretrainTest, CheckpointCarriesShardTopology) {
  TempDir dir;
  const std::string ckpt = dir.File("topology.sttn");
  auto model = MakeModel(9);
  PretrainConfig config = EngineConfig();
  config.num_shards = 3;
  config.accum_steps = 1;
  config.checkpoint_path = ckpt;
  config.max_steps = 2;
  Run(config, model.get());

  auto probe = MakeModel(9);
  nn::AdamW opt(probe->Parameters(), 1e-3);
  auto state = LoadTrainingCheckpoint(ckpt, probe.get(), &opt,
                                      /*expected_config_hash=*/0);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->num_shards, 3);
  EXPECT_EQ(state->shard_grain, 2);
  EXPECT_EQ(state->accum_steps, 1);
  EXPECT_EQ(state->shard_rng.size(), 3u * 6u);  // 6 state words per shard
}

}  // namespace
}  // namespace start::core
