// Reduction-path tests for the data-parallel sharded pretraining engine:
//  * the fixed-order tree all-reduce itself (nn/allreduce.h),
//  * K-shard bitwise-identity to single-shard execution (the engine's core
//    contract), for parameters, optimizer state, AND loss curves,
//  * mid-plan checkpoint resume across *different* shard counts, and from
//    files that carry records older writers added.
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
#include "tensor/serialize.h"
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
    PretrainConfig config;
    config.num_shards = 1;
    config.shard_grain = 2;
    config.seed = kSeed;
    ParallelTrainer trainer(reference.get(), config);
    for (int64_t s = 0; s < kSteps; ++s) {
      const data::TrainingBatch tb = MakeBatch(indices, s);
      ref_losses.push_back(trainer.Step(tb, &ref_opt, /*lr=*/1e-3).loss);
    }
  }

  for (const int k : {2, 3, 5}) {
    SCOPED_TRACE("num_shards=" + std::to_string(k));
    auto model = MakeModel(kSeed);
    nn::AdamW opt(model->Parameters(), 1e-3);
    PretrainConfig config;
    config.num_shards = k;
    config.shard_grain = 2;
    config.seed = kSeed;
    ParallelTrainer trainer(model.get(), config);
    for (int64_t s = 0; s < kSteps; ++s) {
      const data::TrainingBatch tb = MakeBatch(indices, s);
      const ShardStepStats stats = trainer.Step(tb, &opt, 1e-3);
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

// With shard_grain == 0 (no intra-batch decomposition) each step is one
// grain, so a K > 1 engine leaves all but one replica idle — and must still
// match K = 1.
TEST_F(ParallelTrainerTest, WholeBatchGrainsStayBitwiseNeutral) {
  const std::vector<int64_t> indices = {0, 1, 2, 3, 4, 5};
  auto a = MakeModel(kSeed);
  auto b = MakeModel(kSeed);
  nn::AdamW opt_a(a->Parameters(), 1e-3), opt_b(b->Parameters(), 1e-3);
  PretrainConfig config;
  config.shard_grain = 0;
  config.seed = kSeed;
  PretrainConfig config_k3 = config;
  config_k3.num_shards = 3;
  ParallelTrainer trainer_a(a.get(), config);
  ParallelTrainer trainer_b(b.get(), config_k3);
  for (int64_t s = 0; s < 2; ++s) {
    const data::TrainingBatch tb = MakeBatch(indices, s);
    const ShardStepStats sa = trainer_a.Step(tb, &opt_a, 1e-3);
    const ShardStepStats sb = trainer_b.Step(tb, &opt_b, 1e-3);
    EXPECT_EQ(sa.loss, sb.loss);
    EXPECT_EQ(sa.grains, 1);
    EXPECT_EQ(sb.grains, 1);
  }
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
    PretrainConfig config;
    config.shard_grain = 2;
    config.use_mask_task = use_mask;
    config.use_contrastive_task = !use_mask;
    config.seed = kSeed;
    PretrainConfig config_k3 = config;
    config_k3.num_shards = 3;
    ParallelTrainer trainer_a(a.get(), config);
    ParallelTrainer trainer_b(b.get(), config_k3);
    const ShardStepStats sa = trainer_a.Step(tb, &opt_a, 1e-3);
    const ShardStepStats sb = trainer_b.Step(tb, &opt_b, 1e-3);
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
// Full Pretrain() runs: shard counts and mid-plan resume across DIFFERENT
// shard counts — everything through the loader, the LR schedule, and the
// checkpoint container.
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

// Resuming from the FINAL checkpoint of a completed sharded run is a no-op:
// the end-of-plan cursor consumes no steps.
TEST_F(ShardedPretrainTest, ResumeAfterCompletedRunIsNoOp) {
  PretrainConfig config = EngineConfig();
  config.epochs = 1;
  config.num_shards = 2;
  TempDir dir;
  config.checkpoint_path = dir.File("completed.sttn");
  auto model = MakeModel(11);
  Run(config, model.get());  // completes; final save cursor == total_steps

  auto resumed = MakeModel(12);
  PretrainConfig again = config;
  again.resume = true;
  const PretrainStats stats = Run(again, resumed.get());
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

// Older writers also saved the dropout-stream cursor, the shard topology and
// the per-replica RNG cursors. No loader reads them, so a checkpoint that
// carries them must resume exactly like one that does not.
TEST_F(ShardedPretrainTest, RetiredTrainerRecordsAreIgnoredOnResume) {
  auto reference = MakeModel(77);
  const PretrainStats ref_stats = Run(EngineConfig(), reference.get());

  TempDir dir;
  const std::string ckpt = dir.File("retired_records.sttn");
  auto half = MakeModel(77);
  PretrainConfig interrupted = EngineConfig();
  interrupted.num_shards = 2;
  interrupted.checkpoint_path = ckpt;
  interrupted.max_steps = 3;
  Run(interrupted, half.get());

  auto bundle = tensor::LoadBundle(ckpt);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  tensor::RecordBundle records = std::move(bundle->records);
  ASSERT_EQ(records.uints.count("trainer.rng_state"), 0u);
  ASSERT_EQ(records.ints.count("trainer.shard_topology"), 0u);
  ASSERT_EQ(records.uints.count("trainer.shard_rng"), 0u);
  records.uints["trainer.rng_state"] = {1, 2, 3, 4, 5, 6};
  records.ints["trainer.shard_topology"] = {2, 2, 1};
  records.uints["trainer.shard_rng"] = std::vector<uint64_t>(12, 0x5eed);
  ASSERT_TRUE(tensor::SaveBundle(ckpt, bundle->meta_tag, records).ok());

  auto resumed = MakeModel(1234);
  PretrainConfig tail = EngineConfig();
  tail.checkpoint_path = ckpt;
  tail.resume = true;
  const PretrainStats resumed_stats = Run(tail, resumed.get());
  ExpectParamsBitwiseEqual(*reference, *resumed);
  ExpectStatsBitwiseEqual(ref_stats, resumed_stats);
}

}  // namespace
}  // namespace start::core
