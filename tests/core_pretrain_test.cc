#include "core/pretrain.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "data/batch.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "data/span_mask.h"
#include "tensor/serialize.h"
#include "testing.h"

namespace start::core {
namespace {

// Fixture world and model scale come from the shared harness
// (tests/testing.h); this file keeps only pretrain-specific logic.
class PretrainTest : public ::testing::Test {
 protected:
  PretrainTest()
      : world_(testutil::MakeTinyWorld()),
        net_(*world_->net),
        traffic_(*world_->traffic),
        corpus_(world_->corpus),
        transfer_(world_->transfer.get()) {}

  StartConfig TinyConfig() const { return testutil::TinyStartConfig(); }

  std::unique_ptr<testutil::TinyWorld> world_;
  roadnet::RoadNetwork& net_;
  traj::TrafficModel& traffic_;
  std::vector<traj::Trajectory>& corpus_;
  roadnet::TransferProbability* transfer_;
};

TEST_F(PretrainTest, LossDecreasesOverEpochs) {
  ASSERT_GT(corpus_.size(), 30u);
  common::Rng rng(1);
  StartModel model(TinyConfig(), &net_, transfer_, &rng);
  PretrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.lr = 2e-3;
  const PretrainStats stats = Pretrain(&model, corpus_, &traffic_, config);
  ASSERT_EQ(stats.epoch_loss.size(), 4u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST_F(PretrainTest, MaskOnlyVariantTrains) {
  common::Rng rng(2);
  StartModel model(TinyConfig(), &net_, transfer_, &rng);
  PretrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.use_contrastive_task = false;
  const PretrainStats stats = Pretrain(&model, corpus_, &traffic_, config);
  EXPECT_LT(stats.epoch_mask_loss.back(), stats.epoch_mask_loss.front());
  EXPECT_EQ(stats.epoch_contrastive_loss.back(), 0.0);
}

TEST_F(PretrainTest, ContrastiveOnlyVariantTrains) {
  common::Rng rng(3);
  StartModel model(TinyConfig(), &net_, transfer_, &rng);
  PretrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.lr = 2e-3;
  config.use_mask_task = false;
  const PretrainStats stats = Pretrain(&model, corpus_, &traffic_, config);
  EXPECT_LT(stats.epoch_contrastive_loss.back(),
            stats.epoch_contrastive_loss.front());
  EXPECT_EQ(stats.epoch_mask_loss.back(), 0.0);
}

TEST_F(PretrainTest, MaskedRecoveryBeatsChance) {
  // After enough epochs of span-masked recovery, the model should predict
  // masked roads far better than the 1/|V| chance level.
  common::Rng rng(4);
  StartConfig model_config = TinyConfig();
  model_config.d = 32;
  model_config.gat_layers = 2;
  model_config.gat_heads = {4, 1};
  model_config.encoder_layers = 2;
  StartModel model(model_config, &net_, transfer_, &rng);
  PretrainConfig config;
  config.epochs = 40;
  config.batch_size = 8;
  config.lr = 2e-3;
  config.use_contrastive_task = false;
  Pretrain(&model, corpus_, &traffic_, config);

  model.SetTraining(false);
  tensor::NoGradGuard no_grad;
  common::Rng mask_rng(5);
  int64_t correct = 0, total = 0;
  for (size_t i = 0; i < std::min<size_t>(30, corpus_.size()); ++i) {
    data::View v = data::MakeView(corpus_[i]);
    const auto info = data::ApplySpanMask(&v, 2, 0.15, &mask_rng);
    if (info.positions.empty()) continue;
    const data::Batch batch = data::MakeBatch({v});
    const auto out = model.Encode(batch);
    const auto logits =
        model.MaskedLogits(out, info.positions, batch.max_len);
    for (size_t k = 0; k < info.positions.size(); ++k) {
      const float* row = logits.data() + k * net_.num_segments();
      int64_t argmax = 0;
      for (int64_t c = 1; c < net_.num_segments(); ++c) {
        if (row[c] > row[argmax]) argmax = c;
      }
      correct += argmax == info.targets[k] ? 1 : 0;
      ++total;
    }
  }
  ASSERT_GT(total, 0);
  const double acc = static_cast<double>(correct) / static_cast<double>(total);
  const double chance = 1.0 / static_cast<double>(net_.num_segments());
  EXPECT_GT(acc, 5.0 * chance);
}

// ---- Golden training output -------------------------------------------------

/// FNV-1a over every parameter's float bytes, in registry order.
uint64_t HashParameters(const nn::Module& module) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, t] : module.NamedParameters()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    const size_t n = static_cast<size_t>(t.numel()) * sizeof(float);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Exact spellings of a value, so a failure message can be pasted back.
std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}
std::string HexWord(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ExpectCurve(const std::vector<double>& actual,
                 const std::vector<double>& expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t e = 0; e < actual.size(); ++e) {
    EXPECT_EQ(actual[e], expected[e])
        << what << " epoch " << e << " reads " << HexDouble(actual[e]);
  }
}

struct GoldenRun {
  const char* name;
  bool use_mask_task;
  bool use_contrastive_task;
  uint64_t param_hash;
  std::vector<double> loss, mask_loss, contrastive_loss;
};

// Trains the tiny world at the PretrainConfig defaults and compares the
// final parameter bytes and every per-epoch loss with constants recorded
// from an earlier build, so a change to the training step that moves one bit
// of the output fails here rather than passing every self-consistency test.
// The constants hold for one floating-point stream: a change that alters it
// on purpose must re-record them (each failure prints the new value). The
// plan hash pins resume compatibility: a checkpoint written by the recording
// build carries this hash and resumes only if the plan still hashes to it.
TEST_F(PretrainTest, DefaultRunMatchesGoldenBits) {
  constexpr uint64_t kPlanHash = 0x248c3826fbda0a25ULL;
  const std::vector<GoldenRun> runs = {
      {"both_tasks", true, true, 0xdde64b167be11cdeULL,
       {0x1.1c2d889249249p+2, 0x1.09bd4f8p+2, 0x1.05c1eap+2,
        0x1.0544bb6db6db7p+2, 0x1.00a3bc1249249p+2},
       {0x1.2541809249249p+2, 0x1.2146384924925p+2, 0x1.20e9164924925p+2,
        0x1.23884c9249249p+2, 0x1.1ecc6b4924925p+2},
       {0x1.0e8f932492492p+2, 0x1.ccdfe1db6db6ep+1, 0x1.ba0e4c4924925p+1,
        0x1.afbec1p+1, 0x1.a6cd674924925p+1}},
      {"mask_only", true, false, 0xe2d0065b1d9d0162ULL,
       {0x1.2509ed9249249p+2, 0x1.2042aap+2, 0x1.207bcf6db6db7p+2,
        0x1.21d0224924925p+2, 0x1.1d54d12492492p+2},
       {0x1.2509ed9249249p+2, 0x1.2042aap+2, 0x1.207bcf6db6db7p+2,
        0x1.21d0224924925p+2, 0x1.1d54d12492492p+2},
       {0, 0, 0, 0, 0}},
      {"contrastive_only", false, true, 0x43f89cc6616421a1ULL,
       {0x1.10d56236db6dbp+2, 0x1.d587d92492492p+1, 0x1.ad1bbcdb6db6ep+1,
        0x1.a9aba5edb6db7p+1, 0x1.a05a07b6db6dbp+1},
       {0, 0, 0, 0, 0},
       {0x1.10d56236db6dbp+2, 0x1.d587d92492492p+1, 0x1.ad1bbcdb6db6ep+1,
        0x1.a9aba5edb6db7p+1, 0x1.a05a07b6db6dbp+1}},
  };
  testutil::TempDir dir;
  for (const GoldenRun& golden : runs) {
    SCOPED_TRACE(golden.name);
    common::Rng rng(1);
    StartModel model(TinyConfig(), &net_, transfer_, &rng);
    PretrainConfig config;
    config.use_mask_task = golden.use_mask_task;
    config.use_contrastive_task = golden.use_contrastive_task;
    config.checkpoint_path = dir.File(std::string(golden.name) + ".sttn");
    const PretrainStats stats = Pretrain(&model, corpus_, &traffic_, config);

    const uint64_t param_hash = HashParameters(model);
    EXPECT_EQ(param_hash, golden.param_hash)
        << "parameter hash reads " << HexWord(param_hash);
    ExpectCurve(stats.epoch_loss, golden.loss, "loss");
    ExpectCurve(stats.epoch_mask_loss, golden.mask_loss, "mask loss");
    ExpectCurve(stats.epoch_contrastive_loss, golden.contrastive_loss,
                "contrastive loss");

    auto bundle = tensor::LoadBundle(config.checkpoint_path);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const auto& uints = bundle->records.uints;
    ASSERT_EQ(uints.count("trainer.plan_hash"), 1u);
    const uint64_t plan_hash = uints.at("trainer.plan_hash")[0];
    EXPECT_EQ(plan_hash, kPlanHash) << "plan hash reads " << HexWord(plan_hash);
  }
}

// ---- Checkpoint / resume determinism --------------------------------------

// Interrupt a run at mid-plan, resume it from the checkpoint into a fresh
// model, and require the final parameters and loss trace to be bitwise
// identical to a never-interrupted run. Per-step seeding of the batch and
// dropout streams makes the resumed tail replay exactly.
TEST_F(PretrainTest, ResumeMatchesUninterruptedRunBitwise) {
  PretrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.lr = 2e-3;
  config.seed = 21;

  // The plan is a pure function of (lengths, plan knobs); rebuild it here to
  // learn the interruption point K/2.
  data::PlanConfig plan_config;
  plan_config.batch_size = config.batch_size;
  plan_config.epochs = config.epochs;
  plan_config.seed = config.seed;
  const int64_t total_steps = static_cast<int64_t>(
      data::MakeShuffledPlan(data::Lengths(corpus_), plan_config)
          .steps.size());
  ASSERT_GT(total_steps, 3);

  // Reference: one uninterrupted run.
  common::Rng rng_full(77);
  StartModel full(TinyConfig(), &net_, transfer_, &rng_full);
  const PretrainStats stats_full = Pretrain(&full, corpus_, &traffic_, config);

  // Interrupted run: stop (and checkpoint) after K/2 steps...
  testutil::TempDir dir;
  const std::string ckpt = dir.File("resume.sttn");
  common::Rng rng_half(77);  // identical init to the reference run
  StartModel half(TinyConfig(), &net_, transfer_, &rng_half);
  PretrainConfig interrupted = config;
  interrupted.checkpoint_path = ckpt;
  interrupted.max_steps = total_steps / 2;
  Pretrain(&half, corpus_, &traffic_, interrupted);

  // ...then resume into a model with a *different* init: everything that
  // matters must come from the checkpoint.
  common::Rng rng_resumed(1234);
  StartModel resumed(TinyConfig(), &net_, transfer_, &rng_resumed);
  PretrainConfig tail = config;
  tail.checkpoint_path = ckpt;
  tail.resume = true;
  const PretrainStats stats_resumed =
      Pretrain(&resumed, corpus_, &traffic_, tail);

  // Bitwise-identical parameters and a bitwise-identical loss trace.
  testutil::ExpectParamsBitwiseEqual(full, resumed);
  ASSERT_EQ(stats_full.epoch_loss.size(), stats_resumed.epoch_loss.size());
  for (size_t e = 0; e < stats_full.epoch_loss.size(); ++e) {
    EXPECT_EQ(stats_full.epoch_loss[e], stats_resumed.epoch_loss[e]);
    EXPECT_EQ(stats_full.epoch_mask_loss[e], stats_resumed.epoch_mask_loss[e]);
    EXPECT_EQ(stats_full.epoch_contrastive_loss[e],
              stats_resumed.epoch_contrastive_loss[e]);
  }
}

// A checkpoint written under one plan must not silently resume a different
// plan (changed epochs => changed schedule and step universe): the trainer
// logs and restarts from scratch, which still trains successfully.
TEST_F(PretrainTest, ResumeUnderDifferentPlanFallsBackToScratch) {
  testutil::TempDir dir;
  const std::string ckpt = dir.File("plan_change.sttn");
  common::Rng rng_a(5);
  StartModel a(TinyConfig(), &net_, transfer_, &rng_a);
  PretrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.checkpoint_path = ckpt;
  Pretrain(&a, corpus_, &traffic_, config);

  common::Rng rng_b(6);
  StartModel b(TinyConfig(), &net_, transfer_, &rng_b);
  PretrainConfig changed = config;
  changed.epochs = 3;  // different plan -> resume refused, fresh run
  changed.resume = true;
  const PretrainStats stats = Pretrain(&b, corpus_, &traffic_, changed);
  ASSERT_EQ(stats.epoch_loss.size(), 3u);
  EXPECT_GT(stats.epoch_loss.front(), 0.0);
}

// Resuming from the FINAL checkpoint of a completed run is a no-op: the
// end-of-plan cursor consumes no steps.
TEST_F(PretrainTest, ResumeAfterCompletedRunIsNoOp) {
  PretrainConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  testutil::TempDir dir;
  config.checkpoint_path = dir.File("completed.sttn");
  common::Rng rng_a(11);
  StartModel model(TinyConfig(), &net_, transfer_, &rng_a);
  Pretrain(&model, corpus_, &traffic_, config);  // final cursor == all steps

  common::Rng rng_b(12);
  StartModel resumed(TinyConfig(), &net_, transfer_, &rng_b);
  PretrainConfig again = config;
  again.resume = true;
  const PretrainStats stats = Pretrain(&resumed, corpus_, &traffic_, again);
  ASSERT_EQ(stats.epoch_loss.size(), 1u);
  // The resumed run consumed no steps: its parameters are exactly the
  // checkpointed (completed) ones.
  testutil::ExpectParamsBitwiseEqual(model, resumed);
}

// Older writers also saved the dropout-stream cursor, the shard topology and
// the per-replica RNG cursors. No loader reads them, so a checkpoint that
// carries them must resume exactly like one that does not.
TEST_F(PretrainTest, RetiredTrainerRecordsAreIgnoredOnResume) {
  PretrainConfig config;
  config.epochs = 2;
  config.batch_size = 8;
  config.lr = 2e-3;
  config.seed = 21;
  common::Rng rng_full(77);
  StartModel full(TinyConfig(), &net_, transfer_, &rng_full);
  const PretrainStats stats_full = Pretrain(&full, corpus_, &traffic_, config);

  testutil::TempDir dir;
  const std::string ckpt = dir.File("retired_records.sttn");
  common::Rng rng_half(77);
  StartModel half(TinyConfig(), &net_, transfer_, &rng_half);
  PretrainConfig interrupted = config;
  interrupted.checkpoint_path = ckpt;
  interrupted.max_steps = 3;
  Pretrain(&half, corpus_, &traffic_, interrupted);

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

  common::Rng rng_resumed(1234);
  StartModel resumed(TinyConfig(), &net_, transfer_, &rng_resumed);
  PretrainConfig tail = config;
  tail.checkpoint_path = ckpt;
  tail.resume = true;
  const PretrainStats stats_resumed =
      Pretrain(&resumed, corpus_, &traffic_, tail);
  testutil::ExpectParamsBitwiseEqual(full, resumed);
  ASSERT_EQ(stats_full.epoch_loss.size(), stats_resumed.epoch_loss.size());
  for (size_t e = 0; e < stats_full.epoch_loss.size(); ++e) {
    EXPECT_EQ(stats_full.epoch_loss[e], stats_resumed.epoch_loss[e]);
    EXPECT_EQ(stats_full.epoch_mask_loss[e], stats_resumed.epoch_mask_loss[e]);
    EXPECT_EQ(stats_full.epoch_contrastive_loss[e],
              stats_resumed.epoch_contrastive_loss[e]);
  }
}

// A task ablation drops one loss branch from every step. The other loss
// still trains, and parameters only the dropped branch reads (the MLM head
// in the contrastive-only run) get zero gradients, so AdamW's decoupled
// weight decay still shrinks them every step.
TEST_F(PretrainTest, TaskAblationsKeepDecayingUnusedParameters) {
  for (const bool use_mask : {true, false}) {
    SCOPED_TRACE(use_mask ? "mask_only" : "contrastive_only");
    common::Rng rng(9);
    StartModel model(TinyConfig(), &net_, transfer_, &rng);
    tensor::Tensor head;
    for (const auto& [name, t] : model.NamedParameters()) {
      if (name == "mlm_head.weight") head = t;
    }
    ASSERT_TRUE(head.defined());
    const auto abs_sum = [&head] {
      double sum = 0.0;
      for (int64_t k = 0; k < head.numel(); ++k) sum += std::abs(head.data()[k]);
      return sum;
    };
    const double head_before = abs_sum();
    PretrainConfig config;
    config.epochs = 1;
    config.batch_size = 8;
    config.use_mask_task = use_mask;
    config.use_contrastive_task = !use_mask;
    const PretrainStats stats = Pretrain(&model, corpus_, &traffic_, config);
    EXPECT_GT(use_mask ? stats.epoch_mask_loss[0]
                       : stats.epoch_contrastive_loss[0],
              0.0);
    EXPECT_EQ(use_mask ? stats.epoch_contrastive_loss[0]
                       : stats.epoch_mask_loss[0],
              0.0);
    if (use_mask) {
      EXPECT_NE(abs_sum(), head_before);
    } else {
      EXPECT_LT(abs_sum(), head_before);
    }
  }
}

}  // namespace
}  // namespace start::core
