#include "core/pretrain.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "core/checkpoint.h"
#include "data/dataset.h"
#include "data/loader.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "tensor/ops.h"

namespace start::core {

namespace {

using tensor::Tensor;

/// Folded into every plan hash. Checkpoints written by the single-replica
/// loop that preceded the data-parallel engine carry the same plan fields
/// without this word, and their floating-point stream differs from today's,
/// so the marker makes Pretrain refuse them rather than resume incoherently.
/// The engine's micro-shard size followed it in the hash; the step now
/// always runs the whole batch as one shard, so a constant 0 is folded in
/// its place, then kBatchesPerStep. Checkpoints the engine wrote at its
/// default (whole-batch) shard size therefore keep their hash and resume.
constexpr uint64_t kShardedEngineMarker = 0x5aa2ded0e6019e5dULL;

/// Loader batches per optimizer step. Always 1; checkpoints written while
/// several batches could share a step folded that count here, so keeping
/// the word keeps their plan hash — and their resume — valid.
constexpr uint64_t kBatchesPerStep = 1;

/// Salts separating the step's dropout streams from each other and from the
/// batch's augmentation stream.
constexpr uint64_t kEncoderDropoutSalt = 0x5aadd0f05eedULL;
constexpr uint64_t kStage1DropoutSalt = 0x57a6e15eed01ULL;

/// A leaf tensor aliasing `t`'s values (zero-copy) with its own gradient
/// buffer and no graph edges: the boundary at which one backward pass stops
/// and the next is seeded.
Tensor DetachedLeaf(const Tensor& t) {
  const auto& src = t.impl();
  auto impl = std::make_shared<tensor::TensorImpl>();
  impl->shape = src->shape;
  impl->storage = src->storage;
  impl->strides = src->strides;
  impl->offset = src->offset;
  impl->contiguous = src->contiguous;
  impl->requires_grad = true;
  impl->op = "detached_leaf";
  return Tensor(std::move(impl));
}

struct StepLosses {
  double loss = 0.0;
  double mask_loss = 0.0;  ///< 0 when the batch has no masked positions.
  double con_loss = 0.0;   ///< 0 when the contrastive task is off.
};

/// One optimizer step over `batch`; Pretrain's doc comment states the
/// contract. `opt` must be built from `model`'s parameters.
StepLosses TrainStep(StartModel* model, const data::TrainingBatch& batch,
                     int64_t step, const PretrainConfig& config,
                     common::Rng* dropout_rng, nn::AdamW* opt, double lr) {
  const bool has_masked = config.use_mask_task && batch.has_masked &&
                          !batch.mask_positions.empty();
  const bool has_con = config.use_contrastive_task && batch.has_contrastive;
  START_CHECK_MSG(has_masked || has_con,
                  "optimizer step with no loss contributions");
  const std::vector<Tensor>& params = opt->params();
  // Gradients stay unallocated until a backward pass reaches them.
  for (const auto& p : params) p.impl()->grad.reset();

  dropout_rng->Seed(data::StepSeed(config.seed ^ kStage1DropoutSalt, step));
  Tensor road_reps = model->ComputeRoadReps();
  const Tensor reps = DetachedLeaf(road_reps);
  // The outer StepSeed's ordinal 0 names the first micro-shard of the
  // retired data-parallel engine, whose stream this keeps.
  dropout_rng->Seed(data::StepSeed(
      data::StepSeed(config.seed ^ kEncoderDropoutSalt, step), 0));
  StepLosses losses;
  {  // The stage-2 graphs die at the end of this scope, before stage 1's
     // backward allocates its gradients.
    Tensor logits, cls;
    if (has_masked) {
      logits = model->MaskedLogits(model->Encode(batch.masked, reps),
                                   batch.mask_positions, batch.masked.max_len);
    }
    if (has_con) cls = model->Encode(batch.contrastive, reps).cls;

    Tensor logits_leaf, cls_leaf, loss;
    if (has_masked) {
      logits_leaf = DetachedLeaf(logits);
      const Tensor mask_loss =
          tensor::CrossEntropyWithLogits(logits_leaf, batch.mask_targets);
      losses.mask_loss = mask_loss.item();
      loss = tensor::Scale(mask_loss, config.use_contrastive_task
                                          ? static_cast<float>(config.lambda)
                                          : 1.0f);
    }
    if (has_con) {
      cls_leaf = DetachedLeaf(cls);
      const Tensor con_loss = nn::NtXentLoss(cls_leaf, config.tau);
      losses.con_loss = con_loss.item();
      const Tensor scaled = tensor::Scale(
          con_loss, config.use_mask_task
                        ? static_cast<float>(1.0 - config.lambda)
                        : 1.0f);
      loss = loss.defined() ? tensor::Add(loss, scaled) : scaled;
    }
    losses.loss = loss.item();
    loss.Backward();
    if (has_masked) logits.Backward(logits_leaf.grad());
    if (has_con) cls.Backward(cls_leaf.grad());
  }
  road_reps.Backward(reps.grad());
  for (const auto& p : params) {
    if (!p.has_grad()) p.impl()->ResetGrad();
  }
  nn::ClipGradNorm(params, nn::kGradClip);
  opt->set_lr(lr);
  opt->Step();
  return losses;
}

}  // namespace

PretrainStats Pretrain(StartModel* model,
                       const std::vector<traj::Trajectory>& corpus,
                       const traj::TrafficModel* traffic,
                       const PretrainConfig& config) {
  START_CHECK(model != nullptr);
  START_CHECK(!corpus.empty());
  START_CHECK(config.use_mask_task || config.use_contrastive_task);
  model->SetTraining(true);

  // The whole multi-epoch plan is built up front (shuffles and bucket
  // assignment are epoch-seeded, not consumed from a shared stream).
  data::PlanConfig plan_config;
  plan_config.batch_size = config.batch_size;
  plan_config.epochs = config.epochs;
  plan_config.bucket_width = config.bucket_width;
  plan_config.seed = config.seed;
  const std::vector<int64_t> corpus_lengths = data::Lengths(corpus);
  const data::PretrainPlan plan =
      data::MakeShuffledPlan(corpus_lengths, plan_config);
  const int64_t total_steps = static_cast<int64_t>(plan.steps.size());

  data::PretrainBatchOptions batch_options;
  batch_options.use_mask_task = config.use_mask_task;
  batch_options.use_contrastive_task = config.use_contrastive_task;
  batch_options.mask_span = config.mask_span;
  batch_options.mask_ratio = config.mask_ratio;
  batch_options.aug_a = config.aug_a;
  batch_options.aug_b = config.aug_b;

  nn::AdamW opt(model->Parameters(), config.lr, 0.9, 0.999, 1e-8,
                config.weight_decay);
  const nn::WarmupCosineSchedule schedule(
      config.lr,
      static_cast<int64_t>(config.warmup_fraction *
                           static_cast<double>(total_steps)),
      total_steps, config.lr * 0.05);

  // The header tag identifies the model architecture (any consumer of the
  // artifact checks it); the plan hash additionally pins everything
  // MakeShuffledPlan's output depends on — epochs, batch size, bucketing,
  // seed, and the full length profile of the corpus — plus the marker words
  // of the step's floating-point stream (see kShardedEngineMarker), so a
  // resume under a different step plan or summation order is refused up
  // front. Bucketing is always on; the constant 1 stands where the retired
  // on/off switch was folded, so older checkpoints keep their hash.
  const uint64_t config_hash = HashStartConfig(model->config());
  uint64_t plan_hash = HashCombine(config_hash, 0x9e3779b97f4a7c15ULL);
  plan_hash = HashCombine(plan_hash, static_cast<uint64_t>(config.epochs));
  plan_hash = HashCombine(plan_hash, static_cast<uint64_t>(config.batch_size));
  plan_hash = HashCombine(plan_hash, 1);
  plan_hash = HashCombine(plan_hash, static_cast<uint64_t>(config.bucket_width));
  plan_hash = HashCombine(plan_hash, config.seed);
  plan_hash = HashCombine(plan_hash, corpus_lengths.size());
  for (const int64_t length : corpus_lengths) {
    plan_hash = HashCombine(plan_hash, static_cast<uint64_t>(length));
  }
  plan_hash = HashCombine(plan_hash, kShardedEngineMarker);
  plan_hash = HashCombine(plan_hash, 0);  // the retired micro-shard size
  plan_hash = HashCombine(plan_hash, kBatchesPerStep);

  // Trainer state doubles as the live accumulator set: the loss sums below
  // are exactly what a checkpoint persists, so a resumed run's epoch trace
  // continues from the same partial sums.
  TrainerState state;
  state.loss_sum.assign(static_cast<size_t>(config.epochs), 0.0);
  state.mask_sum.assign(static_cast<size_t>(config.epochs), 0.0);
  state.con_sum.assign(static_cast<size_t>(config.epochs), 0.0);
  state.batch_count.assign(static_cast<size_t>(config.epochs), 0);

  int64_t start_step = 0;
  if (config.resume && !config.checkpoint_path.empty() &&
      CheckpointExists(config.checkpoint_path)) {
    auto resumed = LoadTrainingCheckpoint(config.checkpoint_path, model, &opt,
                                          config_hash, plan_hash);
    if (resumed.ok()) {
      state = std::move(*resumed);
      start_step = state.next_step;
      START_CHECK_LE(start_step, total_steps);
      START_CHECK_EQ(static_cast<int64_t>(state.loss_sum.size()),
                     config.epochs);
      if (state.schedule_fingerprint != 0 &&
          state.schedule_fingerprint != schedule.Fingerprint()) {
        START_LOG(Warning)
            << "resume: LR schedule differs from the checkpointed run "
               "(total_steps/lr changed?) — the LR trajectory will diverge";
      }
      START_LOG(Info) << "resuming pretrain from step " << start_step << "/"
                      << total_steps << " (" << config.checkpoint_path << ")";
    } else {
      START_LOG(Warning) << "cannot resume from " << config.checkpoint_path
                         << ": " << resumed.status().ToString()
                         << " — training from scratch";
    }
  }

  // Dropout streams are reseeded per step from config.seed, so a resumed run
  // replays them from the saved step cursor.
  common::Rng dropout_rng(config.seed);
  model->SetDropoutRng(&dropout_rng);

  const auto save_checkpoint = [&](int64_t next_step) {
    state.next_step = next_step;
    state.adam_step = opt.step_count();
    state.schedule_fingerprint = schedule.Fingerprint();
    state.plan_hash = plan_hash;
    const auto st = SaveTrainingCheckpoint(config.checkpoint_path, *model,
                                           opt, state, config_hash);
    if (!st.ok()) {
      START_LOG(Warning) << "checkpoint save failed: " << st.ToString();
    }
  };

  int64_t steps_done = 0;
  for (int64_t step = start_step; step < total_steps; ++step) {
    const auto s = static_cast<size_t>(step);
    common::Rng batch_rng(data::StepSeed(config.seed, step));
    const data::TrainingBatch tb = data::BuildPretrainBatch(
        corpus, traffic, batch_options, plan.steps[s], &batch_rng);
    const StepLosses step_stats = TrainStep(model, tb, step, config,
                                            &dropout_rng, &opt,
                                            schedule.LrAt(step));
    const auto e = static_cast<size_t>(plan.epoch_of_step[s]);
    state.loss_sum[e] += step_stats.loss;
    state.mask_sum[e] += step_stats.mask_loss;
    state.con_sum[e] += step_stats.con_loss;
    ++state.batch_count[e];

    ++steps_done;
    const bool hit_max = config.max_steps > 0 && steps_done >= config.max_steps;
    if (!config.checkpoint_path.empty() &&
        (hit_max || step + 1 == total_steps ||
         (config.checkpoint_every_steps > 0 &&
          steps_done % config.checkpoint_every_steps == 0))) {
      save_checkpoint(step + 1);
    }
    if (hit_max) break;  // simulated interruption
  }
  model->SetDropoutRng(nullptr);

  PretrainStats stats;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto e = static_cast<size_t>(epoch);
    const double denom =
        static_cast<double>(std::max<int64_t>(1, state.batch_count[e]));
    stats.epoch_loss.push_back(state.loss_sum[e] / denom);
    stats.epoch_mask_loss.push_back(state.mask_sum[e] / denom);
    stats.epoch_contrastive_loss.push_back(state.con_sum[e] / denom);
  }
  return stats;
}

}  // namespace start::core
