#include "core/parallel_trainer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "data/batch.h"
#include "nn/allreduce.h"
#include "nn/losses.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace start::core {

using tensor::Tensor;

namespace {

/// Salts separating the engine's dropout streams from each other and from
/// the loader's augmentation stream.
constexpr uint64_t kShardDropoutSalt = 0x5aadd0f05eedULL;
constexpr uint64_t kStage1DropoutSalt = 0x57a6e15eed01ULL;

/// Per-(optimizer step, grain ordinal) dropout seed: a pure function of the
/// decomposition, so every shard count draws the same streams.
uint64_t GrainSeed(uint64_t base, int64_t step, int64_t ordinal) {
  return data::BatchLoader::StepSeed(
      data::BatchLoader::StepSeed(base ^ kShardDropoutSalt, step), ordinal);
}

/// A leaf tensor aliasing `t`'s value storage (zero-copy) with its own
/// gradient buffer and no graph edges. Each grain encodes through its own
/// proxy of the shared stage-1 road representations, so the stage-2 backward
/// deposits the grain's road-reps gradient into a private slot instead of
/// racing (and order-scrambling) a shared one.
Tensor SharedValueLeaf(const Tensor& t) {
  const auto& src = t.impl();
  auto impl = std::make_shared<tensor::TensorImpl>();
  impl->shape = src->shape;
  impl->storage = src->storage;
  impl->strides = src->strides;
  impl->offset = src->offset;
  impl->contiguous = src->contiguous;
  impl->requires_grad = true;
  impl->op = "shard_proxy";
  return Tensor(std::move(impl));
}

/// Copies a (possibly strided) 2-D tensor's values into dense row-major
/// `dst`. Reads through strides, so zero-copy CLS views need no Contiguous()
/// materialisation (which would grow the autograd graph).
void CopyRowsOut(const Tensor& t, float* dst) {
  START_CHECK_EQ(t.ndim(), 2);
  const int64_t rows = t.dim(0), cols = t.dim(1);
  const int64_t s0 = t.strides()[0], s1 = t.strides()[1];
  const float* base = t.impl()->base_ptr();
  if (s1 == 1) {
    for (int64_t i = 0; i < rows; ++i) {
      std::memcpy(dst + i * cols, base + i * s0,
                  static_cast<size_t>(cols) * sizeof(float));
    }
    return;
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      dst[i * cols + j] = base[i * s0 + j * s1];
    }
  }
}

/// Drops every parameter gradient buffer of `params`. Grain backward passes
/// accumulate into leaf gradients, so each grain must start from
/// unallocated (= exactly zero) buffers for its slot to hold only its own
/// contribution.
void DropGrads(const std::vector<Tensor>& params) {
  for (const auto& p : params) p.impl()->grad.reset();
}

}  // namespace

/// One micro-shard: a fixed [row_begin, row_end) trajectory range of the
/// step's batch, with everything the two phases exchange.
struct ParallelTrainer::Grain {
  int64_t ordinal = 0;  ///< Fixed slot in the all-reduce tree.
  int64_t row_begin = 0, row_end = 0;  ///< Trajectory rows of the batch.

  // Masked-recovery slice (empty when the range holds no masked positions).
  std::vector<int64_t> local_positions;  ///< Rebased b*max_len+pos.
  int64_t logit_row = 0;   ///< First row in the central logits gather.
  int64_t logit_rows = 0;  ///< == local_positions.size().
  int64_t cls_row = 0;     ///< First row in the central CLS gather.
  int64_t cls_rows = 0;    ///< 2 * (row_end - row_begin) when contrastive.

  // Phase A outputs (retained graphs), consumed by phase B. Their values
  // are also written into the grain's rows of the central boundary leaves.
  data::Batch masked_slice, contrastive_slice;
  Tensor proxy;   ///< This grain's road-reps leaf.
  Tensor logits;  ///< [logit_rows, V] or undefined.
  Tensor cls;     ///< [cls_rows, d] or undefined.

  // Phase B outputs, consumed by the tree reduce.
  nn::GradShard grads;
  std::shared_ptr<std::vector<float>> proxy_grad;
};

ParallelTrainer::ParallelTrainer(StartModel* model,
                                 const PretrainConfig& config)
    : config_(config), primary_(model), replica_init_rng_(0xdeadbeef) {
  START_CHECK(model != nullptr);
  START_CHECK_GE(config_.num_shards, 1);
  START_CHECK_GE(config_.shard_grain, 0);
  rngs_.resize(static_cast<size_t>(config_.num_shards));
  replica_params_.push_back(primary_->Parameters());
  for (int r = 1; r < config_.num_shards; ++r) {
    auto replica = std::make_unique<StartModel>(
        primary_->config(), primary_->net(), primary_->transfer(),
        &replica_init_rng_);
    replica->CopyParametersFrom(*primary_);
    replica_params_.push_back(replica->Parameters());
    extra_replicas_.push_back(std::move(replica));
  }
  for (int r = 0; r < config_.num_shards; ++r) {
    StartModel* m = ReplicaModel(r);
    m->SetTraining(true);
    m->SetDropoutRng(&rngs_[static_cast<size_t>(r)]);
  }
  if (config_.num_shards > 1) {
    pool_ = std::make_unique<common::ThreadPool>(config_.num_shards);
  }
}

ParallelTrainer::~ParallelTrainer() {
  // The replicas (and their rng pointers) die with the trainer; the primary
  // outlives it and must not keep a pointer into our rngs_.
  primary_->SetDropoutRng(nullptr);
}

StartModel* ParallelTrainer::ReplicaModel(int r) const {
  return r == 0 ? primary_ : extra_replicas_[static_cast<size_t>(r - 1)].get();
}

void ParallelTrainer::RunOnReplicas(const std::function<void(int)>& fn) {
  const int k = config_.num_shards;
  if (pool_ == nullptr) {
    for (int r = 0; r < k; ++r) fn(r);
    return;
  }
  common::Latch latch(k);
  for (int r = 0; r < k; ++r) {
    pool_->Submit([&, r] {
      fn(r);
      latch.CountDown();
    });
  }
  latch.Wait();
}

ShardStepStats ParallelTrainer::Step(const data::TrainingBatch& batch,
                                     nn::AdamW* opt, double lr) {
  START_CHECK(opt != nullptr);
  const int64_t step = batch.step;
  const int64_t d = primary_->config().d;
  const int64_t v = primary_->num_roads();

  // Stale gradients from a previous step (or from code that ran before the
  // trainer) would be accumulated into by the grain backwards; drop them so
  // every slot holds exactly its grain's contribution.
  for (const auto& params : replica_params_) DropGrads(params);

  // ---- Grain plan (coordinator, cheap scans only) --------------------------
  // The decomposition is a pure function of (batch, shard_grain): grain g
  // covers a fixed trajectory range of the batch and owns slot g of the
  // reduce tree, regardless of num_shards.
  std::vector<Grain> grains;
  int64_t logit_rows_total = 0, cls_rows_total = 0;
  std::vector<int64_t> targets_cat;
  const bool has_masked = config_.use_mask_task && batch.has_masked &&
                          !batch.mask_positions.empty();
  const bool has_con = config_.use_contrastive_task && batch.has_contrastive;
  const int64_t num_traj = has_masked ? batch.masked.batch_size
                                      : batch.contrastive.batch_size / 2;
  START_CHECK_GT(num_traj, 0);
  const int64_t grain = config_.shard_grain > 0
                            ? std::min(config_.shard_grain, num_traj)
                            : num_traj;
  size_t pos_cursor = 0;  // mask_positions are sorted by (b, pos)
  for (int64_t r0 = 0; r0 < num_traj; r0 += grain) {
    const int64_t r1 = std::min(num_traj, r0 + grain);
    Grain g;
    g.ordinal = static_cast<int64_t>(grains.size());
    g.row_begin = r0;
    g.row_end = r1;
    if (has_masked) {
      const int64_t max_len = batch.masked.max_len;
      const int64_t limit = r1 * max_len;
      g.logit_row = logit_rows_total;
      while (pos_cursor < batch.mask_positions.size() &&
             batch.mask_positions[pos_cursor] < limit) {
        g.local_positions.push_back(batch.mask_positions[pos_cursor] -
                                    r0 * max_len);
        targets_cat.push_back(batch.mask_targets[pos_cursor]);
        ++pos_cursor;
      }
      g.logit_rows = static_cast<int64_t>(g.local_positions.size());
      logit_rows_total += g.logit_rows;
    }
    if (has_con) {
      g.cls_row = cls_rows_total;
      g.cls_rows = 2 * (r1 - r0);
      cls_rows_total += g.cls_rows;
    }
    grains.push_back(std::move(g));
  }
  if (has_masked) START_CHECK_EQ(pos_cursor, batch.mask_positions.size());
  const int64_t num_grains = static_cast<int64_t>(grains.size());
  START_CHECK_MSG(logit_rows_total > 0 || cls_rows_total > 0,
                  "optimizer step with no loss contributions");

  const int k = config_.num_shards;
  const auto grains_of = [num_grains, k](int r, int64_t* begin,
                                         int64_t* end) {
    *begin = r * num_grains / k;
    *end = (r + 1) * num_grains / k;
  };

  // ---- Stage 1 once per optimizer step (primary, graph retained) -----------
  rngs_[0].Seed(data::BatchLoader::StepSeed(
      config_.seed ^ kStage1DropoutSalt, step));
  Tensor road_reps = primary_->ComputeRoadReps();

  // Central boundary leaves. Both objectives couple samples across the whole
  // batch (NT-Xent's in-batch negatives; the CE mean over every masked
  // position), so they are evaluated once, serially, over these gathered
  // rows — the same computation for every shard count. Each grain writes its
  // own rows during phase A.
  Tensor logits_cat, cls_cat;
  if (logit_rows_total > 0) {
    logits_cat = Tensor::Zeros(tensor::Shape({logit_rows_total, v}),
                               /*requires_grad=*/true);
  }
  if (cls_rows_total > 0) {
    cls_cat = Tensor::Zeros(tensor::Shape({cls_rows_total, d}),
                            /*requires_grad=*/true);
  }

  // ---- Phase A: per-grain forward to the loss boundary ---------------------
  RunOnReplicas([&](int r) {
    int64_t begin, end;
    grains_of(r, &begin, &end);
    StartModel* model = ReplicaModel(r);
    common::Rng& rng = rngs_[static_cast<size_t>(r)];
    for (int64_t gi = begin; gi < end; ++gi) {
      Grain& g = grains[static_cast<size_t>(gi)];
      rng.Seed(GrainSeed(config_.seed, step, g.ordinal));
      g.proxy = SharedValueLeaf(road_reps);
      if (g.logit_rows > 0) {
        data::SliceBatchRows(batch.masked, g.row_begin, g.row_end,
                             &g.masked_slice);
        const EncoderOutput out = model->Encode(g.masked_slice, g.proxy);
        g.logits = model->MaskedLogits(out, g.local_positions,
                                       g.masked_slice.max_len);
        CopyRowsOut(g.logits, logits_cat.data() + g.logit_row * v);
      }
      if (g.cls_rows > 0) {
        data::SliceBatchRows(batch.contrastive, 2 * g.row_begin,
                             2 * g.row_end, &g.contrastive_slice);
        g.cls = model->Encode(g.contrastive_slice, g.proxy).cls;
        CopyRowsOut(g.cls, cls_cat.data() + g.cls_row * d);
      }
    }
  });

  // ---- Central losses over the gathered boundary ---------------------------
  ShardStepStats stats;
  stats.grains = num_grains;
  Tensor loss;
  if (logits_cat.defined()) {
    const Tensor mask_loss =
        tensor::CrossEntropyWithLogits(logits_cat, targets_cat);
    stats.mask_loss = mask_loss.item();
    loss = tensor::Scale(mask_loss,
                         config_.use_contrastive_task
                             ? static_cast<float>(config_.lambda)
                             : 1.0f);
  }
  if (cls_cat.defined()) {
    const Tensor con_loss = nn::NtXentLoss(cls_cat, config_.tau);
    stats.con_loss = con_loss.item();
    const Tensor scaled = tensor::Scale(
        con_loss, config_.use_mask_task
                      ? static_cast<float>(1.0 - config_.lambda)
                      : 1.0f);
    loss = loss.defined() ? tensor::Add(loss, scaled) : scaled;
  }
  START_CHECK(loss.defined());
  stats.loss = loss.item();
  loss.Backward();
  const float* logits_grad =
      logits_cat.defined() ? logits_cat.grad() : nullptr;
  const float* cls_grad = cls_cat.defined() ? cls_cat.grad() : nullptr;

  // ---- Phase B: per-grain backward seeded from the central grad rows -------
  RunOnReplicas([&](int r) {
    int64_t begin, end;
    grains_of(r, &begin, &end);
    const auto& params = replica_params_[static_cast<size_t>(r)];
    for (int64_t gi = begin; gi < end; ++gi) {
      Grain& g = grains[static_cast<size_t>(gi)];
      // Fixed within-grain order: masked first, then contrastive — leaf
      // gradients accumulate across the two Backward calls in this order on
      // every shard count.
      if (g.logit_rows > 0) g.logits.Backward(logits_grad + g.logit_row * v);
      if (g.cls_rows > 0) g.cls.Backward(cls_grad + g.cls_row * d);
      // Steal the accumulated leaf gradients into the grain's reduce slot
      // (zero-copy) and leave the replica's buffers unallocated for the next
      // grain. Untouched parameters (the whole stage-1 tower) stay null —
      // exact zeros the tree reduce skips.
      g.grads.reserve(params.size());
      for (const auto& p : params) {
        auto& grad = p.impl()->grad;
        g.grads.push_back(p.has_grad() ? std::move(grad) : nullptr);
        grad.reset();
      }
      g.proxy_grad = std::move(g.proxy.impl()->grad);
      // Drop the grain's retained graphs (activations) eagerly.
      g.proxy = Tensor();
      g.logits = Tensor();
      g.cls = Tensor();
    }
  });

  // ---- Fixed-order tree all-reduce + fused AdamW (primary) -----------------
  // The reduce installs each combined buffer as the primary's gradient, so a
  // one-grain step hands its buffers straight to the optimizer.
  {
    std::vector<nn::GradShard> shards;
    shards.reserve(static_cast<size_t>(num_grains));
    std::vector<std::shared_ptr<std::vector<float>>> proxy_slots;
    proxy_slots.reserve(static_cast<size_t>(num_grains));
    for (Grain& g : grains) {
      shards.push_back(std::move(g.grads));
      proxy_slots.push_back(std::move(g.proxy_grad));
    }
    nn::TreeReduceInto(std::move(shards), opt->params(), pool_.get());
    const auto reps_grad = nn::TreeReduce(std::move(proxy_slots));
    if (reps_grad != nullptr) {
      // Stage-1 backward, once, serially, from the combined road-reps
      // gradient — GAT parameter grads accumulate onto the zero gradients
      // the reduce left on every parameter no grain touched.
      road_reps.Backward(reps_grad->data());
    }
  }
  nn::ClipGradNorm(replica_params_[0], nn::kGradClip);
  opt->set_lr(lr);
  opt->Step();

  // ---- Broadcast: replicas re-sync to the updated primary ------------------
  if (k > 1) {
    RunOnReplicas([&](int r) {
      if (r == 0) return;
      const auto& primary_params = replica_params_[0];
      auto& params = replica_params_[static_cast<size_t>(r)];
      for (size_t i = 0; i < params.size(); ++i) {
        std::memcpy(params[i].data(), primary_params[i].data(),
                    static_cast<size_t>(params[i].numel()) * sizeof(float));
      }
    });
  }
  return stats;
}

}  // namespace start::core
