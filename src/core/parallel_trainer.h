#ifndef START_CORE_PARALLEL_TRAINER_H_
#define START_CORE_PARALLEL_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pretrain.h"
#include "core/start_model.h"
#include "data/loader.h"
#include "nn/optimizer.h"

namespace start::core {

/// \brief Data-parallel sharded pre-training engine — the one trainer every
/// core::Pretrain call runs through, configured by core::PretrainConfig.
///
/// One optimizer step consumes one loader batch: the step mixes the two
/// self-supervised losses of Sec. III-C over that batch with Eq. 15's
/// `lambda`. The engine decomposes the batch into fixed-size *micro-shards*
/// ("grains" of `shard_grain` trajectories), fans the grains out across
/// `num_shards` model replicas running on a common::ThreadPool, and
/// combines their gradients with the deterministic fixed-order tree
/// all-reduce of nn/allreduce.h before one gradient clip (nn::kGradClip)
/// and one fused AdamW update on the primary model.
///
/// ## Determinism contract (the load-bearing design decision)
///
/// Floating-point summation is order-sensitive, so data parallelism is only
/// bitwise-reproducible if the *summation order* is pinned independently of
/// the parallelism. The engine therefore separates two knobs:
///
///  * The **decomposition** — `shard_grain` — defines which gradient
///    contributions exist and the fixed tree in which they are combined.
///    Changing it changes the floating-point stream (never the math): it is
///    training-semantics and is folded into the resume plan hash.
///  * The **schedule** — `num_shards` — says how many replicas *compute* the
///    fixed grain set. It cannot affect a single bit of the result: every
///    grain's forward/backward is a self-contained serial computation (own
///    activations, own per-grain-seeded dropout stream, gradients captured
///    in the grain's own slot), and the tree all-reduce walks the grain
///    ordinals in the same order for any K. K ∈ {1,2,3,5} produce
///    bitwise-identical parameters, optimizer state, and loss curves
///    (tests/parallel_trainer_test.cc; gated in bench_pretrain), and a
///    checkpoint may be resumed under a different K.
///
/// Batch-coupled reductions cannot be computed per shard without changing
/// their value — NT-Xent scores every trajectory against every other in the
/// batch, and the masked-recovery cross entropy averages over all masked
/// positions. The engine handles them SimCLR-style: shards compute the
/// row-independent encoder forward only, the coordinator gathers the
/// boundary tensors (masked-position logits, CLS rows) and evaluates both
/// losses *centrally* over the whole batch — identically for any K — then
/// scatters the boundary gradients back for the per-grain backward passes.
///
/// Stage 1 (TPE-GAT road representations) is batch-independent: the
/// coordinator runs it once per optimizer step on the primary replica,
/// shares the detached values with every grain through zero-copy proxy
/// leaves, tree-reduces the per-grain proxy gradients, and back-propagates
/// the combined gradient through the retained stage-1 graph exactly once.
///
/// Dropout streams are reseeded per (step, grain ordinal) from
/// PretrainConfig::seed, so no RNG cursor needs to be checkpointed: a
/// resumed run replays the same streams from the saved step cursor.
///
/// Threading contract: Step() is single-consumer; replicas touch disjoint
/// model instances; phases are separated by joins, so no tensor is read and
/// written concurrently. The TSan CI job runs the sharded step.
/// \brief Per-optimizer-step telemetry.
struct ShardStepStats {
  double loss = 0.0;       ///< Combined central loss (Eq. 15 mix).
  double mask_loss = 0.0;  ///< Central masked-recovery CE (0 when absent).
  double con_loss = 0.0;   ///< Central NT-Xent (0 when absent).
  int64_t grains = 0;      ///< Micro-shards the step decomposed into.
};

class ParallelTrainer {
 public:
  /// `model` is the primary replica: it receives the reduced gradients and
  /// the optimizer update, and stays the single source of truth for
  /// checkpointing. The trainer reads the engine knobs (`num_shards`,
  /// `shard_grain`) and the loss knobs (`use_mask_task`,
  /// `use_contrastive_task`, `lambda`, `tau`, `seed`) of `config`; it builds
  /// `num_shards - 1` additional replicas from the model's own construction
  /// inputs and keeps them value-synced after every step. The trainer
  /// installs per-replica dropout generators (Module::SetDropoutRng) for its
  /// lifetime.
  ParallelTrainer(StartModel* model, const PretrainConfig& config);
  ~ParallelTrainer();

  ParallelTrainer(const ParallelTrainer&) = delete;
  ParallelTrainer& operator=(const ParallelTrainer&) = delete;

  /// Runs one optimizer step over `batch`: sharded forward/backward, tree
  /// all-reduce into the primary model, gradient clipping, AdamW update at
  /// learning rate `lr`, and parameter broadcast to the replicas.
  /// `batch.step` keys the dropout streams. `opt` must be built from the
  /// primary model's Parameters().
  ShardStepStats Step(const data::TrainingBatch& batch, nn::AdamW* opt,
                      double lr);

 private:
  struct Grain;

  StartModel* ReplicaModel(int r) const;
  /// Runs fn(r) for every replica, on the pool when num_shards > 1.
  void RunOnReplicas(const std::function<void(int)>& fn);

  const PretrainConfig config_;
  StartModel* primary_;
  common::Rng replica_init_rng_;  ///< Dummy init source for replica builds.
  std::vector<std::unique_ptr<StartModel>> extra_replicas_;
  /// Per-replica dropout generators; stable addresses (sized once).
  std::vector<common::Rng> rngs_;
  /// Per-replica parameter handles in registry order (index 0 = primary).
  std::vector<std::vector<tensor::Tensor>> replica_params_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace start::core

#endif  // START_CORE_PARALLEL_TRAINER_H_
