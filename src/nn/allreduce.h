#ifndef START_NN_ALLREDUCE_H_
#define START_NN_ALLREDUCE_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace start::nn {

/// \file
/// Deterministic fixed-order tree all-reduce for data-parallel training.
///
/// Floating-point addition is not associative, so the value of a combined
/// gradient depends on the order its contributions are summed. The trainer's
/// bitwise-reproducibility contract (K shards ≡ 1 shard, see
/// core/parallel_trainer.h) therefore requires a combination order that is a
/// pure function of the *logical* shard decomposition — never of how many
/// threads happened to run it or which one finished first.
///
/// These reductions implement that order: a pairwise stride-doubling binary
/// tree over the slot index,
///
///     pass 1:  s0+=s1   s2+=s3   s4+=s5 ...
///     pass 2:  s0+=s2   s4+=s6 ...
///     pass 3:  s0+=s4 ...
///
/// which is fully determined by the slot count. Callers assign each logical
/// shard a fixed slot (its ordinal); any thread may *compute* a slot's
/// contents, but the combine walks the same tree every run.

/// One shard's gradient contribution for a fixed parameter list, in
/// `Optimizer::params()` order. A null entry means the shard never touched
/// that parameter (an exact zero — cheaper to skip than to materialise).
using GradShard = std::vector<std::shared_ptr<std::vector<float>>>;

/// Reduces `slots` in place with the fixed pairwise tree and returns the
/// combined buffer (slot 0 after the final pass), or nullptr when every slot
/// is null. Null slots act as exact zeros: combining a null left slot with a
/// live right slot adopts the right buffer unchanged. Buffers are consumed.
std::shared_ptr<std::vector<float>> TreeReduce(
    std::vector<std::shared_ptr<std::vector<float>>> slots);

/// Tree-reduces `shards` per parameter and installs each combined buffer as
/// the parameter's gradient, replacing whatever it held. The buffer is
/// adopted, not copied or added, so a single shard costs no pass over the
/// parameters. A parameter no shard touched gets a zero-filled gradient, so
/// every parameter leaves with an allocated gradient, as after
/// Optimizer::ZeroGrad. Per-parameter reductions are independent, so they
/// are fanned out over `pool` when one is given — scheduling cannot change
/// any sum's association order, only who computes it. Shard buffers are
/// consumed.
void TreeReduceInto(std::vector<GradShard> shards,
                    const std::vector<tensor::Tensor>& params,
                    common::ThreadPool* pool = nullptr);

}  // namespace start::nn

#endif  // START_NN_ALLREDUCE_H_
