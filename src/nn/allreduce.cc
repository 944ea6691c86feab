#include "nn/allreduce.h"

#include <utility>

#include "common/check.h"

namespace start::nn {

namespace {

/// slots[i] += slots[j], treating null as exact zero (adopt j's buffer).
void CombinePair(std::vector<std::shared_ptr<std::vector<float>>>* slots,
                 size_t i, size_t j) {
  auto& left = (*slots)[i];
  auto& right = (*slots)[j];
  if (right == nullptr) return;
  if (left == nullptr) {
    left = std::move(right);
    return;
  }
  START_CHECK_EQ(left->size(), right->size());
  float* a = left->data();
  const float* b = right->data();
  const size_t n = left->size();
  for (size_t e = 0; e < n; ++e) a[e] += b[e];
  right.reset();
}

}  // namespace

std::shared_ptr<std::vector<float>> TreeReduce(
    std::vector<std::shared_ptr<std::vector<float>>> slots) {
  const size_t n = slots.size();
  for (size_t stride = 1; stride < n; stride *= 2) {
    for (size_t i = 0; i + stride < n; i += 2 * stride) {
      CombinePair(&slots, i, i + stride);
    }
  }
  return n == 0 ? nullptr : std::move(slots[0]);
}

void TreeReduceInto(std::vector<GradShard> shards,
                    const std::vector<tensor::Tensor>& params,
                    common::ThreadPool* pool) {
  const size_t num_params = params.size();
  for (const auto& shard : shards) {
    START_CHECK_EQ(shard.size(), num_params);
  }
  const auto reduce_param = [&shards, &params](size_t p) {
    std::vector<std::shared_ptr<std::vector<float>>> slots;
    slots.reserve(shards.size());
    for (auto& shard : shards) slots.push_back(std::move(shard[p]));
    auto combined = TreeReduce(std::move(slots));
    const auto& param = params[p].impl();
    if (combined == nullptr) {  // no shard touched this parameter
      param->ResetGrad();
      return;
    }
    START_CHECK_EQ(static_cast<int64_t>(combined->size()), param->numel());
    param->grad = std::move(combined);
  };

  if (pool == nullptr || num_params < 2) {
    for (size_t p = 0; p < num_params; ++p) reduce_param(p);
    return;
  }
  // One task per parameter; each parameter's tree is self-contained, so the
  // fan-out affects wall clock only.
  common::Latch latch(static_cast<int>(num_params));
  for (size_t p = 0; p < num_params; ++p) {
    pool->Submit([&, p] {
      reduce_param(p);
      latch.CountDown();
    });
  }
  latch.Wait();
}

}  // namespace start::nn
