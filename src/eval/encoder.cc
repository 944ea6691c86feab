#include "eval/encoder.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "data/dataset.h"
#include "data/view.h"

namespace start::eval {

data::Batch MakeModeBatch(const std::vector<const traj::Trajectory*>& batch,
                          EncodeMode mode) {
  START_CHECK(!batch.empty());
  std::vector<data::View> views;
  views.reserve(batch.size());
  for (const auto* t : batch) {
    views.push_back(mode == EncodeMode::kDepartureOnly ? data::MakeEtaView(*t)
                                                       : data::MakeView(*t));
  }
  return data::MakeBatch(views);
}

std::vector<float> EmbedAllWith(
    int64_t dim, const std::vector<traj::Trajectory>& trajs,
    int64_t batch_size,
    const std::function<
        tensor::Tensor(const std::vector<const traj::Trajectory*>&)>&
        encode) {
  START_CHECK_GT(batch_size, 0);
  const int64_t n = static_cast<int64_t>(trajs.size());
  std::vector<float> out(static_cast<size_t>(n * dim));
  // Length-bucketed batch assembly (data/batch.h): corpus order in, so the
  // plan — and therefore every embedding — is deterministic; each batch's
  // rows are scattered back to their original corpus positions below.
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const auto plan = data::BucketBatchPlan(data::Lengths(trajs), order,
                                          batch_size, kEmbedBucketWidth);
  std::vector<const traj::Trajectory*> batch;  // reused across batches
  batch.reserve(static_cast<size_t>(batch_size));
  for (const auto& step : plan) {
    batch.clear();
    for (const int64_t i : step) {
      batch.push_back(&trajs[static_cast<size_t>(i)]);
    }
    // `encode` may hand back a zero-copy view (e.g. the cls-token slice);
    // compact it once here for the flat output buffer.
    const tensor::Tensor reps = encode(batch).Contiguous();
    START_CHECK_EQ(reps.dim(0), static_cast<int64_t>(step.size()));
    START_CHECK_EQ(reps.dim(1), dim);
    for (size_t r = 0; r < step.size(); ++r) {
      std::memcpy(out.data() + step[r] * dim,
                  reps.data() + static_cast<int64_t>(r) * dim,
                  static_cast<size_t>(dim) * sizeof(float));
    }
  }
  return out;
}

std::vector<float> TrajectoryEncoder::EmbedAll(
    const std::vector<traj::Trajectory>& trajs, EncodeMode mode,
    int64_t batch_size) {
  SetTraining(false);
  tensor::NoGradGuard no_grad;
  return EmbedAllWith(dim(), trajs, batch_size,
                      [&](const std::vector<const traj::Trajectory*>& batch) {
                        return EncodeBatch(batch, mode);
                      });
}

}  // namespace start::eval
