#include "data/batch.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace start::data {

Batch MakeBatch(const std::vector<View>& views) {
  START_CHECK(!views.empty());
  Batch batch;
  batch.batch_size = static_cast<int64_t>(views.size());
  for (const auto& v : views) {
    START_CHECK_GT(v.size(), 0);
    batch.max_len = std::max(batch.max_len, v.size());
    batch.embedding_dropout |= v.embedding_dropout;
  }
  const size_t total = static_cast<size_t>(batch.batch_size * batch.max_len);
  batch.roads.assign(total, kPadRoad);
  batch.minute_idx.assign(total, kMaskTimeIndex);
  batch.dow_idx.assign(total, kMaskTimeIndex);
  batch.times.assign(total, 0.0);
  batch.lengths.resize(static_cast<size_t>(batch.batch_size));
  for (int64_t b = 0; b < batch.batch_size; ++b) {
    const View& v = views[static_cast<size_t>(b)];
    batch.lengths[static_cast<size_t>(b)] = v.size();
    const size_t base = static_cast<size_t>(b * batch.max_len);
    std::copy(v.roads.begin(), v.roads.end(), batch.roads.begin() + base);
    std::copy(v.minute_idx.begin(), v.minute_idx.end(),
              batch.minute_idx.begin() + base);
    std::copy(v.dow_idx.begin(), v.dow_idx.end(),
              batch.dow_idx.begin() + base);
    std::copy(v.times.begin(), v.times.end(), batch.times.begin() + base);
  }
  return batch;
}

double PaddingEfficiency(const std::vector<int64_t>& lengths) {
  START_CHECK(!lengths.empty());
  int64_t total = 0, max_len = 0;
  for (const int64_t len : lengths) {
    START_CHECK_GT(len, 0);
    total += len;
    max_len = std::max(max_len, len);
  }
  return static_cast<double>(total) /
         static_cast<double>(static_cast<int64_t>(lengths.size()) * max_len);
}

std::vector<std::vector<int64_t>> BucketBatchPlan(
    const std::vector<int64_t>& lengths, const std::vector<int64_t>& order,
    int64_t batch_size, int64_t bucket_width) {
  START_CHECK_GT(batch_size, 0);
  START_CHECK_GT(bucket_width, 0);
  std::vector<std::vector<int64_t>> plan;
  // std::map keeps bucket ids ordered so the leftover flush below walks
  // ascending length buckets — adjacent buckets pad against each other, not
  // against the global max.
  std::map<int64_t, std::vector<int64_t>> buckets;
  for (const int64_t idx : order) {
    START_CHECK_GE(idx, 0);
    START_CHECK_LT(idx, static_cast<int64_t>(lengths.size()));
    const int64_t len = lengths[static_cast<size_t>(idx)];
    START_CHECK_GT(len, 0);
    auto& bucket = buckets[(len - 1) / bucket_width];
    bucket.push_back(idx);
    if (static_cast<int64_t>(bucket.size()) == batch_size) {
      plan.push_back(std::move(bucket));
      bucket.clear();
    }
  }
  // Flush leftovers: concatenate ascending buckets, re-chunk to batch_size.
  std::vector<int64_t> leftover;
  for (auto& [id, bucket] : buckets) {
    leftover.insert(leftover.end(), bucket.begin(), bucket.end());
  }
  for (size_t begin = 0; begin < leftover.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end =
        std::min(leftover.size(), begin + static_cast<size_t>(batch_size));
    plan.emplace_back(leftover.begin() + static_cast<int64_t>(begin),
                      leftover.begin() + static_cast<int64_t>(end));
  }
  return plan;
}

}  // namespace start::data
