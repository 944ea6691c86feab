#ifndef START_DATA_BATCH_H_
#define START_DATA_BATCH_H_

#include <vector>

#include "data/view.h"

namespace start::data {

/// \brief Padded batch of views, ready for a sequence encoder.
///
/// All per-token arrays are row-major [batch, max_len]. Padding positions
/// carry kPadRoad / kMaskTimeIndex / 0.0 and are excluded via `lengths`
/// (the encoder turns lengths into an additive attention mask).
struct Batch {
  int64_t batch_size = 0;
  int64_t max_len = 0;
  std::vector<int64_t> roads;       ///< kMaskRoad/kPadRoad sentinels allowed.
  std::vector<int64_t> minute_idx;
  std::vector<int64_t> dow_idx;
  std::vector<double> times;
  std::vector<int64_t> lengths;
  bool embedding_dropout = false;   ///< Any view requested the dropout view.

  int64_t At(int64_t b, int64_t pos) const { return roads[b * max_len + pos]; }
};

/// Pads a list of views into a batch. All views must be non-empty.
Batch MakeBatch(const std::vector<View>& views);

/// \brief Pads `views` into `*batch`, reusing its existing buffers.
///
/// Equivalent to `*batch = MakeBatch(views)` but without freeing and
/// reallocating the five per-token arrays: `assign`/`resize` reuse capacity,
/// so a batch rebuilt every step settles at the largest [batch, max_len]
/// extent it has seen and stops allocating. `BuildPretrainBatch` calls it
/// twice per training step.
void MakeBatchInto(const std::vector<View>& views, Batch* batch);

/// Fraction of non-padding tokens in a padded batch with these lengths:
/// sum(lengths) / (n * max(lengths)). 1.0 means zero padding waste.
double PaddingEfficiency(const std::vector<int64_t>& lengths);

/// \brief Length-bucketed batch assembly.
///
/// Walks `order` (a permutation of trajectory indices — typically the
/// epoch shuffle), routes each index into the bucket
/// `(lengths[i] - 1) / bucket_width`, and emits a batch whenever a bucket
/// reaches `batch_size`. Leftovers are flushed at the end, merged across
/// buckets in ascending length-bucket order so at most one partial batch
/// remains. Within a batch, indices keep their relative `order` position, so
/// the result is a deterministic function of (lengths, order, batch_size,
/// bucket_width).
///
/// Batches are emitted in bucket-completion order, which correlates with
/// length; shuffle the returned plan (e.g. `Rng::Shuffle`) before training on
/// it so no epoch becomes a length curriculum.
std::vector<std::vector<int64_t>> BucketBatchPlan(
    const std::vector<int64_t>& lengths, const std::vector<int64_t>& order,
    int64_t batch_size, int64_t bucket_width);

}  // namespace start::data

#endif  // START_DATA_BATCH_H_
