#include "sim/search.h"

#include <algorithm>

#include "common/check.h"
#include "sim/similarity.h"

namespace start::sim {

namespace {

/// Row q of the query-to-database squared-distance matrix, computed in one
/// tight pass (the per-pair std::function dispatch of the generic search path
/// dominated kNN evaluation). Accumulation stays in double so ranking ties
/// resolve exactly as in the scalar path.
void DistanceRow(const float* query, const float* database,
                 int64_t database_size, int64_t dim, double* row) {
  for (int64_t i = 0; i < database_size; ++i) {
    row[i] = EmbeddingDistance(query, database + i * dim, dim);
  }
}

/// Rank of `gt` within a distance row plus hit counters (rank = 1 + items
/// strictly closer, ties resolved in the truth's favour only for larger
/// indices).
int64_t RankFromRow(const double* row, int64_t database_size, int64_t gt) {
  const double gt_dist = row[gt];
  int64_t rank = 1;
  for (int64_t i = 0; i < database_size; ++i) {
    if (i == gt) continue;
    const double d = row[i];
    if (d < gt_dist || (d == gt_dist && i < gt)) ++rank;
  }
  return rank;
}

/// Shared core of both search entry points: `fill_row(q, row)` writes query
/// q's distances to every database item, so the rank/tie rule and the metric
/// averaging live in exactly one place.
template <typename FillRow>
RankMetrics SearchWithRows(int64_t num_queries, int64_t database_size,
                           const std::vector<int64_t>& gt_index,
                           FillRow fill_row) {
  START_CHECK_EQ(static_cast<int64_t>(gt_index.size()), num_queries);
  START_CHECK_GT(num_queries, 0);
  RankMetrics m;
  std::vector<double> row(static_cast<size_t>(database_size));
  for (int64_t q = 0; q < num_queries; ++q) {
    const int64_t gt = gt_index[static_cast<size_t>(q)];
    START_CHECK(gt >= 0 && gt < database_size);
    fill_row(q, row.data());
    const int64_t rank = RankFromRow(row.data(), database_size, gt);
    m.mean_rank += static_cast<double>(rank);
    if (rank <= 1) m.hr_at_1 += 1.0;
    if (rank <= 5) m.hr_at_5 += 1.0;
  }
  const double n = static_cast<double>(num_queries);
  m.mean_rank /= n;
  m.hr_at_1 /= n;
  m.hr_at_5 /= n;
  return m;
}

}  // namespace

RankMetrics MostSimilarSearch(int64_t num_queries, int64_t database_size,
                              const QueryDistanceFn& distance,
                              const std::vector<int64_t>& gt_index) {
  return SearchWithRows(num_queries, database_size, gt_index,
                        [&](int64_t q, double* row) {
                          for (int64_t i = 0; i < database_size; ++i) {
                            row[i] = distance(q, i);
                          }
                        });
}

RankMetrics MostSimilarSearchEmbeddings(const std::vector<float>& queries,
                                        int64_t num_queries,
                                        const std::vector<float>& database,
                                        int64_t database_size, int64_t dim,
                                        const std::vector<int64_t>& gt_index) {
  START_CHECK_EQ(static_cast<int64_t>(queries.size()), num_queries * dim);
  START_CHECK_EQ(static_cast<int64_t>(database.size()), database_size * dim);
  return SearchWithRows(num_queries, database_size, gt_index,
                        [&](int64_t q, double* row) {
                          DistanceRow(queries.data() + q * dim,
                                      database.data(), database_size, dim,
                                      row);
                        });
}

std::vector<int64_t> TopK(int64_t database_size, int64_t k,
                          const std::function<double(int64_t)>& distance) {
  START_CHECK_GT(k, 0);
  const size_t kk = static_cast<size_t>(std::min(k, database_size));
  // Bounded max-heap selection: the root is the worst candidate kept, so a
  // new item enters only when it beats the root. O(N log k) time and O(k)
  // memory — the seed materialised and sorted all N distances. Candidates
  // compare as (distance, index) pairs, so exact distance ties resolve
  // toward the smaller database index, as before.
  std::vector<std::pair<double, int64_t>> heap;
  heap.reserve(kk);
  for (int64_t i = 0; i < database_size; ++i) {
    const std::pair<double, int64_t> candidate(distance(i), i);
    if (heap.size() < kk) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end());
    } else if (candidate < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());  // ascending distance
  std::vector<int64_t> out;
  out.reserve(kk);
  for (const auto& [d, i] : heap) out.push_back(i);
  return out;
}

}  // namespace start::sim
