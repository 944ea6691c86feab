#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace start::eval {

RegressionMetrics ComputeRegressionMetrics(const std::vector<double>& truth,
                                           const std::vector<double>& pred) {
  START_CHECK_EQ(truth.size(), pred.size());
  START_CHECK(!truth.empty());
  RegressionMetrics m;
  double se = 0.0;
  int64_t mape_n = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double err = pred[i] - truth[i];
    m.mae += std::fabs(err);
    se += err * err;
    if (std::fabs(truth[i]) > 1e-9) {
      m.mape += std::fabs(err / truth[i]);
      ++mape_n;
    }
  }
  const double n = static_cast<double>(truth.size());
  m.mae /= n;
  m.rmse = std::sqrt(se / n);
  m.mape = mape_n > 0 ? 100.0 * m.mape / static_cast<double>(mape_n) : 0.0;
  return m;
}

double Accuracy(const std::vector<int64_t>& labels,
                const std::vector<int64_t>& preds) {
  START_CHECK_EQ(labels.size(), preds.size());
  START_CHECK(!labels.empty());
  int64_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == preds[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

double BinaryF1(const std::vector<int64_t>& labels,
                const std::vector<int64_t>& preds, int64_t positive) {
  START_CHECK_EQ(labels.size(), preds.size());
  int64_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const bool t = labels[i] == positive;
    const bool p = preds[i] == positive;
    if (t && p) ++tp;
    if (!t && p) ++fp;
    if (t && !p) ++fn;
  }
  if (tp == 0) return 0.0;
  const double precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall = static_cast<double>(tp) / static_cast<double>(tp + fn);
  return 2.0 * precision * recall / (precision + recall);
}

double BinaryAuc(const std::vector<int64_t>& labels,
                 const std::vector<double>& scores) {
  START_CHECK_EQ(labels.size(), scores.size());
  // Mann-Whitney U statistic via rank sums (ties averaged).
  std::vector<size_t> order(labels.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  std::vector<double> rank(labels.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j - 1) + 1.0;
    for (size_t k = i; k < j; ++k) rank[order[k]] = avg_rank;
    i = j;
  }
  double pos_rank_sum = 0.0;
  int64_t npos = 0, nneg = 0;
  for (size_t k = 0; k < labels.size(); ++k) {
    if (labels[k] == 1) {
      pos_rank_sum += rank[k];
      ++npos;
    } else {
      ++nneg;
    }
  }
  if (npos == 0 || nneg == 0) return 0.5;
  const double u = pos_rank_sum -
                   static_cast<double>(npos) * (static_cast<double>(npos) + 1.0) / 2.0;
  return u / (static_cast<double>(npos) * static_cast<double>(nneg));
}

double MicroF1(const std::vector<int64_t>& labels,
               const std::vector<int64_t>& preds) {
  // Single-label micro-F1 reduces to accuracy.
  return Accuracy(labels, preds);
}

double MacroF1(const std::vector<int64_t>& labels,
               const std::vector<int64_t>& preds, int64_t num_classes) {
  START_CHECK_EQ(labels.size(), preds.size());
  START_CHECK_GT(num_classes, 0);
  double total = 0.0;
  for (int64_t c = 0; c < num_classes; ++c) {
    int64_t tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      const bool t = labels[i] == c;
      const bool p = preds[i] == c;
      if (t && p) ++tp;
      if (!t && p) ++fp;
      if (t && !p) ++fn;
    }
    if (tp > 0) {
      const double precision =
          static_cast<double>(tp) / static_cast<double>(tp + fp);
      const double recall =
          static_cast<double>(tp) / static_cast<double>(tp + fn);
      total += 2.0 * precision * recall / (precision + recall);
    }
  }
  return total / static_cast<double>(num_classes);
}

double RecallAtK(const std::vector<int64_t>& labels,
                 const std::vector<double>& scores, int64_t num_classes,
                 int64_t k) {
  START_CHECK_GT(num_classes, 0);
  START_CHECK_EQ(scores.size(), labels.size() * static_cast<size_t>(num_classes));
  START_CHECK_GT(k, 0);
  int64_t hits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    START_CHECK_MSG(labels[i] >= 0 && labels[i] < num_classes,
                    "label " << labels[i] << " outside [0, " << num_classes
                             << ")");
    const double* row = scores.data() + i * static_cast<size_t>(num_classes);
    const double label_score = row[labels[i]];
    int64_t better = 0;
    for (int64_t c = 0; c < num_classes; ++c) {
      if (row[c] > label_score) ++better;
    }
    if (better < k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace start::eval
