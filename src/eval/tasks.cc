#include "eval/tasks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace start::eval {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Assembles a [rows.size(), dim] batch from pre-embedded rows ([n, dim]
/// row-major). Frozen-encoder (linear-probe) training embeds the split once
/// and gathers per epoch: EmbedAll rows do not depend on batch composition,
/// so the gathered rows are bitwise what encoding the shuffled batch gives.
Tensor GatherRows(const std::vector<float>& embedded, int64_t dim,
                  const std::vector<int64_t>& rows) {
  const int64_t b = static_cast<int64_t>(rows.size());
  std::vector<float> out(static_cast<size_t>(b * dim));
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(out.data() + i * dim,
                embedded.data() + rows[static_cast<size_t>(i)] * dim,
                static_cast<size_t>(dim) * sizeof(float));
  }
  return Tensor::FromVector(Shape({b, dim}), std::move(out));
}

/// Warm-starts the encoder from the configured checkpoint before any
/// fine-tuning step runs. A missing/corrupt artifact is a programming error
/// at this layer (callers gate on CheckpointExists when it is optional).
void MaybeWarmStart(TrajectoryEncoder* encoder, const TaskConfig& config) {
  if (config.encoder_checkpoint.empty()) return;
  const auto st =
      encoder->WarmStart(config.encoder_checkpoint, /*allow_missing=*/false,
                         config.checkpoint_skip_mismatched);
  START_CHECK_MSG(st.ok(), "encoder warm-start failed: " << st.ToString());
}

/// Labels of a split, each checked to lie in [0, num_classes).
std::vector<int64_t> Labels(const std::vector<traj::Trajectory>& trajs,
                            const LabelFn& label_fn, int64_t num_classes) {
  std::vector<int64_t> labels;
  labels.reserve(trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    const int64_t y = label_fn(trajs[i]);
    START_CHECK_MSG(y >= 0 && y < num_classes,
                    "label " << y << " of trajectory " << i << " outside [0, "
                             << num_classes << ")");
    labels.push_back(y);
  }
  return labels;
}

/// What distinguishes one downstream task's head from another's.
struct HeadTask {
  EncodeMode mode;
  int64_t out_dim;
  /// Loss of one train batch: head outputs [B, out_dim] and the batch's
  /// indices into the train split.
  std::function<Tensor(const Tensor&, const std::vector<int64_t>&)> loss;
};

/// The head loop every task shares: fits a linear head on `train` (with the
/// encoder too when config.finetune_encoder) through nn::TrainEpochs, then
/// returns the head's outputs on `test` as [test.size(), out_dim], in corpus
/// order.
Tensor FitHead(TrajectoryEncoder* encoder,
               const std::vector<traj::Trajectory>& train,
               const std::vector<traj::Trajectory>& test, const HeadTask& task,
               const TaskConfig& config) {
  START_CHECK(encoder != nullptr);
  START_CHECK(!train.empty());
  START_CHECK(!test.empty());
  MaybeWarmStart(encoder, config);
  common::Rng rng(config.seed);
  common::Rng head_rng = rng.Fork();
  // Dropout draws from a run-private stream, so the fine-tune trajectory is
  // a pure function of (encoder state, data, config.seed).
  common::Rng dropout_rng = rng.Fork();
  encoder->SetDropoutRng(&dropout_rng);
  const int64_t dim = encoder->dim();
  nn::Linear head(dim, task.out_dim, &head_rng);

  std::vector<Tensor> params = head.Parameters();
  if (config.finetune_encoder) {
    for (auto& p : encoder->TrainableParameters()) params.push_back(p);
  }
  nn::AdamW opt(std::move(params), config.lr);
  // A frozen encoder (linear probe) is driven through the inference
  // contract: the train split is embedded ONCE with EmbedAll and every
  // epoch gathers those rows, so no encoder dropout and no autograd graph
  // below the head.
  encoder->SetTraining(config.finetune_encoder);
  head.SetTraining(true);
  std::vector<float> frozen_rows;  // [n, dim] when the encoder is frozen
  if (!config.finetune_encoder) {
    frozen_rows = encoder->EmbedAll(train, task.mode, config.batch_size);
  }

  nn::TrainEpochs(
      static_cast<int64_t>(train.size()), config.epochs, config.batch_size,
      &rng, [&](const std::vector<int64_t>& rows) {
        Tensor reps;
        if (config.finetune_encoder) {
          std::vector<const traj::Trajectory*> batch;
          for (const int64_t i : rows) {
            batch.push_back(&train[static_cast<size_t>(i)]);
          }
          reps = encoder->EncodeBatch(batch, task.mode);
        } else {
          reps = GatherRows(frozen_rows, dim, rows);
        }
        return nn::TrainStep(&opt, task.loss(head.Forward(reps), rows));
      });

  // Test split: embedded once through EmbedAll; the head reads the rows in
  // batch_size chunks in corpus order, under a NoGradGuard.
  head.SetTraining(false);
  const std::vector<float> test_rows =
      encoder->EmbedAll(test, task.mode, config.batch_size);
  tensor::NoGradGuard no_grad;
  const int64_t tn = static_cast<int64_t>(test.size());
  std::vector<float> out(static_cast<size_t>(tn * task.out_dim));
  for (int64_t begin = 0; begin < tn; begin += config.batch_size) {
    const int64_t end = std::min(tn, begin + config.batch_size);
    const Tensor reps = Tensor::FromVector(
        Shape({end - begin, dim}),
        std::vector<float>(test_rows.begin() + begin * dim,
                           test_rows.begin() + end * dim));
    const Tensor pred = head.Forward(reps).Contiguous();
    std::memcpy(out.data() + begin * task.out_dim, pred.data(),
                static_cast<size_t>(pred.numel()) * sizeof(float));
  }
  encoder->SetDropoutRng(nullptr);  // the run-private stream goes away now
  return Tensor::FromVector(Shape({tn, task.out_dim}), std::move(out));
}

double Minutes(const traj::Trajectory& t) {
  return static_cast<double>(t.TravelTimeSeconds()) / 60.0;
}

}  // namespace

EtaResult FinetuneEta(TrajectoryEncoder* encoder,
                      const std::vector<traj::Trajectory>& train,
                      const std::vector<traj::Trajectory>& test,
                      const TaskConfig& config) {
  // Standardise the target (minutes) over the training split.
  double mean = 0.0;
  for (const auto& t : train) mean += Minutes(t);
  mean /= static_cast<double>(train.size());
  double var = 0.0;
  for (const auto& t : train) {
    const double y = Minutes(t) - mean;
    var += y * y;
  }
  const double stddev =
      std::sqrt(std::max(1e-8, var / static_cast<double>(train.size())));

  const HeadTask task{
      EncodeMode::kDepartureOnly, 1,
      [&](const Tensor& pred, const std::vector<int64_t>& rows) {
        std::vector<float> targets;
        targets.reserve(rows.size());
        for (const int64_t i : rows) {
          targets.push_back(static_cast<float>(
              (Minutes(train[static_cast<size_t>(i)]) - mean) / stddev));
        }
        return tensor::MseLoss(pred, targets);
      }};
  const Tensor pred = FitHead(encoder, train, test, task, config);

  EtaResult result;
  for (size_t i = 0; i < test.size(); ++i) {
    result.pred_minutes.push_back(
        static_cast<double>(pred.data()[i]) * stddev + mean);
    result.true_minutes.push_back(Minutes(test[i]));
  }
  result.metrics =
      ComputeRegressionMetrics(result.true_minutes, result.pred_minutes);
  return result;
}

ClassificationResult FinetuneClassification(
    TrajectoryEncoder* encoder, const std::vector<traj::Trajectory>& train,
    const std::vector<traj::Trajectory>& test, const LabelFn& label_fn,
    int64_t num_classes, int64_t recall_k, const TaskConfig& config) {
  START_CHECK_GT(num_classes, 1);
  const std::vector<int64_t> train_labels =
      Labels(train, label_fn, num_classes);
  ClassificationResult result;
  result.labels = Labels(test, label_fn, num_classes);
  const HeadTask task{
      EncodeMode::kFull, num_classes,
      [&](const Tensor& logits, const std::vector<int64_t>& rows) {
        std::vector<int64_t> labels;
        labels.reserve(rows.size());
        for (const int64_t i : rows) {
          labels.push_back(train_labels[static_cast<size_t>(i)]);
        }
        return tensor::CrossEntropyWithLogits(logits, labels);
      }};
  const Tensor probs =
      tensor::SoftmaxLastDim(FitHead(encoder, train, test, task, config));

  std::vector<double> pos_scores;  // binary AUC
  std::vector<double> all_scores;  // Recall@k
  for (size_t i = 0; i < test.size(); ++i) {
    const float* row = probs.data() + static_cast<int64_t>(i) * num_classes;
    int64_t argmax = 0;
    for (int64_t c = 1; c < num_classes; ++c) {
      if (row[c] > row[argmax]) argmax = c;
    }
    result.predictions.push_back(argmax);
    if (num_classes == 2) pos_scores.push_back(row[1]);
    for (int64_t c = 0; c < num_classes; ++c) all_scores.push_back(row[c]);
  }
  result.accuracy = Accuracy(result.labels, result.predictions);
  result.micro_f1 = MicroF1(result.labels, result.predictions);
  result.macro_f1 = MacroF1(result.labels, result.predictions, num_classes);
  result.recall_at_k =
      RecallAtK(result.labels, all_scores, num_classes, recall_k);
  if (num_classes == 2) {
    result.f1 = BinaryF1(result.labels, result.predictions);
    result.auc = BinaryAuc(result.labels, pos_scores);
  }
  return result;
}

}  // namespace start::eval
