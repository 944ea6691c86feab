#ifndef START_EVAL_TASKS_H_
#define START_EVAL_TASKS_H_

#include <functional>
#include <vector>

#include "eval/encoder.h"
#include "eval/metrics.h"
#include "traj/trajectory.h"

namespace start::eval {

/// \brief Fine-tuning hyper-parameters shared by the downstream tasks
/// (Sec. III-D / IV-C2).
struct TaskConfig {
  int64_t epochs = 4;
  int64_t batch_size = 32;
  double lr = 1e-3;
  uint64_t seed = 11;
  /// When false, the encoder is frozen and only the head is trained (used by
  /// linear-probe style experiments): the train split goes through the
  /// inference contract, TrajectoryEncoder::EmbedAll (eval/encoder.h), once.
  /// The test split always does.
  bool finetune_encoder = true;
  /// When non-empty, the encoder is warm-started from this checkpoint (a
  /// core::Pretrain artifact) before fine-tuning, instead of whatever state
  /// it happens to be in — the Sec. III-D protocol of consuming the
  /// pre-trained encoder, without re-running pre-training.
  std::string encoder_checkpoint;
  /// Passed to TrajectoryEncoder::WarmStart: leave |V|-bound tensors (e.g.
  /// the MLM head) at their fresh values when the checkpoint comes from a
  /// different road network (cross-city transfer, Table III).
  bool checkpoint_skip_mismatched = false;
};

/// \brief Result of the travel-time-estimation task (Sec. III-D1).
struct EtaResult {
  RegressionMetrics metrics;           ///< In minutes.
  std::vector<double> true_minutes;    ///< Per test trajectory.
  std::vector<double> pred_minutes;
};

/// Fine-tunes a regression head (FC layer, Eq. 16) on travel times; only the
/// departure time is exposed to the encoder (EncodeMode::kDepartureOnly).
EtaResult FinetuneEta(TrajectoryEncoder* encoder,
                      const std::vector<traj::Trajectory>& train,
                      const std::vector<traj::Trajectory>& test,
                      const TaskConfig& config);

/// Extracts a class label from a trajectory.
using LabelFn = std::function<int64_t(const traj::Trajectory&)>;

/// \brief Result of the trajectory-classification task (Sec. III-D2).
struct ClassificationResult {
  // Binary metrics (meaningful when num_classes == 2).
  double accuracy = 0.0;
  double f1 = 0.0;
  double auc = 0.0;
  // Multi-class metrics.
  double micro_f1 = 0.0;
  double macro_f1 = 0.0;
  double recall_at_k = 0.0;
  std::vector<int64_t> labels;
  std::vector<int64_t> predictions;
};

/// Fine-tunes a softmax head (Eq. 17). `recall_k` sets the k of Recall@k.
ClassificationResult FinetuneClassification(
    TrajectoryEncoder* encoder, const std::vector<traj::Trajectory>& train,
    const std::vector<traj::Trajectory>& test, const LabelFn& label_fn,
    int64_t num_classes, int64_t recall_k, const TaskConfig& config);

}  // namespace start::eval

#endif  // START_EVAL_TASKS_H_
