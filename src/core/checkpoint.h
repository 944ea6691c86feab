#ifndef START_CORE_CHECKPOINT_H_
#define START_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace start::core {

/// \brief Versioned checkpointing: the bridge that turns the pre-trainer into
/// a reusable artifact producer.
///
/// Two checkpoint flavours share one on-disk container (tensor::SaveBundle,
/// magic "STTN" v2, per-record CRC-32, config hash in the header tag):
///
///  * **Model checkpoint** — parameters only. Written by Module::Save or
///    SaveModelCheckpoint; consumed by eval::TrajectoryEncoder::WarmStart,
///    the fine-tuning tasks, and the transfer example.
///  * **Training checkpoint** — parameters + AdamW slot buffers + trainer
///    bookkeeping (step cursor, per-epoch loss accumulators, plan hash).
///    Written/resumed by core::Pretrain; an interrupted run restarted from
///    one continues bitwise-identically to an uninterrupted run (asserted by
///    tests/core_pretrain_test.cc).
///
/// A training checkpoint is a superset, so every consumer of a model
/// checkpoint can also load one. See ARCHITECTURE.md "Checkpoint format".

/// Hash of the architecture-defining StartConfig fields (FNV-1a). Stored in
/// the checkpoint header; a loader that expects a different hash still loads
/// (shapes are checked per tensor) but logs a warning, since silently mixing
/// architectures is the classic way to warm-start the wrong model.
uint64_t HashStartConfig(const StartConfig& config);

/// One FNV-1a step: folds `word` into `h`. Callers extend HashStartConfig
/// with run-level knobs (e.g. the pre-train plan shape) before saving.
uint64_t HashCombine(uint64_t h, uint64_t word);

/// How strictly model parameters are matched against checkpoint records
/// (mirrors Module::Load: fine-tune heads may be absent; |V|-bound tensors
/// may mismatch across road networks).
struct LoadOptions {
  bool allow_missing = false;
  bool skip_mismatched = false;
};

/// \brief Mutable trainer state captured in a training checkpoint.
///
/// `next_step` is the loader resume cursor: the first plan step the resumed
/// run must consume. The loss accumulators are the raw running sums (not
/// averages) so the resumed run's epoch trace is bitwise identical.
struct TrainerState {
  int64_t next_step = 0;
  int64_t adam_step = 0;  ///< AdamW bias-correction counter t.
  uint64_t schedule_fingerprint = 0;  ///< WarmupCosineSchedule::Fingerprint.
  /// Hash of everything that shapes the step plan (epochs, batch size, seed,
  /// corpus size) and the training step's summation order. A resume
  /// under a different plan hash is a different run — Pretrain refuses it
  /// and starts fresh rather than continue incoherently.
  uint64_t plan_hash = 0;
  std::vector<double> loss_sum;
  std::vector<double> mask_sum;
  std::vector<double> con_sum;
  std::vector<int64_t> batch_count;
};

/// True when `path` exists and is readable (the resume probe).
bool CheckpointExists(const std::string& path);

/// Writes a model checkpoint: every named parameter, dense, with
/// `config_hash` in the header.
common::Status SaveModelCheckpoint(const std::string& path,
                                   const nn::Module& model,
                                   uint64_t config_hash);

/// Loads model parameters from a model OR training checkpoint. Logs a
/// warning when the header hash differs from `expected_config_hash` (pass 0
/// to skip the comparison). Parameter matching follows `options`.
common::Status LoadModelCheckpoint(const std::string& path, nn::Module* model,
                                   uint64_t expected_config_hash,
                                   const LoadOptions& options = {});

/// Writes a training checkpoint: model parameters, AdamW moment buffers
/// (named per parameter), and `state`.
common::Status SaveTrainingCheckpoint(const std::string& path,
                                      const nn::Module& model,
                                      const nn::AdamW& opt,
                                      const TrainerState& state,
                                      uint64_t config_hash);

/// Restores a training checkpoint into `model` and `opt` (strict parameter
/// matching — a resume must be exact) and returns the trainer state. Fails
/// with FailedPrecondition on a model-only checkpoint, or — before touching
/// `model`/`opt` — when `expected_plan_hash` is non-zero and differs from
/// the checkpoint's, so a refused resume leaves the caller's fresh state
/// intact for a from-scratch run.
common::Result<TrainerState> LoadTrainingCheckpoint(
    const std::string& path, nn::Module* model, nn::AdamW* opt,
    uint64_t expected_config_hash, uint64_t expected_plan_hash = 0);

}  // namespace start::core

#endif  // START_CORE_CHECKPOINT_H_
