#ifndef START_SERVE_ADAPTATION_H_
#define START_SERVE_ADAPTATION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_hooks.h"
#include "common/status.h"
#include "core/config.h"
#include "core/pretrain.h"
#include "roadnet/road_network.h"
#include "serve/drift_monitor.h"
#include "serve/hnsw_index.h"
#include "serve/stream_pipeline.h"
#include "traj/traffic_model.h"

namespace start::serve {

/// Where the adaptation loop currently is. Transitions:
/// kServing -> kRetraining -> kSwapping -> kServing, with every failure
/// edge collapsing straight back to kServing on the OLD engine.
enum class AdaptationState { kServing, kRetraining, kSwapping };

const char* AdaptationStateName(AdaptationState state);

/// Knobs of the closed adaptation loop.
struct AdaptationConfig {
  /// Architecture of the serving artifact (all generations share it — a
  /// warm start cannot change shapes).
  core::StartConfig model;
  /// Generation artifacts (gen_<N>.sttn and gen_<N>.sttn.index) are written
  /// here. Must exist and be writable.
  std::string artifact_dir;
  /// The generation-0 model artifact the loop boots from.
  std::string base_checkpoint;
  /// Warm-start fine-tune plan for each retraining round (epochs, lr, seed;
  /// checkpoint routing fields are overridden per round).
  core::PretrainConfig finetune;
  /// ANN configuration of every (re)built index generation.
  HnswConfig index;
  /// Drift statistics; each engine generation gets a fresh monitor (the
  /// reference window re-learns the post-swap distribution).
  DriftConfig drift;
  /// Ingestion pipeline knobs.
  StreamConfig stream;

  /// Most recent matched trajectories retained as the fine-tune corpus and
  /// the rebuild source (FIFO eviction beyond this).
  int64_t corpus_capacity = 4096;
  /// A retraining round is skipped (not failed) below this corpus size.
  int64_t min_retrain_corpus = 32;
  /// Budget for reaching a quiescent swap point; exceeding it aborts the
  /// round with the old engine still serving.
  int64_t swap_timeout_us = 10'000'000;
  /// Remove() schedules a compaction swap once the serving index's
  /// DeadFraction() crosses this.
  double compact_dead_fraction = 0.5;
};

/// Counters + state snapshot of the loop.
struct AdaptationStats {
  AdaptationState state = AdaptationState::kServing;
  int64_t generation = 0;        ///< Serving artifact generation (0 = base).
  int64_t drift_triggers = 0;    ///< Drift callbacks observed.
  int64_t rounds_started = 0;    ///< Retraining rounds begun.
  int64_t rounds_completed = 0;  ///< Rounds that ended in a successful swap.
  int64_t rounds_failed = 0;     ///< Rounds aborted by a failure edge.
  int64_t rounds_skipped = 0;    ///< Rounds skipped (corpus too small).
  int64_t compactions = 0;       ///< Tombstone-compaction swaps completed.
  int64_t swap_timeouts = 0;     ///< Rounds aborted at the swap deadline.
  int64_t catch_up_items = 0;    ///< Items re-embedded into a new index.
  int64_t index_restored = 0;    ///< Boot loaded a persisted index.
  int64_t index_recovered = 0;   ///< Persisted index rejected; fresh build.
  int64_t corpus_size = 0;       ///< Recorded trajectories right now.
  std::string last_error;        ///< Most recent failure edge, "" if none.
};

/// \brief Closes the adaptation loop: drift-triggered warm-start retraining
/// plus zero-downtime engine/index hot-swap over a StreamPipeline.
///
/// The controller owns the serving stack: it boots a FrozenEncoder from the
/// base checkpoint (plus the persisted index next to it, when present),
/// serves the stream through an internal StreamPipeline, and records every
/// ingested (id, matched trajectory) into a bounded corpus ring. When the
/// per-generation DriftMonitor flags drift (or TriggerRetrain() is called),
/// a background thread runs one adaptation round:
///
///   1. snapshot the recorded corpus;
///   2. warm-start fine-tune off the serving checkpoint
///      (core::WarmStartRetrain), writing gen_<N>.sttn;
///   3. build a fresh FrozenEncoder + HnswIndex and re-embed the corpus
///      into it;
///   4. hot-swap at a quiescent sequence boundary (StreamPipeline::SwapEngine),
///      then run one catch-up pass for items ingested after the snapshot,
///      and persist the new index next to its checkpoint.
///
/// Every failure edge — retrain crash, rebuild failure, swap timeout,
/// corrupt persisted index — degrades gracefully: the round is abandoned,
/// the error is recorded in stats().last_error, and the OLD engine keeps
/// serving untouched. The common::FaultHooks stages "retrain", "rebuild",
/// and "swap" are the injection seams (tests/adaptation_test.cc walks every
/// edge).
///
/// Remove() additionally folds tombstone compaction into the same swap
/// machinery: once the serving index's DeadFraction() crosses the
/// configured threshold, the background thread swaps in a CompactedCopy()
/// under the unchanged encoder.
///
/// Thread-safety: Push()/Remove()/Flush()/TriggerRetrain()/stats() may be
/// called from any number of threads. The referenced road network /
/// transfer / traffic model must outlive the controller.
class AdaptationController {
 public:
  /// Boots the serving stack. Fails (leaving nothing running) when the base
  /// checkpoint is missing or unreadable; a corrupt persisted index is NOT
  /// fatal — it is recovered by starting from an empty index (counted in
  /// stats().index_recovered).
  static common::Result<std::unique_ptr<AdaptationController>> Create(
      const AdaptationConfig& config, const roadnet::RoadNetwork* net,
      const roadnet::TransferProbability* transfer,
      const traj::TrafficModel* traffic,
      const common::FaultHooks* hooks = nullptr);

  /// Stops the adaptation thread and drains the pipeline.
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Submits one GPS trajectory to the pipeline (see StreamPipeline::Push).
  common::Status Push(StreamItem item);

  /// Removes `id` from the serving index and the recorded corpus; schedules
  /// a compaction swap when DeadFraction() crosses the threshold.
  common::Status Remove(int64_t id);

  /// Blocks until every accepted item has been finalized.
  void Flush();

  /// Schedules an adaptation round as if drift had fired (deterministic
  /// tests; ops override). Returns immediately.
  void TriggerRetrain();

  /// Schedules a compaction check. Returns immediately.
  void TriggerCompaction();

  /// Blocks until no round is running or pending, or `timeout_us` elapses;
  /// true on idle. Note pending != guaranteed-started: rounds scheduled
  /// after this returns still run later.
  bool WaitUntilIdle(int64_t timeout_us);

  /// The currently serving engine bundle (shares ownership; safe across a
  /// concurrent swap). Query the stream through engine().index.
  EngineBundle engine() const { return pipeline_->engine(); }

  /// The owned ingestion pipeline (stats, WaitQuiescent, ...). The engine
  /// bundle it serves is managed by this controller — do not SwapEngine
  /// through this handle.
  StreamPipeline* pipeline() { return pipeline_.get(); }

  /// Path of the serving generation's checkpoint artifact.
  std::string serving_checkpoint() const;

  AdaptationStats stats() const;

 private:
  AdaptationController(const AdaptationConfig& config,
                       const roadnet::RoadNetwork* net,
                       const roadnet::TransferProbability* transfer,
                       const traj::TrafficModel* traffic,
                       const common::FaultHooks* hooks);

  /// Boot-time engine construction (encoder from the base checkpoint,
  /// persisted-or-fresh index, drift monitor, pipeline).
  common::Status Boot();

  /// Fresh per-generation drift monitor wired to OnDrift().
  std::shared_ptr<DriftMonitor> MakeDriftMonitor();

  /// Pipeline ingest callback: records (id, traj) into the corpus ring.
  void OnIngested(int64_t id, const traj::Trajectory& traj);
  /// Drift callback: schedules a round.
  void OnDrift();

  void WorkerLoop();
  void RunRetrainRound(int64_t round);
  void RunCompactionRound(int64_t round);

  /// Quiescent-gated hot swap + one post-swap catch-up pass + persistence.
  /// `encoder` must be the bundle's encoder (used for catch-up embedding).
  common::Status SwapAndCatchUp(EngineBundle bundle,
                                const std::shared_ptr<HnswIndex>& index,
                                const std::string& index_path);

  /// Embeds every corpus entry missing from `index` and adds it.
  common::Status CatchUp(const FrozenEncoder& encoder, HnswIndex* index);

  /// Records a failure edge and collapses back to kServing.
  void FailRound(const std::string& what, const common::Status& st);

  const AdaptationConfig config_;
  const roadnet::RoadNetwork* net_;
  const roadnet::TransferProbability* transfer_;
  const traj::TrafficModel* traffic_;
  const common::FaultHooks* hooks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool retrain_pending_ = false;
  bool compact_pending_ = false;
  bool round_active_ = false;
  /// State, generation, counters and last error; corpus_size is filled in
  /// by stats().
  AdaptationStats stats_;
  std::string serving_checkpoint_;
  /// The serving HnswIndex (same object the pipeline's bundle holds, typed).
  std::shared_ptr<HnswIndex> hnsw_;

  /// Corpus ring: newest-last id order plus id -> matched trajectory.
  /// Removed/evicted ids leave the map; stale ids in the deque are skipped.
  std::deque<int64_t> corpus_order_;
  std::unordered_map<int64_t, traj::Trajectory> corpus_;

  std::shared_ptr<const FrozenEncoder> encoder_;  ///< Serving generation's.

  std::unique_ptr<StreamPipeline> pipeline_;
  std::thread worker_;
};

}  // namespace start::serve

#endif  // START_SERVE_ADAPTATION_H_
