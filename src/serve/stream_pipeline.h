#ifndef START_SERVE_STREAM_PIPELINE_H_
#define START_SERVE_STREAM_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_hooks.h"
#include "common/status.h"
#include "roadnet/road_network.h"
#include "serve/drift_monitor.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "serve/index_interface.h"
#include "traj/map_matching.h"
#include "traj/trajectory.h"

namespace start::serve {

/// One raw unit of the live stream: a GPS point trajectory plus the id it
/// will be indexed under once ingested.
struct StreamItem {
  int64_t id = 0;
  traj::GpsTrajectory gps;
};

/// \brief One complete serving snapshot: the frozen encoder, the ANN index
/// its embeddings are upserted into, and (optionally) the drift monitor
/// watching the stream.
///
/// The pipeline serves from exactly one bundle at a time and hot-swaps to a
/// new one under the contract documented at StreamPipeline::SwapEngine.
/// Ownership is shared, so the adaptation controller may drop its own
/// references once the swap lands. `drift` may be null (no drift
/// tracking).
struct EngineBundle {
  std::shared_ptr<const FrozenEncoder> encoder;
  std::shared_ptr<IndexInterface> index;
  std::shared_ptr<DriftMonitor> drift;
};

/// What a stage does when its downstream queue is full.
enum class OverflowPolicy {
  kBlock,       ///< Backpressure: the producer waits for space (default).
  kDropNewest,  ///< Load shedding: the new item is dropped and counted.
};

/// Knobs of the staged pipeline.
struct StreamConfig {
  int match_workers = 2;  ///< HMM map-matching workers (the CPU-bound stage).
  int embed_workers = 2;  ///< Workers round-tripping the EmbeddingService.

  // Per-stage queue bounds (items waiting to ENTER the stage). The embed
  // stage's bound is fixed at 128.
  int64_t match_queue_depth = 128;
  int64_t upsert_queue_depth = 128;
  /// Global bound on accepted-but-not-finalized items; also bounds the
  /// finalizer's reorder buffer, so pipeline memory is O(max_in_flight)
  /// regardless of stalls.
  int64_t max_in_flight = 1024;

  OverflowPolicy overflow = OverflowPolicy::kBlock;

  /// Transient-failure policy: a stage attempt that fails with anything but
  /// InvalidArgument is retried up to this many times, sleeping
  /// 200 us << attempt between attempts (exponential backoff). Matched
  /// trajectories shorter than 2 roads are failed (matching noise).
  int max_retries = 3;

  traj::HmmMapMatcher::Config matcher;  ///< Map-matching knobs.
  ServiceConfig service;                ///< Micro-batching embed service.
};

/// Monotonic counters + queue/latency snapshot of one stage.
struct StageStats {
  int64_t completed = 0;  ///< Items the stage finished successfully.
  int64_t failed = 0;     ///< Items that permanently failed in the stage.
  int64_t dropped = 0;    ///< Items dropped at the stage's queue (kDropNewest).
  int64_t retried = 0;    ///< Transient-failure retry attempts.
  int64_t queue_depth = 0;  ///< Items currently waiting to enter the stage.
  double p50_ms = 0.0;    ///< Median stage latency (recent items).
  double p95_ms = 0.0;
};

/// Whole-pipeline snapshot. Accounting identity (holds exactly once the
/// pipeline is drained or flushed): accepted == ingested() + total_failed()
/// + embed.dropped + upsert.dropped. match.dropped counts ingress load
/// shedding (items never accepted).
struct PipelineStats {
  int64_t pushed = 0;    ///< Push() calls.
  int64_t rejected = 0;  ///< Pushes rejected by validation (empty GPS).
  int64_t accepted = 0;  ///< Items that entered the pipeline (got a seq).
  StageStats match, embed, upsert;
  int64_t in_flight = 0;  ///< Accepted but not yet finalized.
  int64_t epoch = 0;      ///< Epoch of the currently serving engine bundle.
  int64_t swaps = 0;      ///< Successful SwapEngine() calls so far.

  int64_t ingested() const { return upsert.completed; }
  int64_t total_failed() const {
    return match.failed + embed.failed + upsert.failed;
  }
  int64_t total_dropped() const {
    return match.dropped + embed.dropped + upsert.dropped;
  }
};

/// \brief The streaming ingestion pipeline: live GPS trajectories in, index
/// upserts + drift statistics out, while queries run against the index.
///
/// Stages (each with a bounded inbound queue):
///
///   Push(gps) -> [match workers]  HMM map matching -> road trajectory
///             -> [embed workers]  micro-batched EmbeddingService round trip
///                                 (EncodeMode::kFull)
///             -> [finalizer]      in-order index upsert + drift observe
///
/// The finalizer is single-threaded and processes items strictly in
/// arrival (sequence) order, whatever the worker counts upstream: workers
/// deliver out-of-order completions into a reorder buffer bounded by
/// max_in_flight. Combined with the frozen engine's batch-composition
/// invariance, this makes ingestion deterministic: the same accepted
/// stream produces bitwise-identical embeddings, the same index insertion
/// order, and bitwise-identical drift windows for ANY
/// (match_workers, embed_workers, service) configuration — the replay
/// contract tests/stream_pipeline_test.cc asserts.
///
/// Failure policy: transient stage failures (the FaultHooks seam, service
/// hiccups) retry with exponential backoff; permanent failures (matching
/// came up empty, validation) are counted and the item is skipped —
/// never half-ingested: an item either reaches the index AND the drift
/// monitor AND the callback, or is accounted failed/dropped.
///
/// Backpressure: with OverflowPolicy::kBlock (default), a full queue stalls
/// the producer side and Push() eventually blocks — memory stays bounded
/// and nothing is lost. With kDropNewest the pipeline sheds load instead:
/// drops are counted per stage (the drop markers still flow to the
/// finalizer so ordering and accounting stay exact).
///
/// Shutdown: Drain() (also the destructor) stops accepting, lets every
/// stage finish everything already accepted, then joins every thread the
/// pipeline started.
///
/// Hot swap: see SwapEngine(), the one home of the swap contract.
///
/// Thread-safety: Push()/stats()/Flush()/SwapEngine() may be called from
/// any number of threads. The index must be one of the serve:: backends
/// (their contract already allows concurrent queries during writes).
/// Verified race-free under ThreadSanitizer (stream_pipeline_test in the
/// tsan CI job).
class StreamPipeline {
 public:
  /// Invoked by the finalizer after an item is fully ingested (index upsert
  /// done, drift observed), in sequence order.
  using IngestedCallback = std::function<void(
      int64_t id, const traj::Trajectory& traj, const EmbeddingRow& row)>;

  /// `net` (and `hooks` when given) must outlive the pipeline; `engine`
  /// shares ownership of the serving snapshot. `engine.drift` may be null
  /// (no drift tracking), `hooks` may be nullptr (no injection).
  StreamPipeline(EngineBundle engine, const roadnet::RoadNetwork* net,
                 const StreamConfig& config = {},
                 const common::FaultHooks* hooks = nullptr);

  ~StreamPipeline();

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Installs the ingested callback. Must be called before the first Push().
  void SetOnIngested(IngestedCallback callback);

  /// \brief Submits one GPS trajectory.
  ///
  /// Returns InvalidArgument for an empty trajectory, FailedPrecondition
  /// after Drain() has begun. Under kBlock, blocks while the match queue or
  /// the in-flight bound is full; under kDropNewest the item may instead be
  /// shed (counted in match.dropped) and Push still returns OK — load
  /// shedding is an accounted outcome, not an error.
  common::Status Push(StreamItem item);

  /// Blocks until every accepted item has been finalized (queues empty).
  /// New pushes stay allowed; concurrent pushers can starve a Flush.
  void Flush();

  /// Like Flush() but bounded: returns true once every accepted item has
  /// been finalized, false if `timeout_us` elapses first. The adaptation
  /// controller's pre-swap drain wait.
  bool WaitQuiescent(int64_t timeout_us);

  /// \brief Replaces the serving engine bundle (encoder + index + drift
  /// monitor + the internal EmbeddingService) at a quiescent sequence
  /// boundary.
  ///
  /// Validates the bundle (non-null encoder/index, internally consistent
  /// dims, matching the current serving dim), then installs it under the
  /// ingress lock only while no accepted item is in flight; otherwise it
  /// fails with FailedPrecondition and the caller retries (the adaptation
  /// controller waits with WaitQuiescent() between attempts). Everything
  /// accepted before the swap has therefore run every stage against the old
  /// bundle, finalized, and been reported through the ingested callback
  /// before the new bundle sees its first item; no item is dropped,
  /// reordered, or split across engines, and one post-swap catch-up pass
  /// over the recorded corpus closes the gap with nothing racing into the
  /// retired index. On any failure, or after Drain() has begun, the current
  /// engine keeps serving untouched and an error is returned.
  common::Status SwapEngine(EngineBundle engine);

  /// Stops accepting, drains every accepted item through all stages, joins
  /// the stage workers and the serving EmbeddingService's workers.
  /// Idempotent; called by the destructor.
  void Drain();

  /// Snapshot of all counters, queue depths, and stage latencies.
  PipelineStats stats() const;

  /// The currently serving bundle (shares ownership — safe to hold across a
  /// concurrent SwapEngine()).
  EngineBundle engine() const;
  /// Epoch of the currently serving bundle (0 before the first swap).
  int64_t epoch() const;

 private:
  /// The serving unit a Work item is pinned to at Push: one EngineBundle
  /// plus the micro-batching EmbeddingService built over its encoder.
  struct Lease {
    EngineBundle engine;
    int64_t epoch = 0;
    std::unique_ptr<EmbeddingService> service;
  };

  struct Work {
    int64_t seq = 0;
    int64_t id = 0;
    std::shared_ptr<Lease> lease;  ///< Pinned at Push; never changes.
    traj::GpsTrajectory gps;  ///< Payload into the match stage.
    traj::Trajectory traj;    ///< Payload into the embed stage.
  };

  enum class OutcomeKind { kIngest, kDropped, kFailed };

  /// Exactly one Outcome per accepted seq reaches the finalizer.
  struct Outcome {
    int64_t seq = 0;
    int64_t id = 0;
    OutcomeKind kind = OutcomeKind::kFailed;
    std::shared_ptr<Lease> lease;  ///< kIngest only (upsert/drift target).
    traj::Trajectory traj;  ///< kIngest only.
    EmbeddingRow row;       ///< kIngest only.
  };

  struct WorkQueue {
    mutable std::mutex mu;
    std::condition_variable cv_space, cv_item;
    std::deque<Work> q;
    bool closed = false;
  };

  /// Outcome channel into the finalizer. Capacity counts only kIngest
  /// payloads; dropped/failed markers are a few words and always accepted,
  /// so no accepted seq can ever be lost. Under kBlock a payload's credit
  /// is returned when the finalizer pops it; under kDropNewest only when it
  /// is finalized, so a full queue means the finalizer is genuinely behind
  /// (see FinalizeLoop).
  struct OutcomeQueue {
    mutable std::mutex mu;
    std::condition_variable cv_space, cv_item;
    std::deque<Outcome> q;
    int64_t payload = 0;
    bool closed = false;
  };

  struct StageCounters {
    std::atomic<int64_t> completed{0}, failed{0}, dropped{0}, retried{0};
  };

  /// Ring of recent per-item stage latencies for the p50/p95 snapshot.
  struct LatencyRing {
    static constexpr size_t kCapacity = 4096;
    mutable std::mutex mu;
    std::vector<double> ms;
    size_t next = 0;

    void Record(double value);
    void Percentiles(double* p50, double* p95) const;
  };

  void MatchLoop();
  void EmbedLoop();
  void FinalizeLoop();
  void ProcessOutcome(Outcome* o);

  /// Retries hooks_->BeforeStage per the transient-failure policy.
  common::Status RunWithRetry(const char* stage, int64_t seq,
                              StageCounters* counters);
  bool PopWork(WorkQueue* q, Work* out);
  /// Pushes into a stage queue per the overflow policy; false == dropped
  /// (already counted against `door`).
  bool PushWork(WorkQueue* q, int64_t depth, Work w, StageCounters* door);
  void EmitOutcome(Outcome o);

  /// Recoverable bundle validation shared by the constructor (which CHECKs
  /// the result) and SwapEngine (which returns it).
  static common::Status ValidateEngine(const EngineBundle& engine);
  /// Builds a lease (bundle + its EmbeddingService) — outside any lock.
  std::shared_ptr<Lease> MakeLease(EngineBundle engine, int64_t epoch) const;

  const roadnet::RoadNetwork* net_;
  const StreamConfig config_;
  const common::FaultHooks* hooks_;
  IngestedCallback on_ingested_;

  WorkQueue match_q_;
  WorkQueue embed_q_;
  OutcomeQueue outcome_q_;

  // Guarded by match_q_.mu (the ingress lock).
  bool accepting_ = true;
  int64_t next_seq_ = 0;
  int64_t in_flight_ = 0;
  /// The serving lease; swapped at the ingress lock, so a lease boundary is
  /// exactly a sequence boundary.
  std::shared_ptr<Lease> lease_;
  std::condition_variable flush_cv_;

  /// Serializes SwapEngine() callers (epoch assignment + lease build).
  std::mutex swap_mu_;

  std::atomic<int64_t> pushed_{0}, rejected_{0}, accepted_{0};
  std::atomic<int64_t> swaps_{0};
  StageCounters match_, embed_, upsert_;
  mutable LatencyRing match_lat_, embed_lat_, upsert_lat_;

  std::atomic<int> active_match_{0}, active_embed_{0};

  std::mutex drain_mu_;
  /// Match workers, embed workers, then the finalizer; joined in that
  /// order by Drain().
  std::vector<std::thread> threads_;
};

}  // namespace start::serve

#endif  // START_SERVE_STREAM_PIPELINE_H_
