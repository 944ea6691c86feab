// Calls into the serving stack shared by the three workloads: the search
// request, its correctness oracles, the encoder replay and the pipeline
// stage clock. Everything goes through the library's public serving API
// (FrozenEncoder, EmbeddingService, IndexInterface, EngineBundle).
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fault_hooks.h"
#include "harness.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "serve/index_interface.h"
#include "serve/stream_pipeline.h"
#include "traj/trajectory.h"

namespace perfbench {

constexpr int64_t kTopK = 10;

/// One served search kept for the correctness checks.
struct Served {
  const start::traj::Trajectory* query = nullptr;
  std::shared_ptr<const start::serve::FrozenEncoder> encoder;
  std::vector<float> row;
  std::vector<int64_t> ids;
};

/// Keeps every `every`-th served search (thread-safe).
class ServedLog {
 public:
  explicit ServedLog(int64_t every) : every_(every) {}
  void Offer(int64_t i, Served served);
  std::vector<Served> Take();

 private:
  const int64_t every_;
  std::mutex mu_;
  std::vector<Served> served_;
};

/// A query engine: an EmbeddingService over one encoder plus the index its
/// embeddings are searched in.
struct QueryEngine {
  std::shared_ptr<const start::serve::FrozenEncoder> encoder;
  std::shared_ptr<start::serve::IndexInterface> index;
  std::unique_ptr<start::serve::EmbeddingService> service;
};

/// The d=32 pipeline of ingest and adapt: 2 match and 2 embed workers,
/// 16-row micro-batches with a 100 us deadline, kBlock backpressure.
start::serve::StreamConfig PipelineConfig();

/// The service behind the side search streams of ingest and adapt.
start::serve::ServiceConfig SideSearchService();

/// Builds a query engine over `bundle` with the given service config.
std::shared_ptr<QueryEngine> MakeQueryEngine(
    const start::serve::EngineBundle& bundle,
    const start::serve::ServiceConfig& config);

/// One search request: trajectory -> embed (service) -> top-10 (index).
/// Records service.encode and hnsw.query spans under `root` when tracing.
/// Returns false when any step fails.
bool SearchOnce(const QueryEngine& engine, const start::traj::Trajectory& t,
                uint64_t root, uint64_t request, Served* served);

/// Open-loop search stream at `rate` over [start_ns, end_ns): request i
/// searches query(i) on engine(); the root span is named `root_name`.
StreamSamples RunSearchStream(
    const char* root_name, double rate, int64_t start_ns, int64_t end_ns,
    int clients,
    const std::function<const start::traj::Trajectory&(int64_t)>& query,
    const std::function<std::shared_ptr<QueryEngine>()>& engine,
    ServedLog* log);

/// Closed loop: `clients` threads search back to back until `end_ns`.
/// Returns the completion times of the requests that succeeded; failures
/// are added to *failed.
std::vector<int64_t> RunSearchClosedLoop(
    int clients, int64_t end_ns,
    const std::function<const start::traj::Trajectory&(int64_t)>& query,
    const QueryEngine& engine, ServedLog* log, int64_t* failed);

/// Searches the last `n` of `queries` on a quiesced `engine` for the recall
/// check; failures are added to *failed.
std::vector<Served> QuiescedSearches(
    const QueryEngine& engine,
    const std::vector<start::traj::Trajectory>& queries, int64_t n,
    int64_t* failed);

/// The measurements behind the end-to-end metrics of a run.
struct EndToEnd {
  std::vector<double> setup_cpu_s;   ///< CPU time of each set-up trial.
  std::vector<double> setup_wall_s;  ///< Wall time of each set-up trial.
  double cpu_ms_per_op = 0.0;        ///< Of the throughput phase.
  double throughput = 0.0;           ///< Low-steal rate (1/s).
  double recall = 0.0;
  double rss_mb = 0.0;  ///< Peak RSS of set-up and serving above the inputs.
  std::vector<double> latency_ms;  ///< Ingest stream, in send order.
  std::vector<double> search_ms;   ///< Search stream, in send order.
};

/// Reports the end-to-end metrics (median set-up CPU time, CPU per
/// operation, recall, ok ratio, peak RSS)
/// and the wall-clock ones every run also records as wall.* per-layer
/// metrics: median set-up wall time, throughput, and the ingest and search
/// streams' latencies.
void ReportEndToEnd(const EndToEnd& e, Report* report);

/// Mean top-10 overlap of served results with `oracle` queried by the same
/// embedding rows.
double RecallAt10(const std::vector<Served>& served,
                  const start::serve::IndexInterface& oracle);

/// True when every served row is bitwise equal to
/// FrozenEncoder::EncodeBatch({query}) of the encoder that served it.
bool ServedRowsBitwise(const std::vector<Served>& served);

/// Per-layer encoder metrics: FrozenEncoder::EncodeBatch replayed at the
/// mean batch shape `stats` observed, FLOPs from the config. Returns the
/// median batch time in ms (0 when nothing was served).
double ReplayEncoder(const start::serve::FrozenEncoder& encoder,
                   const start::serve::ServiceStats& stats,
                   const std::vector<start::traj::Trajectory>& pool,
                   Report* report);

/// Service wait (Encode -> ready, minus the replayed batch time `batch_ms`)
/// and the ServiceStats counters.
void ReportService(const std::vector<trace::Span>& spans,
                   const start::serve::ServiceStats& stats, double batch_ms,
                   Report* report);

/// Per-sequence-number stage entry times from FaultHooks::before_stage, and
/// per-round phase times for the adaptation stages.
class StageClock {
 public:
  struct Round {
    int64_t retrain_ns = 0, rebuild_ns = 0, swap_ns = 0;
  };

  explicit StageClock(int64_t max_seq);
  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

  const start::common::FaultHooks* hooks() const { return &hooks_; }
  int64_t match_ns(int64_t seq) const { return At(match_, seq); }
  int64_t embed_ns(int64_t seq) const { return At(embed_, seq); }
  int64_t upsert_ns(int64_t seq) const { return At(upsert_, seq); }
  Round round(int64_t round);

 private:
  static int64_t At(const std::vector<std::atomic<int64_t>>& v, int64_t seq);
  void Stamp(const char* stage, int64_t seq);

  std::vector<std::atomic<int64_t>> match_, embed_, upsert_;
  std::mutex mu_;
  std::map<int64_t, Round> rounds_;
  start::common::FaultHooks hooks_;
};

/// Per-layer pipeline metrics of one streamed item set: stage waits from
/// the stage clock (match service taken from the replay in `match_ms`),
/// StreamPipeline::stats() service times and counters, and the traj layer.
struct PipelineItem {
  int64_t seq = -1;        ///< -1 when the push was not accepted.
  int64_t accepted_ns = 0; ///< Push returned.
  double match_ms = -1.0;  ///< Replayed MatchTrajectory time (-1: not replayed).
};
void ReportPipeline(const StageClock& clock,
                    const std::vector<PipelineItem>& items,
                    const start::serve::PipelineStats& stats,
                    int64_t queue_depth_max, Report* report);

/// Replays HmmMapMatcher::MatchTrajectory on every `stride`-th item and
/// reports the traj layer; fills items[i].match_ms for the replayed ones.
void ReplayMatching(const start::roadnet::RoadNetwork& net,
                    const start::serve::StreamConfig& config,
                    const std::vector<start::serve::StreamItem>& stream,
                    int64_t stride, std::vector<PipelineItem>* items,
                    Report* report);

/// hnsw.rows / hnsw.dead_fraction of the serving index, and hnsw.query_us
/// from the request spans.
void ReportIndex(const start::serve::IndexInterface& index, double dead,
                 const std::vector<trace::Span>& spans, Report* report);

/// trace.overhead: closed-loop search rate with spans off over spans on,
/// minus one, over eight 0.4 s bursts in off-on-on-off order.
double MeasureTraceOverhead(
    const QueryEngine& engine,
    const std::function<const start::traj::Trajectory&(int64_t)>& query);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
