#ifndef START_SERVE_EMBEDDING_SERVICE_H_
#define START_SERVE_EMBEDDING_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/frozen_encoder.h"

namespace start::serve {

/// \brief Zero-copy handle to one embedding row inside a coalesced batch
/// result.
///
/// All rows of a micro-batch share the batch's dense [B, dim] tensor
/// storage; a row is (storage handle, row offset). Copy freely — copies
/// share storage. The storage lives until the last row referring to it is
/// destroyed.
class EmbeddingRow {
 public:
  EmbeddingRow() = default;
  EmbeddingRow(tensor::Tensor batch, int64_t row)
      : batch_(std::move(batch)), row_(row) {}

  bool defined() const { return batch_.defined(); }
  int64_t dim() const { return batch_.dim(1); }
  /// Dense [dim] floats; valid as long as any row of the batch is alive.
  const float* data() const { return batch_.data() + row_ * dim(); }
  std::vector<float> ToVector() const {
    return std::vector<float>(data(), data() + dim());
  }

 private:
  tensor::Tensor batch_;  ///< Dense [B, dim] batch result (shared storage).
  int64_t row_ = 0;
};

/// Knobs of the micro-batching queue.
struct ServiceConfig {
  /// Largest coalesced batch handed to the engine at once.
  int64_t max_batch_size = 32;
  /// Backpressure bound: Encode blocks while this many requests are queued.
  int64_t max_queue_depth = 1024;
  /// How long the last free worker waits for more requests to coalesce
  /// once the queue is non-empty, before encoding a partial batch.
  ///
  /// Requests are the only parallelism on the serving path (kernels are
  /// serial), so a worker waits only when the next request could not start
  /// at once anyway. Let P = min(num_workers, common::UsableCpuCount()),
  /// measured at construction. A worker that wakes to work encodes what is
  /// queued now if, counting itself, fewer than P workers are then encoding:
  /// another worker and another CPU remain for the next arrival. Otherwise
  /// it becomes the one coalescing worker and waits until this deadline
  /// passes, `max_batch_size` requests are pending, or an encoding worker
  /// finishes and the condition holds again; meanwhile the other workers
  /// leave the queue to it. With P = 1 (one worker, or one CPU) every batch
  /// waits the full deadline. 0 = never wait (lowest latency, no coalescing
  /// beyond what is already queued).
  int64_t batch_deadline_us = 200;
  /// Encode worker threads (each drains and encodes whole bursts).
  int num_workers = 1;
};

/// Serving counters (monotonic since construction).
struct ServiceStats {
  int64_t requests = 0;          ///< Requests fulfilled.
  int64_t batches = 0;           ///< Engine EncodeBatch calls made.
  int64_t padded_tokens = 0;     ///< Sum of batch_rows * batch_max_len.
  int64_t real_tokens = 0;       ///< Sum of trajectory lengths encoded.

  /// Mean requests per engine call — the micro-batching win.
  double coalescing() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
  /// Fraction of encoded token slots carrying real data (length bucketing).
  double padding_efficiency() const {
    return padded_tokens == 0 ? 1.0
                              : static_cast<double>(real_tokens) /
                                    static_cast<double>(padded_tokens);
  }
};

/// \brief Concurrent embedding inference: many client threads submit single
/// trajectories, a bounded queue coalesces them into length-bucketed
/// micro-batches, and worker threads run the frozen engine.
///
/// Dataflow: Encode() validates the request, copies the trajectory into the
/// queue, and returns a future. A worker drains the queue, splits the burst
/// into length-homogeneous batches via data::BucketBatchPlan (bucket width
/// eval::kEmbedBucketWidth), encodes each through FrozenEncoder::EncodeBatch,
/// and fulfils every promise with a zero-copy row of the batch result.
///
/// When a worker waits for company is documented at
/// ServiceConfig::batch_deadline_us.
///
/// Thread-safety contract:
///  - Encode() and stats() may be called from any number of threads.
///  - Results are bitwise independent of coalescing: whatever batch a
///    request lands in, its embedding row is identical to a serial
///    FrozenEncoder::EncodeBatch({t}) call (padding invariance of the
///    frozen engine; asserted under TSan by serve_concurrency_test).
///  - The destructor stops accepting new requests, drains every queued
///    request (their futures complete), then joins the workers.
///  - A future's EmbeddingRow stays valid after the service is destroyed.
///
/// Verified race-free under ThreadSanitizer (serve_concurrency_test in the
/// tsan CI job).
class EmbeddingService {
 public:
  /// `encoder` must outlive the service.
  explicit EmbeddingService(const FrozenEncoder* encoder,
                            const ServiceConfig& config = {});
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// \brief Submits one trajectory for embedding; the future resolves to its
  /// [dim] row once a worker has encoded the batch it was coalesced into.
  ///
  /// Validation errors (empty / too-long trajectory, out-of-range road ids)
  /// and submission after shutdown are returned synchronously as a Status.
  /// Blocks while the queue is at max_queue_depth (backpressure).
  common::Result<std::future<EmbeddingRow>> Encode(
      const traj::Trajectory& trajectory,
      eval::EncodeMode mode = eval::EncodeMode::kFull);

  /// Blocking convenience wrapper: submit and wait for the row.
  common::Result<std::vector<float>> EncodeSync(
      const traj::Trajectory& trajectory,
      eval::EncodeMode mode = eval::EncodeMode::kFull);

  /// Snapshot of the serving counters.
  ServiceStats stats() const;

  const FrozenEncoder* encoder() const { return encoder_; }

 private:
  struct Request {
    traj::Trajectory trajectory;
    eval::EncodeMode mode;
    std::promise<EmbeddingRow> promise;
  };

  void WorkerLoop();
  /// Encodes a burst of drained requests (mutex NOT held).
  void EncodeBurst(std::vector<Request>* burst);

  const FrozenEncoder* encoder_;
  const ServiceConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_arrival_;  ///< Queue gained a request / stopping.
  std::condition_variable cv_coalesce_;  ///< Wakes the coalescing worker.
  std::condition_variable cv_space_;    ///< Queue has room again.
  std::deque<Request> queue_;
  bool stopping_ = false;
  /// Workers that may encode at once: min(num_workers, usable CPUs).
  const int parallelism_;
  int encoding_ = 0;         ///< Workers holding a burst.
  bool coalescing_ = false;  ///< A worker is waiting out the deadline.
  ServiceStats stats_;

  std::vector<std::thread> workers_;  ///< One WorkerLoop each.
};

}  // namespace start::serve

#endif  // START_SERVE_EMBEDDING_SERVICE_H_
