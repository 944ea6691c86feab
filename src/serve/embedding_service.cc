#include "serve/embedding_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/cpu.h"
#include "data/batch.h"

namespace start::serve {

namespace {
/// How many max-size batches one worker may drain per dispatch. Draining
/// more than one batch's worth is what gives data::BucketBatchPlan several
/// batches to route lengths into under burst load; bounding it keeps other
/// workers fed.
constexpr int64_t kBurstBatches = 4;
}  // namespace

EmbeddingService::EmbeddingService(const FrozenEncoder* encoder,
                                   const ServiceConfig& config)
    : encoder_(encoder),
      config_(config),
      parallelism_(std::min(config.num_workers, common::UsableCpuCount())) {
  START_CHECK(encoder_ != nullptr);
  START_CHECK_GT(config_.max_batch_size, 0);
  START_CHECK_GT(config_.max_queue_depth, 0);
  START_CHECK_GE(config_.batch_deadline_us, 0);
  START_CHECK_GT(config_.num_workers, 0);
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

EmbeddingService::~EmbeddingService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_arrival_.notify_all();
  cv_coalesce_.notify_all();
  cv_space_.notify_all();
  // Workers drain every queued request before exiting, so no promise is
  // left broken.
  for (auto& worker : workers_) worker.join();
}

common::Result<std::future<EmbeddingRow>> EmbeddingService::Encode(
    const traj::Trajectory& trajectory, eval::EncodeMode mode) {
  START_RETURN_IF_ERROR(encoder_->Validate(trajectory));
  Request request;
  request.trajectory = trajectory;  // owned copy: caller's may go away
  request.mode = mode;
  std::future<EmbeddingRow> future = request.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [&] {
      return stopping_ ||
             static_cast<int64_t>(queue_.size()) < config_.max_queue_depth;
    });
    if (stopping_) {
      return common::Status::FailedPrecondition(
          "EmbeddingService is shutting down");
    }
    queue_.push_back(std::move(request));
    // While a worker coalesces, the queue is its to gather: wake it once the
    // batch is full, and leave the idle workers asleep.
    if (!coalescing_) {
      cv_arrival_.notify_one();
    } else if (static_cast<int64_t>(queue_.size()) >= config_.max_batch_size) {
      cv_coalesce_.notify_one();
    }
  }
  return future;
}

common::Result<std::vector<float>> EmbeddingService::EncodeSync(
    const traj::Trajectory& trajectory, eval::EncodeMode mode) {
  START_ASSIGN_OR_RETURN(std::future<EmbeddingRow> future,
                         Encode(trajectory, mode));
  return future.get().ToVector();
}

ServiceStats EmbeddingService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void EmbeddingService::WorkerLoop() {
  // The coalescing rule is documented at ServiceConfig::batch_deadline_us.
  const auto must_coalesce = [this] { return encoding_ + 1 >= parallelism_; };
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_arrival_.wait(lock, [&] {
      return stopping_ || (!queue_.empty() && !coalescing_);
    });
    if (queue_.empty()) return;  // stopping, and everything is drained
    if (config_.batch_deadline_us > 0 && !stopping_ && must_coalesce()) {
      coalescing_ = true;
      cv_coalesce_.wait_for(
          lock, std::chrono::microseconds(config_.batch_deadline_us), [&] {
            return stopping_ || !must_coalesce() ||
                   static_cast<int64_t>(queue_.size()) >=
                       config_.max_batch_size;
          });
      coalescing_ = false;
    }
    const int64_t take =
        std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                          kBurstBatches * config_.max_batch_size);
    std::vector<Request> burst;
    burst.reserve(static_cast<size_t>(take));
    for (int64_t i = 0; i < take; ++i) {
      burst.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++encoding_;
    // Requests left over, or queued while this worker coalesced, go to the
    // next idle worker.
    if (!queue_.empty()) cv_arrival_.notify_one();
    cv_space_.notify_all();
    lock.unlock();
    EncodeBurst(&burst);
    lock.lock();
    --encoding_;
    if (coalescing_) cv_coalesce_.notify_one();
  }
}

void EmbeddingService::EncodeBurst(std::vector<Request>* burst) {
  // Batches must be mode-homogeneous (one EncodeBatch call per mode), and
  // within a mode the burst is split into length-homogeneous batches so a
  // short errand does not get padded to a cross-town commute's length.
  for (const eval::EncodeMode mode :
       {eval::EncodeMode::kFull, eval::EncodeMode::kDepartureOnly}) {
    std::vector<int64_t> order;   // burst indices with this mode
    std::vector<int64_t> lengths;  // indexed by burst position
    lengths.reserve(burst->size());
    for (size_t i = 0; i < burst->size(); ++i) {
      lengths.push_back((*burst)[i].trajectory.size());
      if ((*burst)[i].mode == mode) order.push_back(static_cast<int64_t>(i));
    }
    if (order.empty()) continue;
    const auto plan = data::BucketBatchPlan(
        lengths, order, config_.max_batch_size, eval::kEmbedBucketWidth);
    for (const auto& step : plan) {
      std::vector<const traj::Trajectory*> batch;
      batch.reserve(step.size());
      int64_t real = 0, longest = 0;
      for (const int64_t i : step) {
        auto& r = (*burst)[static_cast<size_t>(i)];
        batch.push_back(&r.trajectory);
        real += r.trajectory.size();
        longest = std::max(longest, r.trajectory.size());
      }
      const tensor::Tensor reps = encoder_->EncodeBatch(batch, mode);
      {
        // Count the batch before resolving its futures, so a client that has
        // joined on all its requests sees fully-updated counters.
        std::lock_guard<std::mutex> stats_lock(mu_);
        stats_.requests += static_cast<int64_t>(step.size());
        stats_.batches += 1;
        stats_.real_tokens += real;
        stats_.padded_tokens += longest * static_cast<int64_t>(step.size());
      }
      for (size_t row = 0; row < step.size(); ++row) {
        (*burst)[static_cast<size_t>(step[row])].promise.set_value(
            EmbeddingRow(reps, static_cast<int64_t>(row)));
      }
    }
  }
}

}  // namespace start::serve
