#include "serve/stream_pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "common/check.h"

namespace start::serve {

namespace {

constexpr int64_t kEmbedQueueDepth = 128;
/// First retry sleep; doubles per attempt.
constexpr int64_t kRetryBackoffUs = 200;
/// Matched trajectories shorter than this are failed (matching noise).
constexpr int64_t kMinRoads = 2;

}  // namespace

void StreamPipeline::LatencyRing::Record(double value) {
  std::lock_guard<std::mutex> lock(mu);
  if (ms.size() < kCapacity) {
    ms.push_back(value);
  } else {
    ms[next] = value;
  }
  next = (next + 1) % kCapacity;
}

void StreamPipeline::LatencyRing::Percentiles(double* p50, double* p95) const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu);
    sorted = ms;
  }
  *p50 = 0.0;
  *p95 = 0.0;
  if (sorted.empty()) return;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    const size_t i = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[i];
  };
  *p50 = at(0.50);
  *p95 = at(0.95);
}

common::Status StreamPipeline::ValidateEngine(const EngineBundle& engine) {
  if (engine.encoder == nullptr) {
    return common::Status::InvalidArgument("EngineBundle: null encoder");
  }
  if (engine.index == nullptr) {
    return common::Status::InvalidArgument("EngineBundle: null index");
  }
  if (engine.index->dim() != engine.encoder->dim()) {
    return common::Status::InvalidArgument(
        "EngineBundle: index/encoder dim mismatch");
  }
  if (engine.drift != nullptr && engine.drift->dim() != engine.encoder->dim()) {
    return common::Status::InvalidArgument(
        "EngineBundle: drift-monitor/encoder dim mismatch");
  }
  return common::Status::OK();
}

std::shared_ptr<StreamPipeline::Lease> StreamPipeline::MakeLease(
    EngineBundle engine, int64_t epoch) const {
  auto lease = std::make_shared<Lease>();
  lease->service = std::make_unique<EmbeddingService>(engine.encoder.get(),
                                                      config_.service);
  lease->engine = std::move(engine);
  lease->epoch = epoch;
  return lease;
}

StreamPipeline::StreamPipeline(EngineBundle engine,
                               const roadnet::RoadNetwork* net,
                               const StreamConfig& config,
                               const common::FaultHooks* hooks)
    : net_(net),
      config_(config),
      hooks_(hooks != nullptr ? hooks : &common::FaultHooks::Default()) {
  START_CHECK(net_ != nullptr);
  {
    const common::Status st = ValidateEngine(engine);
    START_CHECK_MSG(st.ok(), st.message());
  }
  START_CHECK_GT(config_.match_workers, 0);
  START_CHECK_GT(config_.embed_workers, 0);
  START_CHECK_GT(config_.match_queue_depth, 0);
  START_CHECK_GT(config_.upsert_queue_depth, 0);
  START_CHECK_GT(config_.max_in_flight, 0);
  START_CHECK_GE(config_.max_retries, 0);

  lease_ = MakeLease(std::move(engine), /*epoch=*/0);
  active_match_.store(config_.match_workers, std::memory_order_relaxed);
  active_embed_.store(config_.embed_workers, std::memory_order_relaxed);
  threads_.reserve(
      static_cast<size_t>(config_.match_workers + config_.embed_workers + 1));
  for (int i = 0; i < config_.match_workers; ++i) {
    threads_.emplace_back([this] { MatchLoop(); });
  }
  for (int i = 0; i < config_.embed_workers; ++i) {
    threads_.emplace_back([this] { EmbedLoop(); });
  }
  threads_.emplace_back([this] { FinalizeLoop(); });
}

StreamPipeline::~StreamPipeline() { Drain(); }

void StreamPipeline::SetOnIngested(IngestedCallback callback) {
  std::lock_guard<std::mutex> lock(match_q_.mu);
  START_CHECK_EQ(next_seq_, 0);  // install before the first Push()
  on_ingested_ = std::move(callback);
}

common::Status StreamPipeline::Push(StreamItem item) {
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (item.gps.points.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return common::Status::InvalidArgument(
        "StreamPipeline::Push: empty GPS trajectory");
  }
  std::unique_lock<std::mutex> lock(match_q_.mu);
  const auto has_room = [this] {
    return static_cast<int64_t>(match_q_.q.size()) < config_.match_queue_depth &&
           in_flight_ < config_.max_in_flight;
  };
  if (config_.overflow == OverflowPolicy::kBlock) {
    match_q_.cv_space.wait(lock, [&] { return !accepting_ || has_room(); });
  }
  if (!accepting_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return common::Status::FailedPrecondition(
        "StreamPipeline::Push: pipeline is draining");
  }
  if (!has_room()) {  // kDropNewest: shed at the ingress door
    match_.dropped.fetch_add(1, std::memory_order_relaxed);
    return common::Status::OK();
  }
  Work w;
  w.seq = next_seq_++;
  w.id = item.id;
  w.lease = lease_;  // pin the serving engine as of this seq
  w.gps = std::move(item.gps);
  ++in_flight_;
  accepted_.fetch_add(1, std::memory_order_relaxed);
  match_q_.q.push_back(std::move(w));
  lock.unlock();
  match_q_.cv_item.notify_one();
  return common::Status::OK();
}

void StreamPipeline::Flush() {
  std::unique_lock<std::mutex> lock(match_q_.mu);
  flush_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool StreamPipeline::WaitQuiescent(int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(match_q_.mu);
  return flush_cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                            [this] { return in_flight_ == 0; });
}

common::Status StreamPipeline::SwapEngine(EngineBundle engine) {
  common::Status st = ValidateEngine(engine);
  if (!st.ok()) return st;
  std::lock_guard<std::mutex> swap_serial(swap_mu_);
  int64_t next_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(match_q_.mu);
    if (!accepting_) {
      return common::Status::FailedPrecondition(
          "StreamPipeline::SwapEngine: pipeline is draining");
    }
    if (engine.encoder->dim() != lease_->engine.encoder->dim()) {
      return common::Status::InvalidArgument(
          "StreamPipeline::SwapEngine: new engine dim differs from serving "
          "dim");
    }
    if (in_flight_ != 0) {
      return common::Status::FailedPrecondition(
          "StreamPipeline::SwapEngine: items in flight");
    }
    next_epoch = lease_->epoch + 1;
  }
  // Build the lease (the EmbeddingService spins up worker threads) outside
  // the ingress lock; the swap itself is a pointer exchange.
  std::shared_ptr<Lease> fresh = MakeLease(std::move(engine), next_epoch);
  std::shared_ptr<Lease> retired;
  {
    std::lock_guard<std::mutex> lock(match_q_.mu);
    if (!accepting_) {  // raced with Drain between the two lockings
      return common::Status::FailedPrecondition(
          "StreamPipeline::SwapEngine: pipeline is draining");
    }
    if (in_flight_ != 0) {  // an item was accepted while the lease was built
      return common::Status::FailedPrecondition(
          "StreamPipeline::SwapEngine: items in flight");
    }
    retired = std::move(lease_);
    lease_ = std::move(fresh);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return common::Status::OK();  // releases `retired` and its service
}

void StreamPipeline::Drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (threads_.empty()) return;  // already drained
  {
    std::lock_guard<std::mutex> lock(match_q_.mu);
    accepting_ = false;
    match_q_.closed = true;
  }
  match_q_.cv_item.notify_all();
  match_q_.cv_space.notify_all();
  // Each stage exits once its upstream has closed and drained.
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  // No swap lands once accepting_ is false, so lease_ is final; its service
  // has no caller left.
  lease_->service.reset();
}

common::Status StreamPipeline::RunWithRetry(const char* stage, int64_t seq,
                                            StageCounters* counters) {
  common::Status st = hooks_->BeforeStage(stage, seq);
  int attempt = 0;
  while (!st.ok() && st.code() != common::StatusCode::kInvalidArgument &&
         attempt < config_.max_retries) {
    counters->retried.fetch_add(1, std::memory_order_relaxed);
    hooks_->SleepUs(kRetryBackoffUs << attempt);
    ++attempt;
    st = hooks_->BeforeStage(stage, seq);
  }
  return st;
}

bool StreamPipeline::PopWork(WorkQueue* q, Work* out) {
  std::unique_lock<std::mutex> lock(q->mu);
  q->cv_item.wait(lock, [q] { return q->closed || !q->q.empty(); });
  if (q->q.empty()) return false;  // closed and drained
  *out = std::move(q->q.front());
  q->q.pop_front();
  lock.unlock();
  q->cv_space.notify_one();
  return true;
}

bool StreamPipeline::PushWork(WorkQueue* q, int64_t depth, Work w,
                              StageCounters* door) {
  std::unique_lock<std::mutex> lock(q->mu);
  if (config_.overflow == OverflowPolicy::kBlock) {
    q->cv_space.wait(
        lock, [&] { return static_cast<int64_t>(q->q.size()) < depth; });
  } else if (static_cast<int64_t>(q->q.size()) >= depth) {
    door->dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  q->q.push_back(std::move(w));
  lock.unlock();
  q->cv_item.notify_one();
  return true;
}

void StreamPipeline::EmitOutcome(Outcome o) {
  std::unique_lock<std::mutex> lock(outcome_q_.mu);
  if (o.kind == OutcomeKind::kIngest) {
    if (config_.overflow == OverflowPolicy::kBlock) {
      // The queue never closes while an embed worker is alive, and the
      // finalizer keeps consuming, so this wait always makes progress.
      outcome_q_.cv_space.wait(lock, [this] {
        return outcome_q_.payload < config_.upsert_queue_depth;
      });
    } else if (outcome_q_.payload >= config_.upsert_queue_depth) {
      // Shed the payload but keep the marker: the finalizer still needs
      // exactly one outcome per seq for ordering and accounting.
      o.kind = OutcomeKind::kDropped;
      o.lease.reset();
      o.traj = traj::Trajectory();
      o.row = EmbeddingRow();
      upsert_.dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (o.kind == OutcomeKind::kIngest) ++outcome_q_.payload;
  outcome_q_.q.push_back(std::move(o));
  lock.unlock();
  outcome_q_.cv_item.notify_one();
}

void StreamPipeline::MatchLoop() {
  const traj::HmmMapMatcher matcher(net_, config_.matcher);
  Work w;
  while (PopWork(&match_q_, &w)) {
    const int64_t t0 = hooks_->NowUs();
    common::Status st = RunWithRetry("match", w.seq, &match_);
    if (st.ok()) {
      w.traj = matcher.MatchTrajectory(w.gps);
      w.gps.points.clear();
      w.gps.points.shrink_to_fit();
      if (w.traj.size() < kMinRoads) {
        st = common::Status::InvalidArgument(
            "map matching failed or matched too few roads");
      } else {
        st = w.lease->engine.encoder->Validate(w.traj);
      }
    }
    match_lat_.Record(static_cast<double>(hooks_->NowUs() - t0) / 1000.0);
    if (!st.ok()) {
      match_.failed.fetch_add(1, std::memory_order_relaxed);
      Outcome o;
      o.seq = w.seq;
      o.id = w.id;
      o.kind = OutcomeKind::kFailed;
      EmitOutcome(std::move(o));
      continue;
    }
    match_.completed.fetch_add(1, std::memory_order_relaxed);
    const int64_t seq = w.seq;
    const int64_t id = w.id;
    if (!PushWork(&embed_q_, kEmbedQueueDepth, std::move(w),
                  &embed_)) {
      Outcome o;
      o.seq = seq;
      o.id = id;
      o.kind = OutcomeKind::kDropped;
      EmitOutcome(std::move(o));
    }
  }
  // Last match worker out closes the embed stage.
  if (active_match_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(embed_q_.mu);
      embed_q_.closed = true;
    }
    embed_q_.cv_item.notify_all();
  }
}

void StreamPipeline::EmbedLoop() {
  Work w;
  while (PopWork(&embed_q_, &w)) {
    const int64_t t0 = hooks_->NowUs();
    common::Status st = RunWithRetry("embed", w.seq, &embed_);
    EmbeddingRow row;
    if (st.ok()) {
      auto future = w.lease->service->Encode(w.traj);
      if (!future.ok()) {
        st = future.status();
      } else {
        row = future.value().get();
      }
    }
    embed_lat_.Record(static_cast<double>(hooks_->NowUs() - t0) / 1000.0);
    if (!st.ok()) {
      embed_.failed.fetch_add(1, std::memory_order_relaxed);
      Outcome o;
      o.seq = w.seq;
      o.id = w.id;
      o.kind = OutcomeKind::kFailed;
      EmitOutcome(std::move(o));
      continue;
    }
    embed_.completed.fetch_add(1, std::memory_order_relaxed);
    Outcome o;
    o.seq = w.seq;
    o.id = w.id;
    o.kind = OutcomeKind::kIngest;
    o.lease = std::move(w.lease);
    o.traj = std::move(w.traj);
    o.row = std::move(row);
    EmitOutcome(std::move(o));
  }
  // Last embed worker out closes the finalizer's channel.
  if (active_embed_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(outcome_q_.mu);
      outcome_q_.closed = true;
    }
    outcome_q_.cv_item.notify_all();
  }
}

void StreamPipeline::ProcessOutcome(Outcome* o) {
  if (o->kind != OutcomeKind::kIngest) return;  // counted at the dropping door
  const EngineBundle& engine = o->lease->engine;
  const int64_t t0 = hooks_->NowUs();
  common::Status st = RunWithRetry("upsert", o->seq, &upsert_);
  if (st.ok()) st = engine.index->Add(o->id, o->row.data(), o->row.dim());
  upsert_lat_.Record(static_cast<double>(hooks_->NowUs() - t0) / 1000.0);
  if (!st.ok()) {
    upsert_.failed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (engine.drift != nullptr) {
    engine.drift->Observe(o->row.data(), o->row.dim());
  }
  if (on_ingested_) on_ingested_(o->id, o->traj, o->row);
  upsert_.completed.fetch_add(1, std::memory_order_relaxed);
}

void StreamPipeline::FinalizeLoop() {
  // Out-of-order completions park here until their predecessors arrive;
  // bounded by max_in_flight (a seq can only be pending if it is in flight).
  std::map<int64_t, Outcome> pending;
  int64_t next = 0;
  for (;;) {
    Outcome o;
    {
      std::unique_lock<std::mutex> lock(outcome_q_.mu);
      outcome_q_.cv_item.wait(
          lock, [this] { return outcome_q_.closed || !outcome_q_.q.empty(); });
      if (outcome_q_.q.empty()) break;  // closed and drained
      o = std::move(outcome_q_.q.front());
      outcome_q_.q.pop_front();
      // Payload credit: under kBlock, return it at pop — holding it while
      // the outcome is parked out-of-order would deadlock a blocked embed
      // worker that carries the next-in-order seq. Under kDropNewest nobody
      // blocks, so credit is held until the item is actually finalized:
      // "queue full" then means the finalizer is genuinely behind, which is
      // exactly when shedding should kick in (and it makes the shed point
      // deterministic for the fault-injection tests).
      if (o.kind == OutcomeKind::kIngest &&
          config_.overflow == OverflowPolicy::kBlock) {
        --outcome_q_.payload;
        outcome_q_.cv_space.notify_one();
      }
    }
    pending.emplace(o.seq, std::move(o));
    for (auto it = pending.find(next); it != pending.end();
         it = pending.find(next)) {
      const OutcomeKind kind = it->second.kind;
      ProcessOutcome(&it->second);
      pending.erase(it);
      ++next;
      if (kind == OutcomeKind::kIngest &&
          config_.overflow == OverflowPolicy::kDropNewest) {
        std::lock_guard<std::mutex> lock(outcome_q_.mu);
        --outcome_q_.payload;
      }
      {
        std::lock_guard<std::mutex> lock(match_q_.mu);
        --in_flight_;
        match_q_.cv_space.notify_one();
        flush_cv_.notify_all();
      }
    }
  }
  // Every accepted seq emits exactly one outcome before its stage worker
  // exits, and outcome_q_ only closes after all of them have — so nothing
  // can be left parked.
  START_CHECK(pending.empty());
}

PipelineStats StreamPipeline::stats() const {
  PipelineStats s;
  s.pushed = pushed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  const auto fill = [](const StageCounters& c, StageStats* out) {
    out->completed = c.completed.load(std::memory_order_relaxed);
    out->failed = c.failed.load(std::memory_order_relaxed);
    out->dropped = c.dropped.load(std::memory_order_relaxed);
    out->retried = c.retried.load(std::memory_order_relaxed);
  };
  fill(match_, &s.match);
  fill(embed_, &s.embed);
  fill(upsert_, &s.upsert);
  match_lat_.Percentiles(&s.match.p50_ms, &s.match.p95_ms);
  embed_lat_.Percentiles(&s.embed.p50_ms, &s.embed.p95_ms);
  upsert_lat_.Percentiles(&s.upsert.p50_ms, &s.upsert.p95_ms);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(match_q_.mu);
    s.match.queue_depth = static_cast<int64_t>(match_q_.q.size());
    s.in_flight = in_flight_;
    s.epoch = lease_->epoch;
  }
  {
    std::lock_guard<std::mutex> lock(embed_q_.mu);
    s.embed.queue_depth = static_cast<int64_t>(embed_q_.q.size());
  }
  {
    std::lock_guard<std::mutex> lock(outcome_q_.mu);
    s.upsert.queue_depth = outcome_q_.payload;
  }
  return s;
}

EngineBundle StreamPipeline::engine() const {
  std::lock_guard<std::mutex> lock(match_q_.mu);
  return lease_->engine;
}

int64_t StreamPipeline::epoch() const {
  std::lock_guard<std::mutex> lock(match_q_.mu);
  return lease_->epoch;
}

}  // namespace start::serve
