#include "serve/adaptation.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "core/checkpoint.h"
#include "core/retrain.h"
#include "serve/frozen_encoder.h"

namespace start::serve {

namespace {

/// Persisted-index sidecar of a checkpoint artifact.
std::string IndexPathFor(const std::string& checkpoint) {
  return checkpoint + ".index";
}

/// Poll slice of the quiescent-swap loop: long enough to not spin, short
/// enough that shutdown and the swap deadline stay responsive.
constexpr int64_t kSwapPollUs = 100'000;

}  // namespace

const char* AdaptationStateName(AdaptationState state) {
  switch (state) {
    case AdaptationState::kServing:
      return "serving";
    case AdaptationState::kRetraining:
      return "retraining";
    case AdaptationState::kSwapping:
      return "swapping";
  }
  return "unknown";
}

common::Result<std::unique_ptr<AdaptationController>>
AdaptationController::Create(const AdaptationConfig& config,
                             const roadnet::RoadNetwork* net,
                             const roadnet::TransferProbability* transfer,
                             const traj::TrafficModel* traffic,
                             const common::FaultHooks* hooks) {
  if (config.base_checkpoint.empty() || config.artifact_dir.empty()) {
    return common::Status::InvalidArgument(
        "AdaptationController: base_checkpoint / artifact_dir missing");
  }
  if (config.corpus_capacity <= 0 || config.min_retrain_corpus <= 0) {
    return common::Status::InvalidArgument(
        "AdaptationController: corpus bounds must be positive");
  }
  if (config.compact_dead_fraction <= 0.0 ||
      config.compact_dead_fraction > 1.0) {
    return common::Status::InvalidArgument(
        "AdaptationController: compact_dead_fraction must be in (0, 1]");
  }
  std::unique_ptr<AdaptationController> controller(
      new AdaptationController(config, net, transfer, traffic, hooks));
  START_RETURN_IF_ERROR(controller->Boot());
  controller->worker_ =
      std::thread(&AdaptationController::WorkerLoop, controller.get());
  return controller;
}

AdaptationController::AdaptationController(
    const AdaptationConfig& config, const roadnet::RoadNetwork* net,
    const roadnet::TransferProbability* transfer,
    const traj::TrafficModel* traffic, const common::FaultHooks* hooks)
    : config_(config),
      net_(net),
      transfer_(transfer),
      traffic_(traffic),
      hooks_(hooks != nullptr ? hooks : &common::FaultHooks::Default()) {
  START_CHECK(net_ != nullptr);
  START_CHECK(transfer_ != nullptr);
  START_CHECK(traffic_ != nullptr);
}

AdaptationController::~AdaptationController() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  if (pipeline_ != nullptr) pipeline_->Drain();
}

common::Status AdaptationController::Boot() {
  auto encoder = FrozenEncoder::Load(config_.base_checkpoint, config_.model,
                                     net_, transfer_);
  if (!encoder.ok()) return encoder.status();
  encoder_ = std::shared_ptr<const FrozenEncoder>(std::move(encoder.value()));

  // Persisted index: a restart loads the saved graph instead of
  // re-embedding; a corrupt or mismatched sidecar is recovered from by
  // starting empty (the stream refills it) — never fatal.
  const std::string index_path = IndexPathFor(config_.base_checkpoint);
  if (core::CheckpointExists(index_path)) {
    auto loaded = HnswIndex::Load(index_path);
    if (loaded.ok() && loaded.value()->dim() == encoder_->dim()) {
      hnsw_ = std::move(loaded.value());
      stats_.index_restored = 1;
    } else {
      stats_.index_recovered = 1;
      stats_.last_error =
          "persisted index rejected: " +
          (loaded.ok() ? std::string("dim mismatch") : loaded.status().ToString());
    }
  }
  if (hnsw_ == nullptr) {
    hnsw_ = std::make_shared<HnswIndex>(encoder_->dim(), config_.index);
  }
  serving_checkpoint_ = config_.base_checkpoint;

  EngineBundle bundle;
  bundle.encoder = encoder_;
  bundle.index = hnsw_;
  bundle.drift = MakeDriftMonitor();
  pipeline_ = std::make_unique<StreamPipeline>(std::move(bundle), net_,
                                               config_.stream, hooks_);
  pipeline_->SetOnIngested(
      [this](int64_t id, const traj::Trajectory& traj, const EmbeddingRow&) {
        OnIngested(id, traj);
      });
  return common::Status::OK();
}

std::shared_ptr<DriftMonitor> AdaptationController::MakeDriftMonitor() {
  auto monitor = std::make_shared<DriftMonitor>(config_.model.d, config_.drift);
  monitor->SetOnDrift([this](const DriftWindowStats&) { OnDrift(); });
  return monitor;
}

common::Status AdaptationController::Push(StreamItem item) {
  return pipeline_->Push(std::move(item));
}

void AdaptationController::Flush() { pipeline_->Flush(); }

common::Status AdaptationController::Remove(int64_t id) {
  std::shared_ptr<HnswIndex> index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = hnsw_;
  }
  const common::Status st = index->Remove(id);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    corpus_.erase(id);
    if (st.ok() && !compact_pending_ &&
        index->DeadFraction() >= config_.compact_dead_fraction) {
      compact_pending_ = true;
      schedule = true;
    }
  }
  if (schedule) cv_.notify_all();
  return st;
}

void AdaptationController::TriggerRetrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    retrain_pending_ = true;
  }
  cv_.notify_all();
}

bool AdaptationController::WaitUntilIdle(int64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [this] {
    return !retrain_pending_ && !compact_pending_ && !round_active_;
  });
}

std::string AdaptationController::serving_checkpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serving_checkpoint_;
}

AdaptationStats AdaptationController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdaptationStats s = stats_;
  s.corpus_size = static_cast<int64_t>(corpus_.size());
  return s;
}

void AdaptationController::OnIngested(int64_t id,
                                      const traj::Trajectory& traj) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted = corpus_.emplace(id, traj).second;
  if (inserted) corpus_order_.push_back(id);
  while (static_cast<int64_t>(corpus_.size()) > config_.corpus_capacity &&
         !corpus_order_.empty()) {
    // Front ids already gone from the map (Remove()) just fall off.
    corpus_.erase(corpus_order_.front());
    corpus_order_.pop_front();
  }
}

void AdaptationController::OnDrift() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.drift_triggers;
    retrain_pending_ = true;
  }
  cv_.notify_all();
}

void AdaptationController::WorkerLoop() {
  for (;;) {
    bool retrain = false;
    int64_t round = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || retrain_pending_ || compact_pending_;
      });
      if (stop_) return;
      if (retrain_pending_) {
        retrain_pending_ = false;
        retrain = true;
        // The generation this round would produce.
        round = stats_.generation + 1;
      } else {
        compact_pending_ = false;
        round = stats_.generation;  // compaction serves the same generation
      }
      round_active_ = true;
    }
    if (retrain) {
      RunRetrainRound(round);
    } else {
      RunCompactionRound(round);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      round_active_ = false;
      stats_.state = AdaptationState::kServing;
    }
    cv_.notify_all();
  }
}

void AdaptationController::FailRound(const std::string& what,
                                     const common::Status& st) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.rounds_failed;
  stats_.last_error = what + ": " + st.ToString();
  stats_.state = AdaptationState::kServing;
}

common::Status AdaptationController::CatchUp(const FrozenEncoder& encoder,
                                             HnswIndex* index) {
  std::vector<int64_t> ids;
  std::vector<traj::Trajectory> trajs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int64_t id : corpus_order_) {
      auto it = corpus_.find(id);
      if (it == corpus_.end() || index->Contains(id)) continue;
      ids.push_back(id);
      trajs.push_back(it->second);
    }
  }
  if (ids.empty()) return common::Status::OK();
  const std::vector<float> rows =
      encoder.EmbedAll(trajs, eval::EncodeMode::kFull);
  START_RETURN_IF_ERROR(index->AddBatch(ids, rows));
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.catch_up_items += static_cast<int64_t>(ids.size());
  }
  return common::Status::OK();
}

common::Status AdaptationController::SwapAndCatchUp(
    EngineBundle bundle, const std::shared_ptr<HnswIndex>& index,
    const std::string& index_path) {
  const std::shared_ptr<const FrozenEncoder> encoder = bundle.encoder;
  const int64_t deadline = hooks_->NowUs() + config_.swap_timeout_us;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        return common::Status::FailedPrecondition(
            "controller is shutting down");
      }
    }
    const int64_t now = hooks_->NowUs();
    if (now > deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.swap_timeouts;
      }
      return common::Status::FailedPrecondition(
          "swap timeout: pipeline never reached a quiescent boundary");
    }
    const int64_t slice = std::min<int64_t>(deadline - now, kSwapPollUs);
    if (!pipeline_->WaitQuiescent(std::max<int64_t>(slice, 0))) continue;
    // Narrow the post-swap pass while the old engine still serves.
    START_RETURN_IF_ERROR(CatchUp(*encoder, index.get()));
    const common::Status st = pipeline_->SwapEngine(bundle);
    if (st.ok()) break;
    if (st.code() != common::StatusCode::kFailedPrecondition) return st;
    // In-flight items raced past the quiescence check — retry until the
    // deadline. (A draining pipeline also lands here and times out.)
  }
  // Everything accepted before the quiescent swap has finalized and been
  // recorded, so one pass closes the gap; new items land on the new engine.
  START_RETURN_IF_ERROR(CatchUp(*encoder, index.get()));
  const common::Status st = index->Save(index_path);
  if (!st.ok()) {
    // The swap already landed: persistence failure only costs the next
    // restart a rebuild. Record, don't fail the round.
    std::lock_guard<std::mutex> lock(mu_);
    stats_.last_error = "index persist: " + st.ToString();
  }
  return common::Status::OK();
}

void AdaptationController::RunRetrainRound(int64_t round) {
  std::vector<traj::Trajectory> corpus;
  std::string base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int64_t id : corpus_order_) {
      auto it = corpus_.find(id);
      if (it != corpus_.end()) corpus.push_back(it->second);
    }
    base = serving_checkpoint_;
    if (static_cast<int64_t>(corpus.size()) < config_.min_retrain_corpus) {
      ++stats_.rounds_skipped;
      return;
    }
    ++stats_.rounds_started;
    stats_.state = AdaptationState::kRetraining;
  }

  common::Status st = hooks_->BeforeStage("retrain", round);
  if (!st.ok()) {
    FailRound("retrain", st);
    return;
  }
  core::RetrainOptions options;
  options.base_checkpoint = base;
  options.output_checkpoint =
      config_.artifact_dir + "/gen_" + std::to_string(round) + ".sttn";
  options.pretrain = config_.finetune;
  auto retrained = core::WarmStartRetrain(config_.model, net_, transfer_,
                                          traffic_, corpus, options);
  if (!retrained.ok()) {
    FailRound("retrain", retrained.status());
    return;
  }

  st = hooks_->BeforeStage("rebuild", round);
  if (!st.ok()) {
    FailRound("rebuild", st);
    return;
  }
  auto loaded = FrozenEncoder::Load(retrained.value().checkpoint,
                                    config_.model, net_, transfer_);
  if (!loaded.ok()) {
    FailRound("rebuild", loaded.status());
    return;
  }
  std::shared_ptr<const FrozenEncoder> encoder = std::move(loaded.value());
  auto index = std::make_shared<HnswIndex>(encoder->dim(), config_.index);
  st = CatchUp(*encoder, index.get());  // bulk re-embed of the corpus
  if (!st.ok()) {
    FailRound("rebuild", st);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.state = AdaptationState::kSwapping;
  }
  st = hooks_->BeforeStage("swap", round);
  if (!st.ok()) {
    FailRound("swap", st);
    return;
  }
  EngineBundle bundle;
  bundle.encoder = encoder;
  bundle.index = index;
  bundle.drift = MakeDriftMonitor();
  st = SwapAndCatchUp(std::move(bundle), index,
                      IndexPathFor(retrained.value().checkpoint));
  if (!st.ok()) {
    FailRound("swap", st);
    return;
  }

  std::lock_guard<std::mutex> lock(mu_);
  stats_.generation = round;
  serving_checkpoint_ = retrained.value().checkpoint;
  encoder_ = std::move(encoder);
  hnsw_ = std::move(index);
  ++stats_.rounds_completed;
  stats_.last_error.clear();
  stats_.state = AdaptationState::kServing;
}

void AdaptationController::RunCompactionRound(int64_t round) {
  std::shared_ptr<HnswIndex> current;
  std::shared_ptr<const FrozenEncoder> encoder;
  std::string checkpoint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = hnsw_;
    encoder = encoder_;
    checkpoint = serving_checkpoint_;
  }
  // Re-check under the threshold: a retrain round may have landed a fresh
  // (tombstone-free) index since this compaction was scheduled.
  if (current->DeadFraction() < config_.compact_dead_fraction) return;

  common::Status st = hooks_->BeforeStage("rebuild", round);
  if (!st.ok()) {
    FailRound("compact", st);
    return;
  }
  auto copied = current->CompactedCopy();
  if (!copied.ok()) {
    FailRound("compact", copied.status());
    return;
  }
  std::shared_ptr<HnswIndex> compacted = std::move(copied.value());

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.state = AdaptationState::kSwapping;
  }
  st = hooks_->BeforeStage("swap", round);
  if (!st.ok()) {
    FailRound("compact", st);
    return;
  }
  EngineBundle bundle;
  bundle.encoder = encoder;
  bundle.index = compacted;
  // The encoder is unchanged, so the embedding distribution is too: the
  // serving drift monitor (reference window included) carries over.
  bundle.drift = pipeline_->engine().drift;
  st = SwapAndCatchUp(std::move(bundle), compacted, IndexPathFor(checkpoint));
  if (!st.ok()) {
    FailRound("compact", st);
    return;
  }

  std::lock_guard<std::mutex> lock(mu_);
  hnsw_ = std::move(compacted);
  ++stats_.compactions;
  stats_.last_error.clear();
  stats_.state = AdaptationState::kServing;
}

}  // namespace start::serve
