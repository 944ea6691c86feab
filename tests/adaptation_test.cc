// Adaptation-loop tests: drift-triggered warm-start retraining plus
// zero-downtime engine/index hot-swap (serve::AdaptationController), with
// fault injection walking every failure edge of the round state machine
// (serving -> retraining -> swapping -> serving):
//  - a triggered round retrains off the serving checkpoint, rebuilds the
//    index, hot-swaps at a quiescent boundary, and persists the artifacts;
//  - rounds below the corpus floor are skipped, not failed;
//  - an injected fault in any stage ("retrain", "rebuild", "swap") aborts
//    the round with the OLD engine untouched, and the next round recovers;
//  - a pipeline that never reaches quiescence times the swap out
//    gracefully;
//  - a corrupt persisted index is recovered at boot (never fatal), while an
//    intact one is restored, skipping the rebuild;
//  - Remove() churn past the tombstone threshold folds compaction into the
//    same swap machinery;
//  - drift wired end to end triggers the loop with no manual kick;
//  - the whole loop replays bitwise across pipeline worker counts
//    (checkpoint bytes and persisted index bytes identical).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/fault_hooks.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "serve/adaptation.h"
#include "serve/hnsw_index.h"
#include "serve/stream_pipeline.h"
#include "testing.h"

namespace start {
namespace {

using common::FaultHooks;
using serve::AdaptationConfig;
using serve::AdaptationController;
using serve::AdaptationState;
using serve::AdaptationStats;
using serve::HnswIndex;
using serve::PipelineStats;
using serve::StreamItem;

/// Generous deadline for WaitUntilIdle: a round includes a real (tiny)
/// fine-tune, and CI machines are slow.
constexpr int64_t kIdleTimeoutUs = 120'000'000;

class AdaptationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = testutil::MakeTinyWorld().release();
    config_ = new core::StartConfig(testutil::TinyStartConfig());
  }

  static void TearDownTestSuite() {
    delete config_;
    delete world_;
    config_ = nullptr;
    world_ = nullptr;
  }

  /// Writes the generation-0 model artifact (fresh seed-7 init) to `path`.
  static void WriteBaseCheckpoint(const std::string& path) {
    common::Rng rng(7);
    core::StartModel model(*config_, world_->net.get(),
                           world_->transfer.get(), &rng);
    ASSERT_TRUE(core::SaveModelCheckpoint(path, model,
                                          core::HashStartConfig(*config_))
                    .ok());
  }

  /// Small, deterministic loop configuration. Drift is configured to never
  /// fire on its own — rounds are triggered explicitly, except in the
  /// drift-path test which overrides these knobs.
  static AdaptationConfig MakeConfig(const testutil::TempDir& dir) {
    AdaptationConfig config;
    config.model = *config_;
    config.artifact_dir = dir.path();
    config.base_checkpoint = dir.File("base.sttn");
    config.finetune.epochs = 1;
    config.finetune.batch_size = 4;
    config.drift.window_size = 1 << 20;  // never completes a window
    config.stream.match_workers = 2;
    config.stream.embed_workers = 2;
    config.stream.service.max_batch_size = 8;
    config.stream.service.batch_deadline_us = 50;
    config.corpus_capacity = 256;
    config.min_retrain_corpus = 4;
    config.swap_timeout_us = 30'000'000;
    return config;
  }

  /// `n` noisy GPS streams with unique ids, cycling the tiny-world trips.
  static std::vector<StreamItem> MakeStream(int64_t n, uint64_t seed = 99) {
    common::Rng rng(seed);
    std::vector<StreamItem> items;
    int64_t id = 0;
    size_t trip = 0;
    while (static_cast<int64_t>(items.size()) < n &&
           trip < static_cast<size_t>(8 * n)) {
      StreamItem item;
      item.id = id++;
      item.gps = traj::SimulateGps(
          *world_->net, world_->corpus[trip++ % world_->corpus.size()],
          /*sample_interval_s=*/30.0, /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) items.push_back(std::move(item));
    }
    return items;
  }

  static std::unique_ptr<AdaptationController> MakeController(
      const AdaptationConfig& config, const FaultHooks* hooks = nullptr) {
    auto created = AdaptationController::Create(
        config, world_->net.get(), world_->transfer.get(),
        world_->traffic.get(), hooks);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return nullptr;
    return std::move(created.value());
  }

  /// Ids of `stream` present in the currently serving index.
  static std::vector<int64_t> LiveIds(const AdaptationController& controller,
                                      const std::vector<StreamItem>& stream) {
    std::vector<int64_t> live;
    const auto index = controller.engine().index;
    for (const StreamItem& item : stream) {
      if (index->Contains(item.id)) live.push_back(item.id);
    }
    return live;
  }

  static testutil::TinyWorld* world_;
  static core::StartConfig* config_;
};

testutil::TinyWorld* AdaptationTest::world_ = nullptr;
core::StartConfig* AdaptationTest::config_ = nullptr;

TEST_F(AdaptationTest, TriggeredRoundRetrainsRebuildsAndHotSwaps) {
  testutil::TempDir dir;
  const AdaptationConfig config = MakeConfig(dir);
  WriteBaseCheckpoint(config.base_checkpoint);
  auto controller = MakeController(config);
  ASSERT_NE(controller, nullptr);
  const std::vector<StreamItem> stream = MakeStream(16);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  const auto old_index = controller->engine().index;
  const std::vector<int64_t> live = LiveIds(*controller, stream);
  ASSERT_GE(static_cast<int64_t>(live.size()), config.min_retrain_corpus);
  EXPECT_EQ(controller->stats().corpus_size,
            static_cast<int64_t>(live.size()));
  EXPECT_EQ(controller->serving_checkpoint(), config.base_checkpoint);

  controller->TriggerRetrain();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));

  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.state, AdaptationState::kServing);
  EXPECT_EQ(s.rounds_started, 1);
  EXPECT_EQ(s.rounds_completed, 1);
  EXPECT_EQ(s.rounds_failed, 0);
  EXPECT_EQ(s.generation, 1);
  EXPECT_EQ(s.last_error, "");
  // The full corpus was re-embedded into the new generation's index.
  EXPECT_EQ(s.catch_up_items, static_cast<int64_t>(live.size()));

  const PipelineStats p = controller->pipeline()->stats();
  EXPECT_EQ(p.epoch, 1);
  EXPECT_EQ(p.swaps, 1);

  // The serving artifacts moved to generation 1, persisted index included.
  EXPECT_EQ(controller->serving_checkpoint(), dir.File("gen_1.sttn"));
  EXPECT_TRUE(core::CheckpointExists(dir.File("gen_1.sttn")));
  EXPECT_TRUE(core::CheckpointExists(dir.File("gen_1.sttn.index")));

  // Zero loss across the swap: the new index serves every live id.
  const auto new_index = controller->engine().index;
  EXPECT_NE(new_index.get(), old_index.get());
  EXPECT_EQ(new_index->size(), static_cast<int64_t>(live.size()));
  for (const int64_t id : live) {
    EXPECT_TRUE(new_index->Contains(id)) << "id " << id << " lost in swap";
  }

  // And the loop keeps serving: post-swap items land in the new index.
  std::vector<StreamItem> more = MakeStream(4, /*seed=*/123);
  for (StreamItem& item : more) item.id += 1000;
  for (const StreamItem& item : more) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  EXPECT_GT(static_cast<int64_t>(LiveIds(*controller, more).size()), 0);
}

TEST_F(AdaptationTest, RoundBelowCorpusFloorIsSkippedNotFailed) {
  testutil::TempDir dir;
  AdaptationConfig config = MakeConfig(dir);
  config.min_retrain_corpus = 1000;  // unreachable
  WriteBaseCheckpoint(config.base_checkpoint);
  auto controller = MakeController(config);
  ASSERT_NE(controller, nullptr);
  const std::vector<StreamItem> stream = MakeStream(6);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  controller->TriggerRetrain();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.rounds_skipped, 1);
  EXPECT_EQ(s.rounds_started, 0);
  EXPECT_EQ(s.rounds_failed, 0);
  EXPECT_EQ(s.generation, 0);
  EXPECT_EQ(s.last_error, "");
  EXPECT_EQ(controller->pipeline()->stats().epoch, 0);
}

TEST_F(AdaptationTest, InjectedFaultInAnyStageLeavesOldEngineServing) {
  for (const char* fault_stage : {"retrain", "rebuild", "swap"}) {
    SCOPED_TRACE(fault_stage);
    testutil::TempDir dir;
    const AdaptationConfig config = MakeConfig(dir);
    WriteBaseCheckpoint(config.base_checkpoint);
    std::atomic<bool> armed{true};
    FaultHooks hooks;
    hooks.before_stage = [&](const char* stage, int64_t) {
      if (armed.load(std::memory_order_acquire) &&
          std::strcmp(stage, fault_stage) == 0) {
        return common::Status::Internal("injected fault");
      }
      return common::Status::OK();
    };
    auto controller = MakeController(config, &hooks);
    ASSERT_NE(controller, nullptr);
    const std::vector<StreamItem> stream = MakeStream(12);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(controller->Push(item).ok());
    }
    controller->Flush();
    const auto old_index = controller->engine().index;
    const std::vector<int64_t> live = LiveIds(*controller, stream);
    ASSERT_GE(static_cast<int64_t>(live.size()), config.min_retrain_corpus);

    controller->TriggerRetrain();
    ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));

    // The failure edge collapsed back to kServing on the untouched old
    // engine, with the fault recorded.
    const AdaptationStats failed = controller->stats();
    EXPECT_EQ(failed.state, AdaptationState::kServing);
    EXPECT_EQ(failed.rounds_failed, 1);
    EXPECT_EQ(failed.rounds_completed, 0);
    EXPECT_EQ(failed.generation, 0);
    EXPECT_NE(failed.last_error.find("injected fault"), std::string::npos)
        << failed.last_error;
    EXPECT_EQ(controller->pipeline()->stats().epoch, 0);
    EXPECT_EQ(controller->pipeline()->stats().swaps, 0);
    EXPECT_EQ(controller->engine().index.get(), old_index.get());
    EXPECT_EQ(controller->serving_checkpoint(), config.base_checkpoint);
    for (const int64_t id : live) {
      EXPECT_TRUE(old_index->Contains(id));
    }

    // The loop is not wedged: with the fault disarmed the next round lands.
    armed.store(false, std::memory_order_release);
    controller->TriggerRetrain();
    ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
    const AdaptationStats recovered = controller->stats();
    EXPECT_EQ(recovered.rounds_completed, 1);
    EXPECT_EQ(recovered.generation, 1);
    EXPECT_EQ(recovered.last_error, "");
    EXPECT_EQ(controller->pipeline()->stats().epoch, 1);
  }
}

TEST_F(AdaptationTest, SwapTimeoutDegradesGracefullyToOldEngine) {
  testutil::TempDir dir;
  AdaptationConfig config = MakeConfig(dir);
  config.swap_timeout_us = 200'000;  // the pipeline will never quiesce
  WriteBaseCheckpoint(config.base_checkpoint);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  const std::vector<StreamItem> stream = MakeStream(8);
  const int64_t stall_seq = static_cast<int64_t>(stream.size());
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "match") == 0 && seq == stall_seq) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });  // held in flight indefinitely
    }
    return common::Status::OK();
  };
  auto controller = MakeController(config, &hooks);
  ASSERT_NE(controller, nullptr);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  const std::vector<int64_t> live = LiveIds(*controller, stream);
  ASSERT_GE(static_cast<int64_t>(live.size()), config.min_retrain_corpus);
  // One more item, stalled inside the match stage: the pipeline now has a
  // permanent in-flight resident and can never reach a quiescent boundary.
  StreamItem stalled;
  stalled.id = 999;
  stalled.gps = stream[0].gps;
  ASSERT_TRUE(controller->Push(stalled).ok());

  controller->TriggerRetrain();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));

  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.swap_timeouts, 1);
  EXPECT_EQ(s.rounds_failed, 1);
  EXPECT_EQ(s.rounds_completed, 0);
  EXPECT_EQ(s.generation, 0);
  EXPECT_NE(s.last_error.find("swap timeout"), std::string::npos)
      << s.last_error;
  EXPECT_EQ(controller->pipeline()->stats().epoch, 0);

  // Release the stall: the resident item finalizes on the OLD engine, which
  // is still serving untouched.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  controller->Flush();
  EXPECT_TRUE(controller->engine().index->Contains(stalled.id));
}

TEST_F(AdaptationTest, CorruptPersistedIndexIsRecoveredAtBoot) {
  testutil::TempDir dir;
  const AdaptationConfig config = MakeConfig(dir);
  WriteBaseCheckpoint(config.base_checkpoint);
  const std::string garbage = "this is not an index artifact";
  testutil::WriteFileBytes(
      config.base_checkpoint + ".index",
      std::vector<uint8_t>(garbage.begin(), garbage.end()));
  auto controller = MakeController(config);
  ASSERT_NE(controller, nullptr);  // corrupt sidecar is never fatal
  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.index_recovered, 1);
  EXPECT_EQ(s.index_restored, 0);
  EXPECT_NE(s.last_error.find("persisted index rejected"), std::string::npos)
      << s.last_error;
  // Recovery means an empty index that the stream refills.
  EXPECT_EQ(controller->engine().index->size(), 0);
  const std::vector<StreamItem> stream = MakeStream(8);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  EXPECT_GT(static_cast<int64_t>(LiveIds(*controller, stream).size()), 0);
}

TEST_F(AdaptationTest, PersistedIndexIsRestoredAcrossRestart) {
  testutil::TempDir dir;
  const AdaptationConfig config = MakeConfig(dir);
  WriteBaseCheckpoint(config.base_checkpoint);
  const std::vector<StreamItem> stream = MakeStream(16);
  std::vector<int64_t> live;
  {
    auto controller = MakeController(config);
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->stats().index_restored, 0);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(controller->Push(item).ok());
    }
    controller->Flush();
    live = LiveIds(*controller, stream);
    ASSERT_GE(static_cast<int64_t>(live.size()), config.min_retrain_corpus);
    controller->TriggerRetrain();
    ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
    ASSERT_EQ(controller->stats().rounds_completed, 1);
  }  // shutdown

  // Restart from the generation-1 artifacts: the persisted sidecar is
  // loaded instead of re-embedding anything.
  AdaptationConfig restarted = MakeConfig(dir);
  restarted.base_checkpoint = dir.File("gen_1.sttn");
  auto controller = MakeController(restarted);
  ASSERT_NE(controller, nullptr);
  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.index_restored, 1);
  EXPECT_EQ(s.index_recovered, 0);
  const auto index = controller->engine().index;
  EXPECT_EQ(index->size(), static_cast<int64_t>(live.size()));
  for (const int64_t id : live) {
    EXPECT_TRUE(index->Contains(id)) << "id " << id << " not restored";
  }
}

TEST_F(AdaptationTest, RemoveChurnPastThresholdFoldsInCompactionSwap) {
  testutil::TempDir dir;
  AdaptationConfig config = MakeConfig(dir);
  config.compact_dead_fraction = 0.5;
  WriteBaseCheckpoint(config.base_checkpoint);
  // Hold the compaction round at its rebuild stage until every Remove() has
  // been issued, so exactly one compaction covers them all.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t) {
    if (std::strcmp(stage, "rebuild") == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    return common::Status::OK();
  };
  auto controller = MakeController(config, &hooks);
  ASSERT_NE(controller, nullptr);
  const std::vector<StreamItem> stream = MakeStream(20);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  const std::vector<int64_t> live = LiveIds(*controller, stream);
  ASSERT_GE(live.size(), 10u);
  const size_t victims = (live.size() * 3) / 5;  // 60% > threshold
  for (size_t i = 0; i < victims; ++i) {
    ASSERT_TRUE(controller->Remove(live[i]).ok());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));

  const AdaptationStats s = controller->stats();
  EXPECT_EQ(s.compactions, 1);
  EXPECT_EQ(s.rounds_failed, 0);
  EXPECT_EQ(s.generation, 0);  // compaction serves the same generation
  EXPECT_EQ(s.corpus_size, static_cast<int64_t>(live.size() - victims));
  const PipelineStats p = controller->pipeline()->stats();
  EXPECT_EQ(p.swaps, 1);
  EXPECT_EQ(p.epoch, 1);
  // The compacted index holds exactly the survivors, tombstone-free.
  const auto index =
      std::static_pointer_cast<HnswIndex>(controller->engine().index);
  EXPECT_EQ(index->size(), static_cast<int64_t>(live.size() - victims));
  EXPECT_EQ(index->DeadFraction(), 0.0);
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(index->Contains(live[i]), i >= victims) << "id " << live[i];
  }
  // The compacted generation was persisted next to its checkpoint.
  EXPECT_TRUE(core::CheckpointExists(config.base_checkpoint + ".index"));
}

TEST_F(AdaptationTest, DriftTriggersTheLoopWithNoManualKick) {
  testutil::TempDir dir;
  AdaptationConfig config = MakeConfig(dir);
  // Real drift wiring: tiny windows and a zero cosine threshold, so the
  // stream itself fires the retrain trigger.
  config.drift.window_size = 8;
  config.drift.reference_windows = 1;
  config.drift.cosine_shift_threshold = 0.0;
  config.drift.norm_shift_threshold = 1e9;
  WriteBaseCheckpoint(config.base_checkpoint);
  auto controller = MakeController(config);
  ASSERT_NE(controller, nullptr);
  const std::vector<StreamItem> stream = MakeStream(32);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(controller->Push(item).ok());
  }
  controller->Flush();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
  const AdaptationStats s = controller->stats();
  EXPECT_GE(s.drift_triggers, 1);
  EXPECT_GE(s.rounds_completed, 1);
  EXPECT_GE(s.generation, 1);
  EXPECT_GE(controller->pipeline()->stats().swaps, 1);
  // Every live id survived however many swaps the drift storm caused.
  for (const int64_t id : LiveIds(*controller, stream)) {
    EXPECT_TRUE(controller->engine().index->Contains(id));
  }
}

TEST_F(AdaptationTest, FullLoopReplaysBitwiseAcrossWorkerCounts) {
  const std::vector<StreamItem> stream = MakeStream(16);
  struct Artifacts {
    std::vector<uint8_t> checkpoint;
    std::vector<uint8_t> index;
    int64_t corpus_size = 0;
  };
  const auto run_once = [&](int match_workers, int embed_workers) {
    Artifacts out;
    testutil::TempDir dir;
    AdaptationConfig config = MakeConfig(dir);
    config.stream.match_workers = match_workers;
    config.stream.embed_workers = embed_workers;
    WriteBaseCheckpoint(config.base_checkpoint);
    auto controller = MakeController(config);
    if (controller == nullptr) return out;
    for (const StreamItem& item : stream) {
      EXPECT_TRUE(controller->Push(item).ok());
    }
    controller->Flush();
    controller->TriggerRetrain();
    EXPECT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
    EXPECT_EQ(controller->stats().rounds_completed, 1);
    out.checkpoint = testutil::ReadFileBytes(dir.File("gen_1.sttn"));
    out.index = testutil::ReadFileBytes(dir.File("gen_1.sttn.index"));
    out.corpus_size = controller->stats().corpus_size;
    return out;
  };
  const Artifacts narrow = run_once(1, 1);
  const Artifacts wide = run_once(3, 2);
  ASSERT_GT(narrow.corpus_size, 0);
  EXPECT_EQ(narrow.corpus_size, wide.corpus_size);
  // The retrained checkpoint and the persisted index are byte-identical:
  // the whole adaptation round — corpus snapshot, warm-start fine-tune,
  // rebuild, swap — is deterministic whatever the pipeline parallelism.
  ASSERT_FALSE(narrow.checkpoint.empty());
  EXPECT_EQ(narrow.checkpoint, wide.checkpoint)
      << "retrained checkpoint diverged across worker counts";
  ASSERT_FALSE(narrow.index.empty());
  EXPECT_EQ(narrow.index, wide.index)
      << "persisted index diverged across worker counts";
}

}  // namespace
}  // namespace start
