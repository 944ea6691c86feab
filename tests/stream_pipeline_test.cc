// Streaming ingestion pipeline tests (under the `concurrency` ctest label,
// so the TSan CI job covers every one of them):
//  - end-to-end ingest whose embeddings are bitwise identical to a direct
//    match + encode of the same GPS stream;
//  - fault injection through the common::FaultHooks seam: transient embed
//    failures retry with recorded exponential backoff, a stalled match
//    worker stalls neither the other workers nor ordering, a full upsert
//    queue under kDropNewest sheds load with exact accounting and bounded
//    queue depth, and a mid-stream Drain() finishes cleanly with nothing
//    half-ingested;
//  - deterministic replay: the same stream produces bitwise-identical
//    embeddings, index contents, and drift windows for every worker-count
//    configuration;
//  - a queries-during-ingest churn soak against the HNSW backend;
//  - engine hot-swap: SwapEngine splits the stream exactly at a sequence
//    boundary (items before/after run every stage against their own
//    bundle), loses nothing when retried against bursty load, rejects
//    invalid bundles with the old engine untouched, and only lands with
//    zero items in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/fault_hooks.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "serve/drift_monitor.h"
#include "serve/embedding_index.h"
#include "serve/frozen_encoder.h"
#include "serve/hnsw_index.h"
#include "serve/stream_pipeline.h"
#include "testing.h"
#include "traj/map_matching.h"

namespace start {
namespace {

using common::FaultHooks;
using serve::DriftConfig;
using serve::DriftMonitor;
using serve::EmbeddingRow;
using serve::HnswIndex;
using serve::OverflowPolicy;
using serve::PipelineStats;
using serve::StreamConfig;
using serve::StreamItem;
using serve::StreamPipeline;

std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

class StreamPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = testutil::MakeTinyWorld().release();
    config_ = new core::StartConfig(testutil::TinyStartConfig());
    common::Rng rng(7);
    core::StartModel model(*config_, world_->net.get(),
                           world_->transfer.get(), &rng);
    const std::string path = TempPath("stream_model.sttn");
    ASSERT_TRUE(core::SaveModelCheckpoint(path, model,
                                          core::HashStartConfig(*config_))
                    .ok());
    auto loaded = serve::FrozenEncoder::Load(path, *config_,
                                             world_->net.get(),
                                             world_->transfer.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    encoder_ = std::move(loaded).value();
  }

  static void TearDownTestSuite() {
    encoder_.reset();
    delete config_;
    delete world_;
    config_ = nullptr;
    world_ = nullptr;
  }

  /// The first `n` corpus trips as noisy GPS streams — regenerated from a
  /// fixed seed so every test (and every replay within a test) sees the
  /// identical stream.
  static std::vector<StreamItem> MakeStream(int64_t n, uint64_t seed = 99) {
    common::Rng rng(seed);
    std::vector<StreamItem> items;
    for (size_t i = 0; i < world_->corpus.size() &&
                       items.size() < static_cast<size_t>(n);
         ++i) {
      StreamItem item;
      item.id = static_cast<int64_t>(i);
      item.gps = traj::SimulateGps(*world_->net, world_->corpus[i],
                                   /*sample_interval_s=*/30.0,
                                   /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) items.push_back(std::move(item));
    }
    return items;
  }

  /// Small queues + small service so tests exercise the bounds quickly.
  static StreamConfig SmallConfig() {
    StreamConfig config;
    config.match_workers = 2;
    config.embed_workers = 2;
    config.service.max_batch_size = 8;
    config.service.batch_deadline_us = 50;
    return config;
  }

  static void ExpectAccounted(const PipelineStats& s) {
    EXPECT_EQ(s.in_flight, 0);
    EXPECT_EQ(s.accepted, s.ingested() + s.total_failed() + s.embed.dropped +
                              s.upsert.dropped)
        << "accounting identity violated";
  }

  /// A second frozen engine with different weights (fresh init seed), as a
  /// hot-swap target: embeddings provably come from whichever engine served
  /// the item.
  static std::shared_ptr<const serve::FrozenEncoder> MakeAltEncoder() {
    common::Rng rng(23);
    core::StartModel model(*config_, world_->net.get(),
                           world_->transfer.get(), &rng);
    const std::string path = TempPath("stream_model_alt.sttn");
    EXPECT_TRUE(core::SaveModelCheckpoint(path, model,
                                          core::HashStartConfig(*config_))
                    .ok());
    auto loaded = serve::FrozenEncoder::Load(path, *config_,
                                             world_->net.get(),
                                             world_->transfer.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return std::shared_ptr<const serve::FrozenEncoder>(
        std::move(loaded).value());
  }

  static testutil::TinyWorld* world_;
  static core::StartConfig* config_;
  static std::shared_ptr<const serve::FrozenEncoder> encoder_;
};

testutil::TinyWorld* StreamPipelineTest::world_ = nullptr;
core::StartConfig* StreamPipelineTest::config_ = nullptr;
std::shared_ptr<const serve::FrozenEncoder> StreamPipelineTest::encoder_;

/// Callback recorder: ids in finalization order + a copy of each embedding.
struct Recorder {
  std::vector<int64_t> ids;
  std::vector<std::vector<float>> rows;

  StreamPipeline::IngestedCallback Callback() {
    return [this](int64_t id, const traj::Trajectory&,
                  const EmbeddingRow& row) {
      ids.push_back(id);
      rows.push_back(row.ToVector());
    };
  }
};

TEST_F(StreamPipelineTest, IngestMatchesDirectMatchAndEncodeBitwise) {
  const std::vector<StreamItem> stream = MakeStream(32);
  ASSERT_GE(stream.size(), 16u);
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), SmallConfig());
  Recorder rec;
  pipeline.SetOnIngested(rec.Callback());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  EXPECT_EQ(s.pushed, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(s.accepted, s.pushed);
  EXPECT_GT(s.ingested(), 0);
  ExpectAccounted(s);
  EXPECT_EQ(index->size(), s.ingested());
  EXPECT_EQ(static_cast<int64_t>(rec.ids.size()), s.ingested());

  // The reference path: the same matcher + a direct single-trajectory
  // encode. Every pipeline embedding must be bitwise identical (micro-batch
  // composition invariance of the frozen engine).
  const traj::HmmMapMatcher matcher(world_->net.get(), StreamConfig().matcher);
  std::map<int64_t, const traj::GpsTrajectory*> by_id;
  for (const StreamItem& item : stream) by_id[item.id] = &item.gps;
  for (size_t i = 0; i < rec.ids.size(); ++i) {
    EXPECT_TRUE(index->Contains(rec.ids[i]));
    const traj::Trajectory matched = matcher.MatchTrajectory(*by_id[rec.ids[i]]);
    ASSERT_TRUE(encoder_->Validate(matched).ok());
    const tensor::Tensor direct =
        encoder_->EncodeBatch({&matched}, eval::EncodeMode::kFull);
    ASSERT_EQ(static_cast<size_t>(direct.numel()), rec.rows[i].size());
    EXPECT_EQ(std::memcmp(direct.data(), rec.rows[i].data(),
                          rec.rows[i].size() * sizeof(float)),
              0)
        << "embedding of id " << rec.ids[i] << " diverged from direct encode";
  }
}

TEST_F(StreamPipelineTest, TransientEmbedFailuresRetryWithBackoff) {
  const std::vector<StreamItem> stream = MakeStream(12);
  std::mutex mu;
  std::map<int64_t, int> attempts;          // per-seq embed attempts
  std::vector<int64_t> sleeps;              // recorded backoffs, in order
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "embed") != 0) return common::Status::OK();
    std::lock_guard<std::mutex> lock(mu);
    // First two attempts of every item fail transiently, then succeed.
    if (++attempts[seq] <= 2) return common::Status::Internal("flaky embed");
    return common::Status::OK();
  };
  hooks.sleep_us = [&](int64_t micros) {
    std::lock_guard<std::mutex> lock(mu);
    sleeps.push_back(micros);
  };
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamConfig config = SmallConfig();
  config.embed_workers = 1;  // one worker: the backoff sequence is ordered
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), config, &hooks);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(s.total_failed() + s.ingested(), s.accepted);
  EXPECT_EQ(s.match.failed + s.ingested(), s.accepted)
      << "transient embed failures must not become permanent";
  // Two retries per item that reached the embed stage, with exponential
  // backoff 200us then 400us recorded through the seam (never slept).
  EXPECT_EQ(s.embed.retried, 2 * (s.accepted - s.match.failed));
  ASSERT_EQ(static_cast<int64_t>(sleeps.size()), s.embed.retried);
  for (size_t i = 0; i + 1 < sleeps.size(); i += 2) {
    EXPECT_EQ(sleeps[i], 200);
    EXPECT_EQ(sleeps[i + 1], 400);
  }
}

TEST_F(StreamPipelineTest, PermanentFailureExhaustsRetriesAndIsCounted) {
  const std::vector<StreamItem> stream = MakeStream(6);
  std::mutex mu;
  std::vector<int64_t> sleeps;
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "embed") == 0 && seq == 0) {
      return common::Status::Internal("embed backend down");
    }
    return common::Status::OK();
  };
  hooks.sleep_us = [&](int64_t micros) {
    std::lock_guard<std::mutex> lock(mu);
    sleeps.push_back(micros);
  };
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamConfig config = SmallConfig();
  config.max_retries = 3;
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), config, &hooks);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(s.embed.failed, 1);  // seq 0 exhausted its retries
  EXPECT_EQ(s.embed.retried, 3);
  EXPECT_EQ(sleeps, (std::vector<int64_t>{200, 400, 800}));
  EXPECT_FALSE(index->Contains(stream[0].id));
}

TEST_F(StreamPipelineTest, StalledMatchWorkerBlocksNeitherPeersNorOrdering) {
  const std::vector<StreamItem> stream = MakeStream(10);
  const int64_t n = static_cast<int64_t>(stream.size());
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "match") == 0 && seq == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });  // a stalled worker
    }
    return common::Status::OK();
  };
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamConfig config = SmallConfig();  // 2 match workers: one keeps going
  config.max_in_flight = n + 1;
  config.upsert_queue_depth = n + 1;
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), config, &hooks);
  Recorder rec;
  pipeline.SetOnIngested(rec.Callback());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  // The healthy worker must push everything else through match and embed
  // while seq 0 is stalled...
  while (pipeline.stats().embed.completed + pipeline.stats().total_failed() <
         n - 1) {
    std::this_thread::yield();
  }
  // ...but the in-order finalizer must not have ingested anything: nothing
  // may overtake seq 0.
  EXPECT_EQ(pipeline.stats().ingested(), 0);
  EXPECT_TRUE(index->size() == 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  // Ingestion order is push order, stall or no stall.
  std::vector<int64_t> expected;
  for (const StreamItem& item : stream) expected.push_back(item.id);
  std::vector<int64_t> expected_ingested;
  std::set<int64_t> got(rec.ids.begin(), rec.ids.end());
  for (const int64_t id : expected) {
    if (got.count(id)) expected_ingested.push_back(id);
  }
  EXPECT_EQ(rec.ids, expected_ingested);
}

TEST_F(StreamPipelineTest, FullUpsertQueueShedsLoadWithBoundedDepth) {
  const std::vector<StreamItem> stream = MakeStream(24);
  const int64_t n = static_cast<int64_t>(stream.size());
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "upsert") == 0 && seq == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });  // the finalizer stalls
    }
    return common::Status::OK();
  };
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamConfig config = SmallConfig();
  config.overflow = OverflowPolicy::kDropNewest;
  config.upsert_queue_depth = 4;  // tiny: the stall must overflow it
  config.max_in_flight = n + 1;
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), config, &hooks);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  // Wait until every accepted item has either failed in match, been shed at
  // the full upsert queue, or sits inside its bounded depth.
  for (;;) {
    const PipelineStats s = pipeline.stats();
    EXPECT_LE(s.upsert.queue_depth, 4) << "queue bound violated";
    if (s.embed.completed + s.total_failed() >= n - 1) break;
    std::this_thread::yield();
  }
  const PipelineStats stalled = pipeline.stats();
  EXPECT_GT(stalled.upsert.dropped, 0) << "the full queue must shed load";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(index->size(), s.ingested());
  EXPECT_GT(s.ingested(), 0);  // the in-queue items still land
}

TEST_F(StreamPipelineTest, MidStreamDrainFinishesAcceptedItemsExactly) {
  const std::vector<StreamItem> stream = MakeStream(64);
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamConfig config = SmallConfig();
  config.match_queue_depth = 4;  // keep a real backlog at drain time
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), config);
  Recorder rec;
  pipeline.SetOnIngested(rec.Callback());
  std::atomic<int64_t> push_ok{0};
  std::thread producer([&] {
    for (const StreamItem& item : stream) {
      if (pipeline.Push(item).ok()) {
        push_ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        break;  // drain began
      }
    }
  });
  // Drain as soon as the stream is demonstrably mid-flight.
  while (pipeline.stats().ingested() < 3) std::this_thread::yield();
  pipeline.Drain();
  producer.join();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  // Everything accepted before the drain was fully finished — no item is
  // half-ingested and none were silently lost.
  EXPECT_EQ(s.accepted, push_ok.load());
  EXPECT_EQ(index->size(), s.ingested());
  EXPECT_EQ(static_cast<int64_t>(rec.ids.size()), s.ingested());
  for (const int64_t id : rec.ids) EXPECT_TRUE(index->Contains(id));
  // And the pipeline refuses new work from now on.
  EXPECT_EQ(pipeline.Push(stream[0]).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST_F(StreamPipelineTest, ReplayIsBitwiseDeterministicAcrossWorkerCounts) {
  const std::vector<StreamItem> stream = MakeStream(40);
  struct Run {
    std::vector<int64_t> ids;
    std::vector<std::vector<float>> rows;
    std::vector<serve::DriftWindowStats> drift;
    int64_t index_size = 0;
  };
  DriftConfig drift_config;
  drift_config.window_size = 8;
  drift_config.reference_windows = 1;
  const auto run_once = [&](int match_workers, int embed_workers,
                            int service_workers, int64_t batch) {
    Run run;
    auto index = std::make_shared<HnswIndex>(encoder_->dim());
    auto drift = std::make_shared<DriftMonitor>(encoder_->dim(), drift_config);
    StreamConfig config = SmallConfig();
    config.match_workers = match_workers;
    config.embed_workers = embed_workers;
    config.service.num_workers = service_workers;
    config.service.max_batch_size = batch;
    StreamPipeline pipeline({encoder_, index, drift}, world_->net.get(),
                            config);
    Recorder rec;
    pipeline.SetOnIngested(rec.Callback());
    for (const StreamItem& item : stream) {
      EXPECT_TRUE(pipeline.Push(item).ok());
    }
    pipeline.Drain();
    run.ids = std::move(rec.ids);
    run.rows = std::move(rec.rows);
    run.drift = drift->History();
    run.index_size = index->size();
    return run;
  };
  const Run base = run_once(1, 1, 1, 1);
  ASSERT_GT(base.ids.size(), 0u);
  const Run wide = run_once(3, 2, 2, 8);
  EXPECT_EQ(base.ids, wide.ids);
  EXPECT_EQ(base.index_size, wide.index_size);
  ASSERT_EQ(base.rows.size(), wide.rows.size());
  for (size_t i = 0; i < base.rows.size(); ++i) {
    ASSERT_EQ(base.rows[i].size(), wide.rows[i].size());
    EXPECT_EQ(std::memcmp(base.rows[i].data(), wide.rows[i].data(),
                          base.rows[i].size() * sizeof(float)),
              0)
        << "embedding " << i << " diverged";
  }
  ASSERT_EQ(base.drift.size(), wide.drift.size());
  for (size_t w = 0; w < base.drift.size(); ++w) {
    EXPECT_EQ(std::memcmp(&base.drift[w].mean_norm, &wide.drift[w].mean_norm,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&base.drift[w].cosine_shift,
                          &wide.drift[w].cosine_shift, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&base.drift[w].norm_shift,
                          &wide.drift[w].norm_shift, sizeof(double)),
              0);
  }
}

TEST_F(StreamPipelineTest, QueriesAndRemovesDuringIngestChurnSoak) {
  // The serving pattern end to end: ingest runs while readers query and a
  // churn thread removes already-ingested ids — the TSan soak for the whole
  // streaming plane.
  const std::vector<StreamItem> stream = MakeStream(64);
  auto index = std::make_shared<HnswIndex>(encoder_->dim());
  StreamPipeline pipeline({encoder_, index}, world_->net.get(), SmallConfig());
  std::mutex ingested_mu;
  std::vector<int64_t> ingested;
  pipeline.SetOnIngested([&](int64_t id, const traj::Trajectory&,
                             const EmbeddingRow&) {
    std::lock_guard<std::mutex> lock(ingested_mu);
    ingested.push_back(id);
  });
  std::atomic<bool> stop{false};
  std::atomic<int64_t> removed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      common::Rng rng(static_cast<uint64_t>(900 + r));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(static_cast<size_t>(encoder_->dim()));
        for (auto& v : q) v = static_cast<float>(rng.Normal());
        const auto result = index->Query(q.data(), encoder_->dim(), 5);
        ASSERT_TRUE(result.ok());
        std::set<int64_t> seen;
        for (const auto& nb : *result) {
          EXPECT_TRUE(seen.insert(nb.id).second);
        }
        const double dead = index->DeadFraction();
        EXPECT_GE(dead, 0.0);
        EXPECT_LE(dead, 1.0);
      }
    });
  }
  std::thread churner([&] {
    size_t next = 0;
    while (!stop.load(std::memory_order_acquire)) {
      int64_t victim = -1;
      {
        std::lock_guard<std::mutex> lock(ingested_mu);
        // Remove every 4th ingested id, trailing the ingest frontier.
        if (next + 4 <= ingested.size()) {
          victim = ingested[next];
          next += 4;
        }
      }
      if (victim >= 0) {
        EXPECT_TRUE(index->Remove(victim).ok());
        removed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  pipeline.Flush();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  churner.join();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(index->size() + removed.load(), s.ingested());
  EXPECT_GE(index->DeadFraction(), 0.0);
}

TEST_F(StreamPipelineTest, HotSwapSplitsStreamAtSequenceBoundary) {
  const std::vector<StreamItem> stream = MakeStream(32);
  ASSERT_GE(stream.size(), 16u);
  const size_t half = stream.size() / 2;
  auto index1 = std::make_shared<HnswIndex>(encoder_->dim());
  auto index2 = std::make_shared<HnswIndex>(encoder_->dim());
  const std::shared_ptr<const serve::FrozenEncoder> alt = MakeAltEncoder();
  StreamPipeline pipeline(
      serve::EngineBundle{encoder_, index1, nullptr},
      world_->net.get(), SmallConfig());
  Recorder rec;
  pipeline.SetOnIngested(rec.Callback());
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(pipeline.Push(stream[i]).ok());
  }
  pipeline.Flush();
  const int64_t pre = pipeline.stats().ingested();
  ASSERT_GT(pre, 0);
  const common::Status swapped = pipeline.SwapEngine({alt, index2, nullptr});
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  for (size_t i = half; i < stream.size(); ++i) {
    ASSERT_TRUE(pipeline.Push(stream[i]).ok());
  }
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(s.epoch, 1);
  EXPECT_EQ(s.swaps, 1);
  // The stream splits exactly at the swap: pre-swap items live in index1
  // only, post-swap items in index2 only.
  EXPECT_EQ(index1->size(), pre);
  EXPECT_EQ(index1->size() + index2->size(), s.ingested());
  for (size_t i = 0; i < rec.ids.size(); ++i) {
    const bool pre_swap = static_cast<int64_t>(i) < pre;
    EXPECT_EQ(index1->Contains(rec.ids[i]), pre_swap) << "id " << rec.ids[i];
    EXPECT_EQ(index2->Contains(rec.ids[i]), !pre_swap) << "id " << rec.ids[i];
  }
  // Post-swap embeddings are bitwise the NEW engine's output — the swap
  // replaced the embed service, not just the index.
  const traj::HmmMapMatcher matcher(world_->net.get(), StreamConfig().matcher);
  std::map<int64_t, const traj::GpsTrajectory*> by_id;
  for (const StreamItem& item : stream) by_id[item.id] = &item.gps;
  for (size_t i = static_cast<size_t>(pre); i < rec.ids.size(); ++i) {
    const traj::Trajectory matched =
        matcher.MatchTrajectory(*by_id[rec.ids[i]]);
    const tensor::Tensor direct =
        alt->EncodeBatch({&matched}, eval::EncodeMode::kFull);
    ASSERT_EQ(static_cast<size_t>(direct.numel()), rec.rows[i].size());
    EXPECT_EQ(std::memcmp(direct.data(), rec.rows[i].data(),
                          rec.rows[i].size() * sizeof(float)),
              0)
        << "post-swap embedding of id " << rec.ids[i]
        << " did not come from the new engine";
  }
}

TEST_F(StreamPipelineTest, SwapUnderLoadLosesNothingAndPreservesOrder) {
  const std::vector<StreamItem> stream = MakeStream(48);
  auto index1 = std::make_shared<HnswIndex>(encoder_->dim());
  auto index2 = std::make_shared<HnswIndex>(encoder_->dim());
  const std::shared_ptr<const serve::FrozenEncoder> alt = MakeAltEncoder();
  StreamPipeline pipeline(
      serve::EngineBundle{encoder_, index1, nullptr},
      world_->net.get(), SmallConfig());
  Recorder rec;
  pipeline.SetOnIngested(rec.Callback());
  // The producer pushes in bursts with pauses; the swapper starts during
  // the first burst and retries the quiescent swap until it lands, as
  // AdaptationController::SwapAndCatchUp does. Items before the swap must
  // finish on the old bundle, later ones run on the new, with nothing
  // dropped or reordered.
  std::atomic<bool> swapped{false};
  std::thread swapper([&] {
    while (pipeline.stats().ingested() < 5) std::this_thread::yield();
    for (;;) {
      if (!pipeline.WaitQuiescent(/*timeout_us=*/1000)) continue;
      const common::Status st = pipeline.SwapEngine({alt, index2, nullptr});
      if (st.ok()) break;
      // A push raced in after WaitQuiescent: refused, retry.
      ASSERT_EQ(st.code(), common::StatusCode::kFailedPrecondition)
          << st.ToString();
    }
    swapped.store(true, std::memory_order_release);
  });
  constexpr size_t kBurst = 8;
  for (size_t begin = 0; begin < stream.size(); begin += kBurst) {
    const size_t end = std::min(stream.size(), begin + kBurst);
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(pipeline.Push(stream[i]).ok());
    }
    // Pause: the burst drains, leaving the swapper a quiescent window.
    pipeline.Flush();
    for (int ms = 0; ms < 100 && !swapped.load(std::memory_order_acquire);
         ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  swapper.join();
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(s.swaps, 1);
  EXPECT_EQ(s.epoch, 1);
  // Nothing lost: every ingested item is in exactly one of the two indexes,
  // and the stream went on after the swap.
  EXPECT_EQ(index1->size() + index2->size(), s.ingested());
  EXPECT_GT(index2->size(), 0);
  for (const int64_t id : rec.ids) {
    EXPECT_NE(index1->Contains(id), index2->Contains(id))
        << "id " << id << " must live in exactly one generation";
  }
  // Nothing reordered: ingestion order is still push order.
  std::vector<int64_t> expected_ingested;
  std::set<int64_t> got(rec.ids.begin(), rec.ids.end());
  for (const StreamItem& item : stream) {
    if (got.count(item.id)) expected_ingested.push_back(item.id);
  }
  EXPECT_EQ(rec.ids, expected_ingested);
  // The split point is a single boundary in ingestion order: once an item
  // lands in the new index, no later item lands in the old one.
  bool seen_new = false;
  for (const int64_t id : rec.ids) {
    if (index2->Contains(id)) {
      seen_new = true;
    } else {
      EXPECT_FALSE(seen_new)
          << "id " << id << " landed in the old index after the swap point";
    }
  }
}

TEST_F(StreamPipelineTest, SwapRejectsInvalidBundlesAndKeepsServing) {
  const std::vector<StreamItem> stream = MakeStream(8);
  auto index1 = std::make_shared<HnswIndex>(encoder_->dim());
  StreamPipeline pipeline(
      serve::EngineBundle{encoder_, index1, nullptr},
      world_->net.get(), SmallConfig());
  const std::shared_ptr<const serve::FrozenEncoder> alt = MakeAltEncoder();
  // Null components.
  EXPECT_EQ(pipeline.SwapEngine({nullptr, index1, nullptr}).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.SwapEngine({alt, nullptr, nullptr}).code(),
            common::StatusCode::kInvalidArgument);
  // Dimension mismatch between the new index and the serving engine.
  auto wrong_dim = std::make_shared<HnswIndex>(encoder_->dim() + 1);
  EXPECT_EQ(pipeline.SwapEngine({alt, wrong_dim, nullptr}).code(),
            common::StatusCode::kInvalidArgument);
  // A drift monitor of the wrong dimensionality.
  auto wrong_drift =
      std::make_shared<DriftMonitor>(encoder_->dim() + 1, DriftConfig());
  EXPECT_EQ(pipeline.SwapEngine({alt, index1, wrong_drift}).code(),
            common::StatusCode::kInvalidArgument);
  // Every rejection left the old engine serving untouched.
  EXPECT_EQ(pipeline.stats().swaps, 0);
  EXPECT_EQ(pipeline.stats().epoch, 0);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  pipeline.Flush();
  const PipelineStats s = pipeline.stats();
  ExpectAccounted(s);
  EXPECT_EQ(index1->size(), s.ingested());
  EXPECT_GT(s.ingested(), 0);
}

TEST_F(StreamPipelineTest, SwapRefusesWhileItemsInFlight) {
  const std::vector<StreamItem> stream = MakeStream(6);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  FaultHooks hooks;
  hooks.before_stage = [&](const char* stage, int64_t seq) {
    if (std::strcmp(stage, "match") == 0 && seq == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });  // holds seq 0 in flight
    }
    return common::Status::OK();
  };
  auto index1 = std::make_shared<HnswIndex>(encoder_->dim());
  auto index2 = std::make_shared<HnswIndex>(encoder_->dim());
  const std::shared_ptr<const serve::FrozenEncoder> alt = MakeAltEncoder();
  StreamPipeline pipeline(
      serve::EngineBundle{encoder_, index1, nullptr},
      world_->net.get(), SmallConfig(), &hooks);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(pipeline.Push(item).ok());
  }
  // Seq 0 is stalled in match, so the pipeline cannot be quiescent: the
  // swap must refuse and leave the old engine serving.
  EXPECT_FALSE(pipeline.WaitQuiescent(/*timeout_us=*/1000));
  EXPECT_EQ(pipeline.SwapEngine({alt, index2, nullptr}).code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline.stats().swaps, 0);
  EXPECT_EQ(pipeline.stats().epoch, 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pipeline.Flush();
  EXPECT_TRUE(pipeline.WaitQuiescent(/*timeout_us=*/1'000'000));
  // Quiescent now: the same swap lands.
  const common::Status st = pipeline.SwapEngine({alt, index2, nullptr});
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(pipeline.stats().epoch, 1);
  // After Drain() no swap may land at all.
  pipeline.Drain();
  EXPECT_EQ(pipeline.SwapEngine({alt, index1, nullptr}).code(),
            common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace start
