// Adaptation-loop churn soak (the `soak` ctest label, run under the TSan CI
// job with an extended timeout): bursts of ingest interleave with
// concurrent readers querying the hot-swappable serving index, a churn
// thread removing already-ingested ids, and repeated retrain + compaction
// rounds — the whole closed loop under fire at once. The soak asserts the
// invariants that must survive arbitrary interleavings (accounting
// identity, epoch == swaps, every round accounted, no lost live id after a
// final quiescent round) and leaves data-race detection to TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "serve/adaptation.h"
#include "serve/stream_pipeline.h"
#include "testing.h"

namespace start {
namespace {

using serve::AdaptationConfig;
using serve::AdaptationController;
using serve::AdaptationState;
using serve::AdaptationStats;
using serve::PipelineStats;
using serve::StreamItem;

constexpr int64_t kIdleTimeoutUs = 300'000'000;

TEST(AdaptationSoakTest, ChurnWithConcurrentQueriesRemovalsAndRounds) {
  const auto world = testutil::MakeTinyWorld();
  const core::StartConfig model_config = testutil::TinyStartConfig();
  testutil::TempDir dir;

  AdaptationConfig config;
  config.model = model_config;
  config.artifact_dir = dir.path();
  config.base_checkpoint = dir.File("base.sttn");
  config.finetune.epochs = 1;
  config.finetune.batch_size = 8;
  config.drift.window_size = 1 << 20;  // rounds are triggered explicitly
  config.stream.match_workers = 2;
  config.stream.embed_workers = 2;
  config.stream.service.max_batch_size = 8;
  config.stream.service.batch_deadline_us = 50;
  config.corpus_capacity = 64;
  config.min_retrain_corpus = 8;
  config.swap_timeout_us = 10'000'000;
  // The churner removes every 4th id, so the first burst's removals alone
  // cross this and Remove() schedules a real compaction swap (the 0.5
  // default is never reached).
  config.compact_dead_fraction = 0.1;
  {
    common::Rng rng(7);
    core::StartModel model(model_config, world->net.get(),
                           world->transfer.get(), &rng);
    ASSERT_TRUE(core::SaveModelCheckpoint(
                    config.base_checkpoint, model,
                    core::HashStartConfig(model_config))
                    .ok());
  }
  auto created = AdaptationController::Create(config, world->net.get(),
                                              world->transfer.get(),
                                              world->traffic.get());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto controller = std::move(created.value());

  // The full stream, pushed in bursts with a flush between them so the
  // pipeline periodically offers quiescent windows for swaps to land in.
  constexpr int64_t kBursts = 8;
  constexpr int64_t kBurstSize = 12;
  std::vector<StreamItem> stream;
  {
    common::Rng rng(99);
    int64_t id = 0;
    size_t trip = 0;
    while (static_cast<int64_t>(stream.size()) < kBursts * kBurstSize) {
      StreamItem item;
      item.id = id++;
      item.gps = traj::SimulateGps(
          *world->net, world->corpus[trip++ % world->corpus.size()],
          /*sample_interval_s=*/30.0, /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) stream.push_back(std::move(item));
    }
  }

  std::atomic<bool> stop_readers{false};
  std::atomic<bool> stop_churn{false};
  std::atomic<int64_t> flushed_frontier{0};  // ids < frontier were flushed
  std::atomic<int64_t> churn_next{0};  // the churner's next victim id
  std::mutex removed_mu;
  std::set<int64_t> removed;

  // Readers hammer the serving bundle across swaps: engine() is re-fetched
  // every iteration, so queries keep racing compaction and retrain swaps.
  const int64_t dim = controller->engine().encoder->dim();
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      common::Rng rng(static_cast<uint64_t>(700 + r));
      while (!stop_readers.load(std::memory_order_acquire)) {
        std::vector<float> q(static_cast<size_t>(dim));
        for (auto& v : q) v = static_cast<float>(rng.Normal());
        const auto index = controller->engine().index;
        const auto result = index->Query(q.data(), dim, 5);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) continue;
        std::set<int64_t> seen;
        for (const auto& nb : *result) {
          EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate neighbor";
        }
      }
    });
  }

  // The churn thread removes every 4th flushed id, trailing the frontier
  // while the next burst ingests. (Trailing the pushed frontier instead
  // would race every removal ahead of its item's upsert.) NotFound is a
  // legal outcome (the id may have failed matching or been shed); anything
  // else is not.
  std::thread churner([&] {
    int64_t next = 0;
    while (!stop_churn.load(std::memory_order_acquire)) {
      if (next + 4 <= flushed_frontier.load(std::memory_order_acquire)) {
        const int64_t victim = next;
        next += 4;
        const common::Status st = controller->Remove(victim);
        if (st.ok()) {
          std::lock_guard<std::mutex> lock(removed_mu);
          removed.insert(victim);
        } else {
          EXPECT_EQ(st.code(), common::StatusCode::kNotFound)
              << st.ToString();
        }
        churn_next.store(next, std::memory_order_release);
      } else {
        std::this_thread::yield();
      }
    }
  });

  // Producer: bursts with interleaved retrain triggers, all while the
  // readers and the churner keep running; compactions are scheduled by the
  // churner's removals.
  size_t cursor = 0;
  for (int64_t burst = 0; burst < kBursts; ++burst) {
    for (int64_t i = 0; i < kBurstSize && cursor < stream.size();
         ++i, ++cursor) {
      ASSERT_TRUE(controller->Push(stream[cursor]).ok());
    }
    controller->Flush();
    const int64_t frontier = stream[cursor - 1].id + 1;
    flushed_frontier.store(frontier, std::memory_order_release);
    if (burst == 0) {
      // The first burst's removals and the compaction they schedule land
      // before any retrain is triggered (a retrain landing first would
      // replace the tombstoned index); later compactions race the rounds.
      while (churn_next.load(std::memory_order_acquire) + 4 <= frontier) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
    }
    if (burst % 3 == 1) controller->TriggerRetrain();
  }
  // Quiesce the churn before the final round: a Remove() racing a swap may
  // legitimately resurrect an id in the new index until the NEXT round (the
  // documented convergence window), so the exact end-state checks below
  // need removals to have stopped first. The readers keep hammering.
  stop_churn.store(true, std::memory_order_release);
  churner.join();
  // One final quiescent round so the catch-up contract is checkable below.
  controller->Flush();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
  controller->TriggerRetrain();
  ASSERT_TRUE(controller->WaitUntilIdle(kIdleTimeoutUs));
  stop_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const AdaptationStats s = controller->stats();
  const PipelineStats p = controller->pipeline()->stats();
  // Pipeline accounting survived the churn.
  EXPECT_EQ(p.in_flight, 0);
  EXPECT_EQ(p.accepted, p.ingested() + p.total_failed() + p.embed.dropped +
                            p.upsert.dropped);
  // Every successful swap moved the epoch, and every swap is accounted to
  // exactly one completed retrain round or compaction.
  EXPECT_EQ(p.swaps, p.epoch);
  EXPECT_EQ(p.swaps, s.rounds_completed + s.compactions);
  EXPECT_GE(s.compactions, 1);
  EXPECT_LE(s.rounds_completed, s.rounds_started);
  EXPECT_EQ(s.state, AdaptationState::kServing);
  // The final (quiescent, uncontended) round must have landed.
  EXPECT_GE(s.rounds_completed, 1);
  EXPECT_GE(s.generation, 1);
  // Post-round catch-up contract: after the final round the serving index
  // is exactly the recorded corpus — nothing lost, nothing resurrected.
  const auto index = controller->engine().index;
  int64_t live = 0;
  {
    std::lock_guard<std::mutex> lock(removed_mu);
    for (const StreamItem& item : stream) {
      if (index->Contains(item.id)) {
        ++live;
        EXPECT_EQ(removed.count(item.id), 0u)
            << "removed id " << item.id << " resurrected";
      }
    }
  }
  EXPECT_EQ(index->size(), live);
  EXPECT_EQ(index->size(), s.corpus_size);
}

}  // namespace
}  // namespace start
