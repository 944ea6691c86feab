// Thread-safety contract of the serving plane, run under ThreadSanitizer in
// CI: N client threads hammering one EmbeddingService must (a) be race-free,
// (b) produce embeddings bitwise identical to serial FrozenEncoder encodes
// regardless of how requests were coalesced into micro-batches, (c)
// drain cleanly through backpressure and shutdown, and (d) join every
// thread they start, as does the StreamPipeline built on them.
#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "serve/stream_pipeline.h"
#include "traj/trip_generator.h"

namespace start {
namespace {

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_ = new roadnet::RoadNetwork(roadnet::BuildSyntheticCity(
        {.grid_width = 5, .grid_height = 5, .seed = 8}));
    traffic_ = new traj::TrafficModel(city_, {});
    traj::TripGenerator::Config config;
    config.num_drivers = 5;
    config.num_days = 5;
    config.trips_per_driver_day = 3.0;
    config.seed = 21;
    traj::TripGenerator gen(traffic_, config);
    data::DatasetConfig ds;
    ds.min_length = 5;
    ds.min_user_trajectories = 2;
    corpus_ = new std::vector<traj::Trajectory>(
        data::TrajDataset::FromCorpus(*city_, gen.Generate(), ds).All());
    ASSERT_GE(corpus_->size(), 8u);
    transfer_ = new roadnet::TransferProbability(
        roadnet::TransferProbability::FromTrajectories(*city_, [] {
          std::vector<std::vector<int64_t>> seqs;
          for (const auto& t : *corpus_) seqs.push_back(t.roads);
          return seqs;
        }()));
    core::StartConfig model_config;
    model_config.d = 16;
    model_config.gat_layers = 2;
    model_config.gat_heads = {4, 1};
    model_config.encoder_layers = 1;
    model_config.encoder_heads = 2;
    model_config.max_len = 96;
    common::Rng rng(13);
    core::StartModel model(model_config, city_, transfer_, &rng);
    const std::string path =
        std::string(::testing::TempDir()) + "/serve_conc_model.sttn";
    ASSERT_TRUE(core::SaveModelCheckpoint(
                    path, model, core::HashStartConfig(model_config))
                    .ok());
    auto loaded =
        serve::FrozenEncoder::Load(path, model_config, city_, transfer_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    frozen_ = std::move(loaded).value().release();
  }

  static void TearDownTestSuite() {
    delete frozen_;
    delete transfer_;
    delete corpus_;
    delete traffic_;
    delete city_;
    frozen_ = nullptr;
    transfer_ = nullptr;
    corpus_ = nullptr;
    traffic_ = nullptr;
    city_ = nullptr;
  }

  static roadnet::RoadNetwork* city_;
  static traj::TrafficModel* traffic_;
  static std::vector<traj::Trajectory>* corpus_;
  static roadnet::TransferProbability* transfer_;
  static serve::FrozenEncoder* frozen_;
};

roadnet::RoadNetwork* ServeConcurrencyTest::city_ = nullptr;
traj::TrafficModel* ServeConcurrencyTest::traffic_ = nullptr;
std::vector<traj::Trajectory>* ServeConcurrencyTest::corpus_ = nullptr;
roadnet::TransferProbability* ServeConcurrencyTest::transfer_ = nullptr;
serve::FrozenEncoder* ServeConcurrencyTest::frozen_ = nullptr;

TEST_F(ServeConcurrencyTest, ConcurrentFrozenEncodesAreRaceFree) {
  // The engine itself, with no service in front: concurrent const encodes
  // from raw threads must be race-free and deterministic.
  const std::vector<const traj::Trajectory*> batch = {&(*corpus_)[0],
                                                      &(*corpus_)[1]};
  const tensor::Tensor expected =
      frozen_->EncodeBatch(batch, eval::EncodeMode::kFull);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        const tensor::Tensor got =
            frozen_->EncodeBatch(batch, eval::EncodeMode::kFull);
        ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                              static_cast<size_t>(got.numel()) *
                                  sizeof(float)),
                  0);
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(ServeConcurrencyTest, ClientsTimesRequestsBitwiseMatchSerial) {
  const int kClients = 4;
  const int kRequestsPerClient = 24;
  // Serial reference: every trajectory encoded alone, no coalescing.
  std::vector<std::vector<float>> serial(corpus_->size());
  for (size_t i = 0; i < corpus_->size(); ++i) {
    const tensor::Tensor row =
        frozen_->EncodeBatch({&(*corpus_)[i]}, eval::EncodeMode::kFull);
    serial[i].assign(row.data(), row.data() + row.numel());
  }

  serve::ServiceConfig sc;
  sc.num_workers = 2;
  sc.max_batch_size = 8;
  // Generous window so coalescing reliably happens even under TSan's
  // slowdown — the coalescing assertion below depends on it.
  sc.batch_deadline_us = 2000;
  serve::EmbeddingService service(frozen_, sc);
  std::vector<std::thread> clients;
  std::vector<std::string> failures[kClients];
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the corpus from its own offset, so concurrent
      // batches mix different trajectories and lengths.
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t idx =
            (static_cast<size_t>(c) * 7 + static_cast<size_t>(r)) %
            corpus_->size();
        auto result = service.Encode((*corpus_)[idx]);
        if (!result.ok()) {
          failures[c].push_back(result.status().ToString());
          continue;
        }
        const serve::EmbeddingRow row = result.value().get();
        if (std::memcmp(row.data(), serial[idx].data(),
                        serial[idx].size() * sizeof(float)) != 0) {
          failures[c].push_back("bitwise mismatch for trajectory " +
                                std::to_string(idx));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (const auto& f : failures[c]) {
      ADD_FAILURE() << "client " << c << ": " << f;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<int64_t>(kClients) * kRequestsPerClient);
  // Concurrency must actually coalesce *some* requests: with 4 clients in
  // flight and a 2 ms coalescing window, at least one of the 96 batches
  // must have carried more than one request (batches < requests). A mean of
  // exactly 1.0 would mean the micro-batcher degenerated to
  // one-request-per-batch.
  EXPECT_GT(stats.coalescing(), 1.0);
}

TEST_F(ServeConcurrencyTest, BackpressureBoundsQueueAndCompletes) {
  serve::ServiceConfig sc;
  sc.num_workers = 1;
  sc.max_batch_size = 4;
  sc.max_queue_depth = 4;  // tiny: producers must block and resume
  sc.batch_deadline_us = 0;
  serve::EmbeddingService service(frozen_, sc);
  std::vector<std::thread> producers;
  std::atomic<int> ok_count{0};
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (int r = 0; r < 40; ++r) {
        const size_t idx = static_cast<size_t>(p * 11 + r) % corpus_->size();
        auto result = service.Encode((*corpus_)[idx]);
        ASSERT_TRUE(result.ok());
        result.value().get();
        ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ok_count.load(), 3 * 40);
}

TEST_F(ServeConcurrencyTest, ShutdownDrainsPendingRequests) {
  std::vector<std::future<serve::EmbeddingRow>> futures;
  {
    serve::ServiceConfig sc;
    sc.num_workers = 1;
    sc.batch_deadline_us = 50000;  // long window: requests queue up
    serve::EmbeddingService service(frozen_, sc);
    for (int i = 0; i < 12; ++i) {
      auto result =
          service.Encode((*corpus_)[static_cast<size_t>(i) % corpus_->size()]);
      ASSERT_TRUE(result.ok());
      futures.push_back(std::move(result).value());
    }
    // Destructor runs here with most requests still queued.
  }
  for (auto& f : futures) {
    const serve::EmbeddingRow row = f.get();  // must be fulfilled, not broken
    EXPECT_TRUE(row.defined());
  }
}

TEST_F(ServeConcurrencyTest, IdleWorkerSkipsCoalescingWait) {
  // A worker waits for company only when it is the last free one
  // (ServiceConfig::batch_deadline_us). With a second worker and a second
  // CPU free, requests must be encoded at once, not after the 10 s window.
  if (common::UsableCpuCount() < 2) GTEST_SKIP() << "needs 2 usable CPUs";
  serve::ServiceConfig sc;
  sc.num_workers = 2;
  sc.batch_deadline_us = 10'000'000;
  serve::EmbeddingService service(frozen_, sc);
  auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  auto result = service.EncodeSync((*corpus_)[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(elapsed_ms(), 5000);

  // Bursts of requests keep both workers busy: whichever worker coalesces
  // is released as soon as the other finishes encoding, and a worker that
  // finishes does not start a second deadline wait of its own. No
  // interleaving may wait out the window; the rounds give a wrong wait more
  // chances to show.
  start = std::chrono::steady_clock::now();
  for (int round = 0; round < 10; ++round) {
    std::vector<std::future<serve::EmbeddingRow>> futures;
    for (size_t i = 0; i < 4; ++i) {
      auto submitted = service.Encode((*corpus_)[i % corpus_->size()]);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted).value());
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_LT(elapsed_ms(), 5000);
}

#ifdef __linux__
TEST_F(ServeConcurrencyTest, OneCpuServiceCoalescesUnderDeadline) {
  // On one CPU a second worker could only contend for the core, so every
  // batch waits out the coalescing window, and requests queued meanwhile
  // share it. Workers inherit the affinity of the thread that starts them.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  serve::ServiceConfig sc;
  sc.num_workers = 2;
  sc.batch_deadline_us = 300'000;
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned_cpus = common::UsableCpuCount();
  auto service = std::make_unique<serve::EmbeddingService>(frozen_, sc);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  ASSERT_EQ(pinned_cpus, 1);

  const auto start = std::chrono::steady_clock::now();
  auto result = service->EncodeSync((*corpus_)[0]);
  const int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(elapsed_ms, 300);

  // Four copies of one trajectory (one length bucket) queued within the
  // window come out of a single engine call.
  std::vector<std::future<serve::EmbeddingRow>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted = service->Encode((*corpus_)[1]);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (auto& f : futures) f.get();
  const serve::ServiceStats stats = service->stats();
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.batches, 2);
}
#endif  // __linux__

TEST_F(ServeConcurrencyTest, MixedModesNeverShareABatch) {
  serve::ServiceConfig sc;
  sc.num_workers = 2;
  sc.batch_deadline_us = 300;
  serve::EmbeddingService service(frozen_, sc);
  const traj::Trajectory& t = (*corpus_)[0];
  const tensor::Tensor full =
      frozen_->EncodeBatch({&t}, eval::EncodeMode::kFull);
  const tensor::Tensor eta =
      frozen_->EncodeBatch({&t}, eval::EncodeMode::kDepartureOnly);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const eval::EncodeMode mode = c == 0
                                        ? eval::EncodeMode::kFull
                                        : eval::EncodeMode::kDepartureOnly;
      const tensor::Tensor& expected = c == 0 ? full : eta;
      for (int r = 0; r < 16; ++r) {
        auto result = service.Encode(t, mode);
        ASSERT_TRUE(result.ok());
        const serve::EmbeddingRow row = result.value().get();
        ASSERT_EQ(std::memcmp(row.data(), expected.data(),
                              static_cast<size_t>(row.dim()) * sizeof(float)),
                  0);
      }
    });
  }
  for (auto& t2 : clients) t2.join();
}

TEST_F(ServeConcurrencyTest, IndexReadersAndWritersCoexist) {
  const int64_t d = 8;
  serve::EmbeddingIndex index(d);
  common::Rng seed_rng(5);
  std::vector<float> base(static_cast<size_t>(64 * d));
  for (auto& v : base) v = static_cast<float>(seed_rng.Normal());
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 64; ++i) ids.push_back(i);
  ASSERT_TRUE(index.AddBatch(ids, base).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Churn ids [1000, 1020) while readers query: exercises the
    // shared_mutex writer path against concurrent readers.
    common::Rng rng(17);
    for (int round = 0; round < 50; ++round) {
      for (int64_t id = 1000; id < 1020; ++id) {
        std::vector<float> row(static_cast<size_t>(d));
        for (auto& v : row) v = static_cast<float>(rng.Normal());
        ASSERT_TRUE(index.Add(id, row).ok());
      }
      for (int64_t id = 1000; id < 1020; ++id) {
        ASSERT_TRUE(index.Remove(id).ok());
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 3; ++rdr) {
    readers.emplace_back([&, rdr] {
      common::Rng rng(100 + rdr);
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<float> q(static_cast<size_t>(d));
        for (auto& v : q) v = static_cast<float>(rng.Normal());
        const auto result = index.Query(q, 5);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->size(), 5u);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(index.size(), 64);
}

/// Entries of /proc/self/task (one per thread of this process), or -1 where
/// it cannot be read.
int CountThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  int n = 0;
  for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

/// The thread count once it has held still for 10 ms (giving up after 2 s):
/// a joined thread can stay listed for a moment after join returns, while
/// the kernel finishes its exit.
int StableThreadCount() {
  int n = CountThreads();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int next = CountThreads();
    if (next == n) break;
    n = next;
  }
  return n;
}

TEST_F(ServeConcurrencyTest, ShutdownJoinsEveryThreadItStarted) {
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation; let that happen before the baseline is taken.
  std::thread([] {}).join();
  const int baseline = StableThreadCount();
  if (baseline < 0) GTEST_SKIP() << "/proc/self/task is unreadable";
  {
    serve::ServiceConfig config;
    config.num_workers = 3;
    serve::EmbeddingService service(frozen_, config);
    EXPECT_EQ(CountThreads(), baseline + 3);
  }
  EXPECT_EQ(StableThreadCount(), baseline);

  // The pipeline's stage threads plus its EmbeddingService's workers; a
  // second Drain() finds nothing left to join.
  serve::StreamPipeline pipeline(
      {std::shared_ptr<const serve::FrozenEncoder>(
           frozen_, [](const serve::FrozenEncoder*) {}),
       std::make_shared<serve::EmbeddingIndex>(frozen_->dim()), nullptr},
      city_);
  EXPECT_GT(CountThreads(), baseline);
  pipeline.Drain();
  EXPECT_EQ(StableThreadCount(), baseline);
  pipeline.Drain();
  EXPECT_EQ(StableThreadCount(), baseline);
}

}  // namespace
}  // namespace start
