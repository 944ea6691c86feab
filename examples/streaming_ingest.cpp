// Streaming ingestion demo — the live half of the serving plane, with the
// adaptation loop closed: raw GPS point streams flow through the staged
// StreamPipeline (HMM map matching -> micro-batched frozen-engine embedding
// -> in-order HNSW upsert) while similarity queries run against the same
// index, and a DriftMonitor watches the embedding distribution for the
// moment the live corpus stops looking like the one the model was trained
// on.
//
// The demo streams two phases:
//   phase 1: trips from the training fleet (same drivers, same districts) —
//            the drift reference is frozen from these windows;
//   phase 2: a redeployed fleet (new home/work anchors in other districts) —
//            the embedding mean vector moves, drift fires, and the
//            serve::AdaptationController runs one full round on a background
//            thread: warm-start fine-tune off the serving checkpoint, rebuild
//            a fresh engine + index from the recorded corpus, and hot-swap at
//            a quiescent sequence boundary while queries keep running.
//
// The process exits non-zero unless a swap actually completed (generation
// advanced past the base artifact), so CI runs this as an end-to-end smoke
// test of the adaptation loop.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "core/pretrain.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "serve/adaptation.h"
#include "serve/stream_pipeline.h"
#include "traj/map_matching.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

namespace {

/// Streams noisy GPS replays of `trips` into the controller, ids starting at
/// `id_base`. Returns how many were pushed.
int64_t StreamTrips(start::serve::AdaptationController* controller,
                    const start::roadnet::RoadNetwork& net,
                    const std::vector<start::traj::Trajectory>& trips,
                    int64_t id_base, start::common::Rng* rng) {
  int64_t pushed = 0;
  for (const auto& trip : trips) {
    start::serve::StreamItem item;
    item.id = id_base + pushed;
    item.gps = start::traj::SimulateGps(net, trip, /*sample_interval_s=*/30.0,
                                        /*noise_m=*/10.0, rng);
    if (item.gps.points.size() < 2) continue;
    if (controller->Push(std::move(item)).ok()) ++pushed;
  }
  return pushed;
}

void PrintStats(const start::serve::PipelineStats& s) {
  std::printf("  %-8s %10s %8s %8s %8s %10s %10s\n", "stage", "completed",
              "failed", "dropped", "retried", "p50 ms", "p95 ms");
  const auto row = [](const char* name, const start::serve::StageStats& st) {
    std::printf("  %-8s %10lld %8lld %8lld %8lld %10.3f %10.3f\n", name,
                static_cast<long long>(st.completed),
                static_cast<long long>(st.failed),
                static_cast<long long>(st.dropped),
                static_cast<long long>(st.retried), st.p50_ms, st.p95_ms);
  };
  row("match", s.match);
  row("embed", s.embed);
  row("upsert", s.upsert);
  std::printf("  accepted %lld -> ingested %lld, failed %lld, dropped %lld; "
              "engine epoch %lld (%lld swaps)\n",
              static_cast<long long>(s.accepted),
              static_cast<long long>(s.ingested()),
              static_cast<long long>(s.total_failed()),
              static_cast<long long>(s.total_dropped()),
              static_cast<long long>(s.epoch),
              static_cast<long long>(s.swaps));
}

}  // namespace

int main() {
  using namespace start;
  std::printf("=== streaming ingestion + adaptation example ===\n");
  const roadnet::RoadNetwork net = roadnet::BuildSyntheticCity(
      {.grid_width = 10, .grid_height = 10, .seed = 61});
  traj::TrafficModel traffic(&net, {});

  // The training fleet: phase-1 traffic comes from the same distribution.
  traj::TripGenerator::Config fleet_config;
  fleet_config.num_drivers = 10;
  fleet_config.num_days = 6;
  fleet_config.trips_per_driver_day = 4.0;
  fleet_config.seed = 62;
  traj::TripGenerator fleet(&traffic, fleet_config);
  const auto dataset = data::TrajDataset::FromCorpus(net, fleet.Generate(),
                                                     {.min_length = 6});
  const auto transfer = roadnet::TransferProbability::FromTrajectories(
      net, dataset.TrainRoadSequences());

  core::StartConfig config;
  config.d = 32;
  config.gat_heads = {4, 4, 1};
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.max_len = 96;
  common::Rng rng(63);
  core::StartModel model(config, &net, &transfer, &rng);
  std::printf("pre-training on the phase-1 fleet...\n");
  core::PretrainConfig pretrain;
  pretrain.epochs = 4;
  pretrain.batch_size = 16;
  pretrain.lr = 2e-3;
  pretrain.checkpoint_path =
      examples::RunFile("start_streaming_gen_0.sttn");
  core::Pretrain(&model, dataset.train(), &traffic, pretrain);

  // The controller owns the whole serving stack: frozen engine, HNSW index,
  // drift monitor, ingestion pipeline, and the background adaptation worker.
  serve::AdaptationConfig adapt;
  adapt.model = config;
  adapt.artifact_dir = examples::RunDir();
  adapt.base_checkpoint = pretrain.checkpoint_path;
  adapt.finetune.epochs = 1;
  adapt.finetune.batch_size = 16;
  adapt.finetune.lr = 1e-3;
  adapt.drift.window_size = 64;
  adapt.drift.reference_windows = 2;
  adapt.drift.cosine_shift_threshold = 0.02;
  adapt.stream.match_workers = 2;
  adapt.stream.embed_workers = 1;
  auto created = serve::AdaptationController::Create(adapt, &net, &transfer,
                                                     &traffic);
  if (!created.ok()) {
    std::fprintf(stderr, "controller boot failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  const auto controller = std::move(created).value();

  // Queries run against the serving index for the whole stream — including
  // straight through the hot swap. Re-fetching engine() each iteration is
  // the serving contract: the bundle a query pins stays alive even if the
  // controller swaps a new generation in underneath.
  const std::vector<traj::Trajectory> corpus = dataset.All();
  std::atomic<bool> stop_queries{false};
  std::atomic<int64_t> queries_served{0};
  std::thread querier([&] {
    common::Rng qrng(64);
    while (!stop_queries.load(std::memory_order_acquire)) {
      const serve::EngineBundle engine = controller->engine();
      if (engine.index->size() == 0) continue;
      const auto probe = engine.encoder->EncodeBatch(
          {&corpus[static_cast<size_t>(
              qrng.UniformInt(static_cast<int64_t>(corpus.size())))]},
          eval::EncodeMode::kFull);
      if (engine.index->Query(probe.data(), engine.encoder->dim(), 5).ok()) {
        queries_served.fetch_add(1);
      }
    }
  });

  std::printf("phase 1: streaming the training fleet...\n");
  common::Rng gps_rng(65);
  common::Stopwatch timer;
  const int64_t phase1 = StreamTrips(controller.get(), net, corpus, 0,
                                     &gps_rng);
  controller->Flush();
  std::printf("phase 1 done: %lld trips pushed, %lld in index, "
              "%.0f trajs/sec\n",
              static_cast<long long>(phase1),
              static_cast<long long>(controller->engine().index->size()),
              static_cast<double>(controller->pipeline()->stats().ingested()) /
                  timer.ElapsedSeconds());

  // Phase 2: the fleet redeploys — new drivers with home/work anchors in
  // different districts. Same roads, same model, different trip
  // distribution: the embedding mean moves, the monitor notices, and the
  // controller runs the adaptation round on its own.
  std::printf("phase 2: streaming the redeployed fleet...\n");
  traj::TripGenerator::Config moved_config = fleet_config;
  moved_config.seed = 66;  // re-rolls every driver's anchor districts
  moved_config.zone_radius_m = 250.0;
  traj::TripGenerator moved_fleet(&traffic, moved_config);
  const auto moved = data::TrajDataset::FromCorpus(net, moved_fleet.Generate(),
                                                   {.min_length = 6});
  const int64_t phase2 =
      StreamTrips(controller.get(), net, moved.All(), 1000000, &gps_rng);
  controller->Flush();

  // Let the drift-triggered round finish: warm-start fine-tune, rebuild,
  // quiescent hot-swap, catch-up, persist.
  if (!controller->WaitUntilIdle(/*timeout_us=*/300'000'000)) {
    std::fprintf(stderr, "adaptation round did not finish in time\n");
    return 1;
  }
  stop_queries.store(true, std::memory_order_release);
  querier.join();

  const serve::AdaptationStats stats = controller->stats();
  std::printf("phase 2 done: %lld trips pushed, %lld in index, %lld queries "
              "served during ingest\n",
              static_cast<long long>(phase2),
              static_cast<long long>(controller->engine().index->size()),
              static_cast<long long>(queries_served.load()));
  std::printf("adaptation: %lld drift triggers -> %lld rounds completed "
              "(%lld failed, %lld skipped), generation %lld, %lld catch-up "
              "items, now serving %s\n",
              static_cast<long long>(stats.drift_triggers),
              static_cast<long long>(stats.rounds_completed),
              static_cast<long long>(stats.rounds_failed),
              static_cast<long long>(stats.rounds_skipped),
              static_cast<long long>(stats.generation),
              static_cast<long long>(stats.catch_up_items),
              controller->serving_checkpoint().c_str());
  std::printf("pipeline stats:\n");
  PrintStats(controller->pipeline()->stats());

  if (stats.drift_triggers == 0) {
    std::fprintf(stderr, "expected the redeployed fleet to trip the drift "
                         "monitor and it did not\n");
    return 1;
  }
  if (stats.generation < 1 || stats.rounds_completed < 1) {
    std::fprintf(stderr, "expected the drift-triggered round to complete a "
                         "hot swap (last error: %s)\n",
                 stats.last_error.c_str());
    return 1;
  }
  std::printf("done.\n");
  return 0;
}
