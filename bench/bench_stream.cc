// Streaming-ingestion benchmark: drives the live pipeline end to end — GPS
// point streams through HMM map matching, micro-batched frozen-engine
// embedding, and in-order HNSW upserts — and emits BENCH_stream.json for CI
// tracking.
//
// Three measurements:
//  1. Pure ingest: trajectories/sec through the full match -> embed ->
//     upsert pipeline (hard gate: >= 1000 trajs/sec), with per-stage
//     p50/p95 latencies.
//  2. Mixed load: a second ingest phase while a query thread hammers the
//     same HNSW index — concurrent query qps and p50/p95 latency (the p95
//     is regression-gated, lower-is-better, vs the committed baseline).
//  3. Retrieval quality under streaming writes: recall@10 of the quiesced
//     HNSW index against an exact oracle built from the very same
//     (id, embedding) pairs the pipeline ingested (hard gate: >= 0.95),
//     plus the drift monitor's window statistics over the whole run and
//     the pipeline's accounting identity (hard gate: every accepted item
//     accounted ingested/failed/dropped).
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_stream
//   ./build/bench_stream
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "serve/adaptation.h"
#include "serve/drift_monitor.h"
#include "serve/embedding_index.h"
#include "serve/frozen_encoder.h"
#include "serve/hnsw_index.h"
#include "serve/stream_pipeline.h"
#include "traj/map_matching.h"
#include "traj/trip_generator.h"

namespace {

using start::common::Rng;
using start::common::Stopwatch;

struct World {
  std::unique_ptr<start::roadnet::RoadNetwork> net;
  std::unique_ptr<start::traj::TrafficModel> traffic;
  std::unique_ptr<start::roadnet::TransferProbability> transfer;
  std::vector<start::traj::Trajectory> corpus;
};

World BuildWorld() {
  World w;
  // Streaming-representative scale: a mid-size city — map matching scans
  // segment geometry per GPS fix, so the city size is the knob that makes
  // the match stage (the CPU-bound one) realistic rather than free.
  w.net = std::make_unique<start::roadnet::RoadNetwork>(
      start::roadnet::BuildSyntheticCity(
          {.grid_width = 12, .grid_height = 12, .seed = 51}));
  w.traffic = std::make_unique<start::traj::TrafficModel>(
      w.net.get(), start::traj::TrafficModel::Config{});
  start::traj::TripGenerator::Config config;
  config.num_drivers = 12;
  config.num_days = 6;
  config.trips_per_driver_day = 4.0;
  config.seed = 52;
  start::traj::TripGenerator gen(w.traffic.get(), config);
  start::data::DatasetConfig ds;
  ds.min_length = 6;
  ds.min_user_trajectories = 2;
  w.corpus = start::data::TrajDataset::FromCorpus(*w.net, gen.Generate(), ds)
                 .All();
  w.transfer = std::make_unique<start::roadnet::TransferProbability>(
      start::roadnet::TransferProbability::FromTrajectories(*w.net, [&] {
        std::vector<std::vector<int64_t>> seqs;
        for (const auto& t : w.corpus) seqs.push_back(t.roads);
        return seqs;
      }()));
  return w;
}

/// `passes` noisy GPS replays of the corpus, with unique ids per pass.
std::vector<start::serve::StreamItem> MakeStream(const World& w,
                                                 int64_t passes,
                                                 int64_t id_base,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<start::serve::StreamItem> items;
  for (int64_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < w.corpus.size(); ++i) {
      start::serve::StreamItem item;
      item.id = id_base + pass * 100000 + static_cast<int64_t>(i);
      item.gps = start::traj::SimulateGps(*w.net, w.corpus[i],
                                          /*sample_interval_s=*/30.0,
                                          /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) items.push_back(std::move(item));
    }
  }
  return items;
}

double Percentile(std::vector<double> ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const size_t idx = static_cast<size_t>(static_cast<double>(ms.size()) * p);
  return ms[std::min(idx, ms.size() - 1)];
}

}  // namespace

int main() {
  std::printf("=== bench_stream: streaming ingestion pipeline ===\n");
  const World w = BuildWorld();
  std::printf("corpus: %zu trips over %lld road segments\n", w.corpus.size(),
              static_cast<long long>(w.net->num_segments()));

  start::core::StartConfig config;
  config.d = 32;
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.gat_layers = 2;
  config.gat_heads = {4, 1};
  config.max_len = 160;
  Rng rng(53);
  start::core::StartModel model(config, w.net.get(), w.transfer.get(), &rng);
  const std::string checkpoint = "bench_stream_model.sttn";
  {
    const auto st = start::core::SaveModelCheckpoint(
        checkpoint, model, start::core::HashStartConfig(config));
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  auto loaded = start::serve::FrozenEncoder::Load(checkpoint, config,
                                                  w.net.get(),
                                                  w.transfer.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "frozen load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const std::shared_ptr<const start::serve::FrozenEncoder> frozen =
      std::move(loaded).value();
  const int64_t d = frozen->dim();

  auto index = std::make_shared<start::serve::HnswIndex>(d);
  start::serve::DriftConfig drift_config;
  drift_config.window_size = 256;
  auto drift = std::make_shared<start::serve::DriftMonitor>(d, drift_config);

  start::serve::StreamConfig stream_config;
  stream_config.match_workers = 2;
  stream_config.embed_workers = 2;
  stream_config.service.max_batch_size = 16;
  stream_config.service.batch_deadline_us = 100;
  start::serve::StreamPipeline pipeline({frozen, index, drift}, w.net.get(),
                                        stream_config);
  // The oracle mirror: every ingested (id, row) also lands in the exact
  // index, so recall is measured against exactly what was served.
  start::serve::EmbeddingIndex exact(d);
  std::vector<float> ingested_rows;  // sample pool for query vectors
  std::mutex rows_mu;
  pipeline.SetOnIngested([&](int64_t id, const start::traj::Trajectory&,
                             const start::serve::EmbeddingRow& row) {
    if (!exact.Add(id, row.data(), row.dim()).ok()) std::abort();
    std::lock_guard<std::mutex> lock(rows_mu);
    ingested_rows.insert(ingested_rows.end(), row.data(),
                         row.data() + row.dim());
  });

  // 1. Pure ingest phase.
  const auto phase_a = MakeStream(w, /*passes=*/6, /*id_base=*/0, 54);
  Stopwatch ingest_timer;
  for (const auto& item : phase_a) {
    if (!pipeline.Push(item).ok()) {
      std::fprintf(stderr, "push rejected mid-stream\n");
      return 1;
    }
  }
  pipeline.Flush();
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  const auto stats_a = pipeline.stats();
  const double ingest_rate =
      static_cast<double>(stats_a.ingested()) / ingest_seconds;
  std::printf("pure ingest: %lld trajs in %.2fs -> %.0f trajs/sec "
              "(match p95 %.3fms, embed p95 %.3fms, upsert p95 %.3fms)\n",
              static_cast<long long>(stats_a.ingested()), ingest_seconds,
              ingest_rate, stats_a.match.p95_ms, stats_a.embed.p95_ms,
              stats_a.upsert.p95_ms);

  // 2. Mixed phase: keep ingesting while a query thread hits the index.
  const auto phase_b = MakeStream(w, /*passes=*/3, /*id_base=*/50000000, 55);
  std::atomic<bool> stop_queries{false};
  std::vector<double> query_ms;
  std::thread querier([&] {
    Rng qrng(56);
    std::vector<float> q(static_cast<size_t>(d));
    while (!stop_queries.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(rows_mu);
        const int64_t rows =
            static_cast<int64_t>(ingested_rows.size()) / d;
        const int64_t pick = qrng.UniformInt(rows);
        for (int64_t j = 0; j < d; ++j) {
          q[static_cast<size_t>(j)] =
              ingested_rows[static_cast<size_t>(pick * d + j)] +
              static_cast<float>(qrng.Normal(0.0, 0.01));
        }
      }
      Stopwatch qt;
      const auto result = index->Query(q.data(), d, 10);
      if (!result.ok()) std::abort();
      query_ms.push_back(qt.ElapsedMillis());
    }
  });
  Stopwatch mixed_timer;
  for (const auto& item : phase_b) {
    if (!pipeline.Push(item).ok()) {
      std::fprintf(stderr, "push rejected mid-stream\n");
      return 1;
    }
  }
  pipeline.Flush();
  const double mixed_seconds = mixed_timer.ElapsedSeconds();
  stop_queries.store(true, std::memory_order_release);
  querier.join();
  const auto stats_b = pipeline.stats();
  const int64_t mixed_ingested = stats_b.ingested() - stats_a.ingested();
  const double mixed_ingest_rate =
      static_cast<double>(mixed_ingested) / mixed_seconds;
  const double query_qps =
      static_cast<double>(query_ms.size()) / mixed_seconds;
  const double query_p50 = Percentile(query_ms, 0.50);
  const double query_p95 = Percentile(query_ms, 0.95);
  std::printf("mixed load: ingest %.0f trajs/sec while serving %.0f qps "
              "(query p50 %.3fms, p95 %.3fms)\n",
              mixed_ingest_rate, query_qps, query_p50, query_p95);

  pipeline.Drain();
  const auto stats = pipeline.stats();
  const bool accounted =
      stats.in_flight == 0 &&
      stats.accepted == stats.ingested() + stats.total_failed() +
                            stats.embed.dropped + stats.upsert.dropped;

  // 3. Recall of the quiesced streamed index vs the exact oracle.
  const int64_t kQueries = 200;
  Rng recall_rng(57);
  double recall_sum = 0.0;
  for (int64_t qi = 0; qi < kQueries; ++qi) {
    std::vector<float> q(static_cast<size_t>(d));
    const int64_t rows = static_cast<int64_t>(ingested_rows.size()) / d;
    const int64_t pick = recall_rng.UniformInt(rows);
    for (int64_t j = 0; j < d; ++j) {
      q[static_cast<size_t>(j)] =
          ingested_rows[static_cast<size_t>(pick * d + j)] +
          static_cast<float>(recall_rng.Normal(0.0, 0.05));
    }
    const auto truth = exact.Query(q.data(), d, 10);
    const auto got = index->Query(q.data(), d, 10);
    if (!truth.ok() || !got.ok()) std::abort();
    int64_t overlap = 0;
    for (const auto& nb : *got) {
      for (const auto& tb : *truth) {
        if (nb.id == tb.id) {
          ++overlap;
          break;
        }
      }
    }
    recall_sum +=
        static_cast<double>(overlap) / static_cast<double>(truth->size());
  }
  const double recall = recall_sum / static_cast<double>(kQueries);
  std::printf("quiesced recall@10 vs exact oracle: %.4f over %lld rows\n",
              recall, static_cast<long long>(index->size()));
  std::printf("drift: %lld windows, %lld events\n",
              static_cast<long long>(drift->windows_completed()),
              static_cast<long long>(drift->drift_events()));

  // 4. The adaptation loop end to end: a controller boots from the same
  //    checkpoint, ingests a replay stream, and a triggered round
  //    warm-start fine-tunes off it, rebuilds the index under the new
  //    engine, and hot-swaps with catch-up — then the post-swap serving
  //    index must hold recall@10 >= 0.95 against an exact oracle of the
  //    NEW engine's own embeddings (hard gate).
  start::serve::AdaptationConfig adapt;
  adapt.model = config;
  adapt.artifact_dir = ".";
  adapt.base_checkpoint = checkpoint;
  adapt.finetune.epochs = 1;
  adapt.finetune.batch_size = 16;
  adapt.drift.window_size = 1 << 30;  // the round is triggered explicitly
  adapt.stream = stream_config;
  adapt.corpus_capacity = 4096;
  adapt.min_retrain_corpus = 32;
  auto created = start::serve::AdaptationController::Create(
      adapt, w.net.get(), w.transfer.get(), w.traffic.get());
  if (!created.ok()) {
    std::fprintf(stderr, "adaptation boot failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto controller = std::move(created.value());
  const auto phase_c = MakeStream(w, /*passes=*/2, /*id_base=*/90000000, 58);
  for (const auto& item : phase_c) {
    if (!controller->Push(item).ok()) {
      std::fprintf(stderr, "adaptation push rejected mid-stream\n");
      return 1;
    }
  }
  controller->Flush();
  Stopwatch round_timer;
  controller->TriggerRetrain();
  if (!controller->WaitUntilIdle(/*timeout_us=*/600'000'000)) {
    std::fprintf(stderr, "adaptation round never went idle\n");
    return 1;
  }
  const double round_seconds = round_timer.ElapsedSeconds();
  const auto adapt_stats = controller->stats();
  if (adapt_stats.rounds_completed != 1 || adapt_stats.generation != 1) {
    std::fprintf(stderr, "adaptation round failed: %s\n",
                 adapt_stats.last_error.c_str());
    return 1;
  }
  // Post-swap oracle: re-match + re-encode every served id with the NEW
  // engine — batch invariance makes these rows bitwise what the rebuild
  // inserted, so recall isolates the swapped index's graph quality.
  const auto bundle = controller->engine();
  const start::traj::HmmMapMatcher matcher(w.net.get(),
                                           stream_config.matcher);
  std::vector<int64_t> served_ids;
  std::vector<start::traj::Trajectory> served;
  for (const auto& item : phase_c) {
    if (!bundle.index->Contains(item.id)) continue;
    served_ids.push_back(item.id);
    served.push_back(matcher.MatchTrajectory(item.gps));
  }
  const std::vector<float> post_rows =
      bundle.encoder->EmbedAll(served, start::eval::EncodeMode::kFull);
  start::serve::EmbeddingIndex post_exact(d);
  if (!post_exact.AddBatch(served_ids, post_rows).ok()) std::abort();
  Rng post_rng(59);
  double post_sum = 0.0;
  for (int64_t qi = 0; qi < kQueries; ++qi) {
    std::vector<float> q(static_cast<size_t>(d));
    const int64_t rows = static_cast<int64_t>(post_rows.size()) / d;
    const int64_t pick = post_rng.UniformInt(rows);
    for (int64_t j = 0; j < d; ++j) {
      q[static_cast<size_t>(j)] =
          post_rows[static_cast<size_t>(pick * d + j)] +
          static_cast<float>(post_rng.Normal(0.0, 0.05));
    }
    const auto truth = post_exact.Query(q.data(), d, 10);
    const auto got = bundle.index->Query(q.data(), d, 10);
    if (!truth.ok() || !got.ok()) std::abort();
    int64_t overlap = 0;
    for (const auto& nb : *got) {
      for (const auto& tb : *truth) {
        if (nb.id == tb.id) {
          ++overlap;
          break;
        }
      }
    }
    post_sum +=
        static_cast<double>(overlap) / static_cast<double>(truth->size());
  }
  const double post_swap_recall = post_sum / static_cast<double>(kQueries);
  std::printf("adaptation: round %.2fs (gen %lld, %lld catch-up items), "
              "post-swap recall@10 %.4f over %lld rows\n",
              round_seconds, static_cast<long long>(adapt_stats.generation),
              static_cast<long long>(adapt_stats.catch_up_items),
              post_swap_recall,
              static_cast<long long>(bundle.index->size()));

  std::FILE* json = std::fopen("BENCH_stream.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_stream.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json,
               "  \"stream\": {\"pushed\": %lld, \"accepted\": %lld, "
               "\"ingested\": %lld, \"failed\": %lld, \"dropped\": %lld},\n",
               static_cast<long long>(stats.pushed),
               static_cast<long long>(stats.accepted),
               static_cast<long long>(stats.ingested()),
               static_cast<long long>(stats.total_failed()),
               static_cast<long long>(stats.total_dropped()));
  std::fprintf(json, "  \"stream_ingest_rate\": %.1f,\n", ingest_rate);
  std::fprintf(json,
               "  \"stage_latency_ms\": {\"match\": {\"p50\": %.4f, \"p95\": "
               "%.4f}, \"embed\": {\"p50\": %.4f, \"p95\": %.4f}, \"upsert\": "
               "{\"p50\": %.4f, \"p95\": %.4f}},\n",
               stats.match.p50_ms, stats.match.p95_ms, stats.embed.p50_ms,
               stats.embed.p95_ms, stats.upsert.p50_ms, stats.upsert.p95_ms);
  std::fprintf(json, "  \"mixed_ingest_rate\": %.1f,\n", mixed_ingest_rate);
  std::fprintf(json, "  \"mixed_query_qps\": %.1f,\n", query_qps);
  std::fprintf(json,
               "  \"mixed_query_latency_ms\": {\"p50\": %.4f, \"p95\": "
               "%.4f},\n",
               query_p50, query_p95);
  std::fprintf(json, "  \"recall_at_10_vs_exact\": %.4f,\n", recall);
  std::fprintf(json, "  \"index_rows\": %lld,\n",
               static_cast<long long>(index->size()));
  std::fprintf(json, "  \"drift_windows\": %lld,\n",
               static_cast<long long>(drift->windows_completed()));
  std::fprintf(json, "  \"drift_events\": %lld,\n",
               static_cast<long long>(drift->drift_events()));
  std::fprintf(json,
               "  \"adaptation\": {\"round_seconds\": %.2f, "
               "\"generation\": %lld, \"catch_up_items\": %lld, "
               "\"index_rows\": %lld},\n",
               round_seconds, static_cast<long long>(adapt_stats.generation),
               static_cast<long long>(adapt_stats.catch_up_items),
               static_cast<long long>(bundle.index->size()));
  std::fprintf(json, "  \"post_swap_recall_at_10\": %.4f,\n",
               post_swap_recall);
  std::fprintf(json, "  \"accounting_ok\": %s\n", accounted ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_stream.json\n");

  // Acceptance gates.
  if (ingest_rate < 1000.0) {
    std::fprintf(stderr,
                 "GATE FAILED: ingest rate %.0f trajs/sec < 1000\n",
                 ingest_rate);
    return 1;
  }
  if (recall < 0.95) {
    std::fprintf(stderr, "GATE FAILED: recall@10 %.4f < 0.95\n", recall);
    return 1;
  }
  if (post_swap_recall < 0.95) {
    std::fprintf(stderr,
                 "GATE FAILED: post-swap recall@10 %.4f < 0.95\n",
                 post_swap_recall);
    return 1;
  }
  if (!accounted) {
    std::fprintf(stderr, "GATE FAILED: pipeline accounting identity "
                         "violated\n");
    return 1;
  }
  if (drift->windows_completed() < 4) {
    std::fprintf(stderr, "GATE FAILED: drift monitor saw %lld windows "
                         "(stream too small?)\n",
                 static_cast<long long>(drift->windows_completed()));
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
