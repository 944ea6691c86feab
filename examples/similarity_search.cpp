// Trajectory similarity search demo — the paper's third downstream task
// (Sec. III-D3 / IV-D4), served through the serving plane: pre-train once,
// checkpoint, load the artifact into a serve::FrozenEncoder, embed queries
// and database concurrently through a micro-batched serve::EmbeddingService,
// index the database behind the serve::IndexInterface, and answer
// most-similar queries there — compared with classical DTW.
//
// --index=exact|hnsw|both (default both) picks the retrieval backend: the
// exact brute-force EmbeddingIndex, the approximate HnswIndex, or both —
// in which case the demo also reports recall@10 of hnsw against exact.
//
// --precision=f32|int8 (default f32) picks the frozen engine's numeric
// regime: int8 quantizes the stage-2 projection Linears to per-row-scaled
// int8 (tensor::qgemm) at load, trading <= 0.001 cosine error for ~2x
// embedding throughput at serving widths.
#include <cstdio>
#include <cstring>
#include <future>
#include <vector>

#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/pretrain.h"
#include "data/dataset.h"
#include "data/detour.h"
#include "roadnet/synthetic_city.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "serve/hnsw_index.h"
#include "serve/index_interface.h"
#include "sim/search.h"
#include "sim/similarity.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

int main(int argc, char** argv) {
  using namespace start;
  bool use_exact = true, use_hnsw = true;
  serve::FrozenEncoderOptions engine_options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--index=exact") == 0) {
      use_hnsw = false;
    } else if (std::strcmp(argv[i], "--index=hnsw") == 0) {
      use_exact = false;
    } else if (std::strcmp(argv[i], "--precision=int8") == 0) {
      engine_options.precision = serve::Precision::kInt8;
    } else if (std::strcmp(argv[i], "--index=both") != 0 &&
               std::strcmp(argv[i], "--precision=f32") != 0) {
      std::fprintf(stderr,
                   "usage: %s [--index=exact|hnsw|both] [--precision=f32|int8]\n",
                   argv[0]);
      return 1;
    }
  }
  std::printf("=== similarity search example (serving plane, index=%s, "
              "precision=%s) ===\n",
              use_exact && use_hnsw ? "both" : (use_hnsw ? "hnsw" : "exact"),
              engine_options.precision == serve::Precision::kInt8 ? "int8"
                                                                  : "f32");
  const roadnet::RoadNetwork net = roadnet::BuildSyntheticCity(
      {.grid_width = 8, .grid_height = 8, .seed = 25});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config trip_config;
  trip_config.num_drivers = 12;
  trip_config.num_days = 10;
  trip_config.seed = 26;
  traj::TripGenerator generator(&traffic, trip_config);
  const auto dataset = data::TrajDataset::FromCorpus(
      net, generator.Generate(), {.min_length = 6});
  const auto transfer = roadnet::TransferProbability::FromTrajectories(
      net, dataset.TrainRoadSequences());

  core::StartConfig config;
  config.d = 32;
  config.gat_heads = {4, 4, 1};
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.max_len = 96;
  common::Rng rng(27);
  core::StartModel model(config, &net, &transfer, &rng);
  std::printf("pre-training (representations are used frozen)...\n");
  core::PretrainConfig pretrain;
  pretrain.epochs = 8;
  pretrain.batch_size = 16;
  pretrain.lr = 2e-3;
  pretrain.checkpoint_path =
      examples::RunFile("start_similarity_model.sttn");
  core::Pretrain(&model, dataset.train(), &traffic, pretrain);

  // The serving engine: the checkpoint artifact loaded as an immutable
  // snapshot — no grad buffers, dropout off, road table precomputed.
  auto loaded = serve::FrozenEncoder::Load(pretrain.checkpoint_path, config,
                                           &net, &transfer, engine_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "frozen-engine load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const auto engine = std::move(loaded).value();
  if (engine->precision() == serve::Precision::kInt8) {
    std::printf("engine quantized: %ld stage-2 Linears on the int8 path\n",
                engine->quantized_layer_count());
  }

  // Detour ground truth (Sec. IV-D4a): replace a sub-trajectory with a
  // top-k alternative whose travel time differs by more than t_d.
  std::printf("building detour queries...\n");
  common::Rng detour_rng(28);
  data::DetourGenerator detours(&traffic, {});
  std::vector<traj::Trajectory> queries, database;
  std::vector<int64_t> gt;
  for (const auto& t : dataset.test()) {
    if (queries.size() >= 25) break;
    const auto detour = detours.Generate(t, &detour_rng);
    if (!detour.has_value()) continue;
    gt.push_back(static_cast<int64_t>(database.size()));
    database.push_back(*detour);
    queries.push_back(t);
  }
  for (const auto& t : dataset.test()) {
    if (database.size() >= 150) break;
    database.push_back(t);
  }
  std::printf("%zu queries against %zu database trajectories\n",
              queries.size(), database.size());

  // Embed everything through the concurrent service (micro-batched, two
  // workers) and build the retrieval index from the database rows.
  common::Stopwatch watch;
  serve::ServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.batch_deadline_us = 500;
  serve::EmbeddingService service(engine.get(), service_config);
  const auto embed_all = [&](const std::vector<traj::Trajectory>& trajs) {
    std::vector<std::future<serve::EmbeddingRow>> futures;
    futures.reserve(trajs.size());
    for (const auto& t : trajs) {
      auto result = service.Encode(t);
      if (!result.ok()) {
        std::fprintf(stderr, "encode rejected: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      futures.push_back(std::move(result).value());
    }
    std::vector<float> rows;
    rows.reserve(trajs.size() * static_cast<size_t>(engine->dim()));
    for (auto& f : futures) {
      const serve::EmbeddingRow row = f.get();
      rows.insert(rows.end(), row.data(), row.data() + row.dim());
    }
    return rows;
  };
  const std::vector<float> q = embed_all(queries);
  const std::vector<float> db = embed_all(database);

  // Both backends sit behind serve::IndexInterface, so everything below the
  // build is backend-agnostic. With both built, hnsw serves the protocol and
  // exact is its recall oracle.
  serve::EmbeddingIndex exact_index(engine->dim());
  serve::HnswIndex hnsw_index(engine->dim());
  serve::IndexInterface& index =
      use_hnsw ? static_cast<serve::IndexInterface&>(hnsw_index)
               : static_cast<serve::IndexInterface&>(exact_index);
  std::vector<int64_t> db_ids(database.size());
  for (size_t i = 0; i < database.size(); ++i) {
    db_ids[i] = static_cast<int64_t>(i);
  }
  for (serve::IndexInterface* backend :
       std::initializer_list<serve::IndexInterface*>{&exact_index,
                                                     &hnsw_index}) {
    if (backend == &exact_index && !use_exact) continue;
    if (backend == &hnsw_index && !use_hnsw) continue;
    if (const auto st = backend->AddBatch(db_ids, db); !st.ok()) {
      std::fprintf(stderr, "index build failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const auto emb_metrics = index.EvaluateMostSimilar(
      q, static_cast<int64_t>(queries.size()), gt);
  if (!emb_metrics.ok()) {
    std::fprintf(stderr, "retrieval failed: %s\n",
                 emb_metrics.status().ToString().c_str());
    return 1;
  }
  const double emb_time = watch.ElapsedMillis();
  const auto stats = service.stats();

  // Classical DTW for comparison.
  watch.Restart();
  std::vector<sim::PointSeq> q_pts, db_pts;
  for (const auto& t : queries) q_pts.push_back(sim::ToPointSequence(net, t));
  for (const auto& t : database) db_pts.push_back(sim::ToPointSequence(net, t));
  const auto dtw_metrics = sim::MostSimilarSearch(
      static_cast<int64_t>(queries.size()),
      static_cast<int64_t>(database.size()),
      [&](int64_t a, int64_t b) {
        return sim::DtwDistance(q_pts[static_cast<size_t>(a)],
                                db_pts[static_cast<size_t>(b)]);
      },
      gt);
  const double dtw_time = watch.ElapsedMillis();

  std::printf("\nSTART serving plane: MR %.2f, HR@1 %.3f, HR@5 %.3f (%.1f ms "
              "incl. embedding; %.1f requests/batch coalesced)\n",
              emb_metrics->mean_rank, emb_metrics->hr_at_1,
              emb_metrics->hr_at_5, emb_time, stats.coalescing());
  std::printf("DTW:                 MR %.2f, HR@1 %.3f, HR@5 %.3f (%.1f ms)\n",
              dtw_metrics.mean_rank, dtw_metrics.hr_at_1,
              dtw_metrics.hr_at_5, dtw_time);
  // With both backends built: recall@10 of the approximate index against
  // the exact oracle, averaged over every query.
  if (use_exact && use_hnsw) {
    const int64_t k = 10;
    double recall = 0.0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const auto truth =
          exact_index.Query(q.data() + qi * static_cast<size_t>(engine->dim()),
                            engine->dim(), k);
      const auto got =
          hnsw_index.Query(q.data() + qi * static_cast<size_t>(engine->dim()),
                           engine->dim(), k);
      if (!truth.ok() || !got.ok()) continue;
      int64_t overlap = 0;
      for (const auto& t : *truth) {
        for (const auto& g : *got) {
          if (g.id == t.id) {
            ++overlap;
            break;
          }
        }
      }
      recall += static_cast<double>(overlap) /
                static_cast<double>(truth->size());
    }
    std::printf("\nhnsw recall@10 vs exact: %.4f over %zu queries\n",
                recall / static_cast<double>(queries.size()), queries.size());
  }
  // Top-K through the index: the nearest database entries for query 0.
  const auto top = index.Query(q.data(), engine->dim(), 3);
  if (top.ok() && !top->empty()) {
    std::printf("\nquery 0 top-3 from the index:");
    for (const auto& n : *top) {
      std::printf("  id %ld (cos %.3f)", n.id, n.score);
    }
    std::printf("   [ground truth: id %ld]\n", gt[0]);
  }
  std::printf("\nembedding search answers from a %ld-dim vector (O(d) per "
              "pair) while DTW costs O(L^2) per pair — the Fig. 10 "
              "trade-off.\n",
              config.d);
  return 0;
}
