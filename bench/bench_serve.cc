// Serving benchmark: measures what the frozen-engine inference path and the
// micro-batched EmbeddingService buy over the training-oriented encoder
// surface, and emits BENCH_serve.json for CI tracking.
//
// Five measurements:
//  1. Corpus-embedding throughput (trajectories/sec): the seed consumer
//     contract — eval::TrajectoryEncoder::EncodeBatch per fixed-size batch
//     with gradient recording on (autograd graph captured, stage-1 road
//     representations re-derived every batch) — against
//     serve::FrozenEncoder::EmbedAll (no grad state anywhere, road table
//     precomputed at load, length-bucketed batches).
//  2. Multi-client service throughput: N synchronous clients round-tripping
//     requests through one EmbeddingService. The 1 -> 4 client gain comes
//     from worker parallelism on several CPUs and from micro-batch
//     coalescing on one (see gate 3).
//  3. Batch-coalescing efficiency of a burst: mean requests per engine call
//     and padding efficiency of the coalesced batches.
//  4. Single-request latency (EncodeSync round trip), reported raw.
//  5. ANN retrieval: HnswIndex vs the exact EmbeddingIndex (the oracle) on a
//     50k-row synthetic corpus — query throughput, p50/p95 latency, and
//     recall@10, with hard gates of >= 10x throughput at recall >= 0.95.
//     Also notes how much of the exact index's bulk load now runs before
//     its exclusive lock (the hoisted normalize pass).
//  6. Quantized serving: int8 vs f32 frozen engines on a serving-width
//     (d=192) model — corpus-embedding throughput, mean per-embedding
//     cosine vs the f32 reference, and serving-snapshot vs training-
//     checkpoint artifact size. Gates: >= 2x throughput on hosts running
//     a SIMD qgemm backend (AVX2 or AVX-512 VNNI; never slower anywhere),
//     mean cosine >= 0.999, snapshot at most half the checkpoint.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_serve
//   ./build/bench_serve
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/start_encoder.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/hnsw_index.h"
#include "serve/index_interface.h"
#include "serve/frozen_encoder.h"
#include "tensor/qgemm.h"
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
  // Serving-representative scale: a city of ~1000 road segments (the real
  // corpora are larger still), so the per-batch stage-1 recompute the seed
  // path pays — and the frozen engine amortises into load time — matches
  // the regime the serving plane exists for.
  w.net = std::make_unique<start::roadnet::RoadNetwork>(
      start::roadnet::BuildSyntheticCity(
          {.grid_width = 16, .grid_height = 16, .seed = 31}));
  w.traffic = std::make_unique<start::traj::TrafficModel>(
      w.net.get(), start::traj::TrafficModel::Config{});
  start::traj::TripGenerator::Config config;
  config.num_drivers = 12;
  config.num_days = 6;
  config.trips_per_driver_day = 4.0;
  config.zone_radius_m = 1800.0;
  config.seed = 32;
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

/// The seed consumer contract for corpus embedding: fixed-size batches in
/// corpus order, EncodeBatch with gradient recording live — every batch
/// captures an autograd graph and re-derives the stage-1 road
/// representations. This reproduces the pre-serving path as the baseline;
/// today's inference contract is eval::TrajectoryEncoder::EmbedAll
/// (src/eval/encoder.h).
double SeedGradEmbedAll(start::core::StartEncoder* encoder,
                        const std::vector<start::traj::Trajectory>& corpus,
                        std::vector<float>* out) {
  const int64_t d = encoder->dim();
  const int64_t batch_size = 64;
  const int64_t n = static_cast<int64_t>(corpus.size());
  out->assign(static_cast<size_t>(n * d), 0.0f);
  encoder->SetTraining(false);
  Stopwatch timer;
  for (int64_t begin = 0; begin < n; begin += batch_size) {
    const int64_t end = std::min(n, begin + batch_size);
    std::vector<const start::traj::Trajectory*> batch;
    for (int64_t i = begin; i < end; ++i) {
      batch.push_back(&corpus[static_cast<size_t>(i)]);
    }
    const start::tensor::Tensor reps =
        encoder->EncodeBatch(batch, start::eval::EncodeMode::kFull)
            .Contiguous();
    std::memcpy(out->data() + begin * d, reps.data(),
                static_cast<size_t>((end - begin) * d) * sizeof(float));
  }
  return timer.ElapsedSeconds();
}

/// One synchronous client: round-trips `requests` through the service,
/// walking the corpus from an offset so concurrent clients mix lengths.
void ClientLoop(start::serve::EmbeddingService* service,
                const std::vector<start::traj::Trajectory>& corpus,
                int64_t requests, size_t offset, std::atomic<int64_t>* done) {
  for (int64_t r = 0; r < requests; ++r) {
    const size_t idx = (offset + static_cast<size_t>(r)) % corpus.size();
    auto result = service->Encode(corpus[idx]);
    if (!result.ok()) continue;
    result.value().get();
    done->fetch_add(1, std::memory_order_relaxed);
  }
}

double MeasureServiceThroughput(const start::serve::FrozenEncoder* frozen,
                                const std::vector<start::traj::Trajectory>&
                                    corpus,
                                int num_clients, int64_t requests_per_client) {
  start::serve::ServiceConfig sc;
  sc.num_workers = 4;
  sc.max_batch_size = 16;
  sc.batch_deadline_us = 200;
  start::serve::EmbeddingService service(frozen, sc);
  std::atomic<int64_t> done{0};
  Stopwatch timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back(ClientLoop, &service, std::cref(corpus),
                         requests_per_client,
                         static_cast<size_t>(c) * 37, &done);
  }
  for (auto& t : clients) t.join();
  const double seconds = timer.ElapsedSeconds();
  return static_cast<double>(done.load()) / seconds;
}

struct AnnResults {
  int64_t rows = 0;
  int64_t dim = 0;
  start::serve::HnswConfig config;
  double build_seconds = 0.0;
  double exact_qps = 0.0, hnsw_qps = 0.0, speedup = 0.0;
  double recall_at_10 = 0.0;
  double exact_p50 = 0.0, exact_p95 = 0.0, hnsw_p50 = 0.0, hnsw_p95 = 0.0;
  double load_total_ms = 0.0;   ///< Exact-index AddBatch, end to end.
  double load_prelock_ms = 0.0; ///< Normalize pass (runs before the lock).
  // Tombstone compaction (the adaptation loop's Remove() churn path).
  double dead_fraction = 0.0;       ///< After removing half the rows.
  double tombstoned_recall = 0.0;   ///< recall@10 through the tombstones.
  double compacted_recall = 0.0;    ///< recall@10 after CompactedCopy().
  double fresh_recall = 0.0;        ///< recall@10 of a from-scratch build.
  double compact_seconds = 0.0;
};

double Percentile(std::vector<double> sorted_ms, double p) {
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t idx = static_cast<size_t>(
      static_cast<double>(sorted_ms.size()) * p);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

/// Exact vs HNSW retrieval over a synthetic clustered embedding corpus: the
/// rows are Gaussian jitter around shared centers, the shape ANN indexes
/// serve in practice (and what the trajectory encoder emits — similar trips
/// cluster). Queries are fresh draws from the same mixture.
AnnResults MeasureAnn() {
  AnnResults r;
  r.rows = 50000;
  r.dim = 32;
  const int64_t kCenters = 512;
  // Both indexes answer the same kQueries queries, which give the truth,
  // the recall and both qps figures: 200 HNSW queries took about 13 ms, too
  // short to time on a shared host.
  const int64_t kQueries = 2000;
  const int64_t kK = 10;
  Rng rng(34);
  std::vector<float> centers(static_cast<size_t>(kCenters * r.dim));
  for (auto& v : centers) v = static_cast<float>(rng.Normal());
  const auto sample_row = [&](float* dst) {
    const int64_t c = rng.UniformInt(kCenters);
    for (int64_t d = 0; d < r.dim; ++d) {
      dst[d] = centers[static_cast<size_t>(c * r.dim + d)] +
               static_cast<float>(rng.Normal(0.0, 0.25));
    }
  };
  std::vector<float> rows(static_cast<size_t>(r.rows * r.dim));
  for (int64_t i = 0; i < r.rows; ++i) sample_row(rows.data() + i * r.dim);
  std::vector<int64_t> ids(static_cast<size_t>(r.rows));
  for (int64_t i = 0; i < r.rows; ++i) ids[static_cast<size_t>(i)] = i;

  // The normalize pass timed on its own: this is exactly the work AddBatch
  // hoisted out of the exclusive section, i.e. the share of the bulk load
  // that used to block readers and no longer does.
  std::vector<float> scratch(rows.size());
  Stopwatch norm_timer;
  for (int64_t i = 0; i < r.rows; ++i) {
    start::serve::internal::NormalizeInto(rows.data() + i * r.dim, r.dim,
                                          scratch.data() + i * r.dim);
  }
  r.load_prelock_ms = norm_timer.ElapsedMillis();

  start::serve::EmbeddingIndex exact(r.dim);
  Stopwatch load_timer;
  if (!exact.AddBatch(ids, rows).ok()) std::abort();
  r.load_total_ms = load_timer.ElapsedMillis();

  start::serve::HnswIndex hnsw(r.dim, r.config);
  Stopwatch build_timer;
  if (!hnsw.AddBatch(ids, rows).ok()) std::abort();
  r.build_seconds = build_timer.ElapsedSeconds();

  std::vector<float> queries(static_cast<size_t>(kQueries * r.dim));
  for (int64_t q = 0; q < kQueries; ++q) {
    sample_row(queries.data() + q * r.dim);
  }

  std::vector<std::vector<start::serve::Neighbor>> truth(
      static_cast<size_t>(kQueries));
  std::vector<double> exact_ms, hnsw_ms;
  Stopwatch timer;
  for (int64_t q = 0; q < kQueries; ++q) {
    timer.Restart();
    auto result = exact.Query(queries.data() + q * r.dim, r.dim, kK);
    exact_ms.push_back(timer.ElapsedMillis());
    if (!result.ok()) std::abort();
    truth[static_cast<size_t>(q)] = std::move(result).value();
  }
  double hits = 0.0;
  for (int64_t q = 0; q < kQueries; ++q) {
    timer.Restart();
    auto result = hnsw.Query(queries.data() + q * r.dim, r.dim, kK);
    hnsw_ms.push_back(timer.ElapsedMillis());
    if (!result.ok()) std::abort();
    const auto& got = result.value();
    for (const auto& t : truth[static_cast<size_t>(q)]) {
      for (const auto& g : got) {
        if (g.id == t.id) {
          hits += 1.0;
          break;
        }
      }
    }
  }
  double exact_total_ms = 0.0, hnsw_total_ms = 0.0;
  for (const double ms : exact_ms) exact_total_ms += ms;
  for (const double ms : hnsw_ms) hnsw_total_ms += ms;
  r.exact_qps = static_cast<double>(kQueries) / (exact_total_ms * 1e-3);
  r.hnsw_qps = static_cast<double>(kQueries) / (hnsw_total_ms * 1e-3);
  r.speedup = r.hnsw_qps / r.exact_qps;
  r.recall_at_10 =
      hits / static_cast<double>(kQueries) / static_cast<double>(kK);
  r.exact_p50 = Percentile(exact_ms, 0.50);
  r.exact_p95 = Percentile(exact_ms, 0.95);
  r.hnsw_p50 = Percentile(hnsw_ms, 0.50);
  r.hnsw_p95 = Percentile(hnsw_ms, 0.95);

  // Tombstone compaction (the adaptation loop's Remove() churn path):
  // delete half the rows, measure recall through the tombstoned graph,
  // compact, and compare against a from-scratch build over the survivors —
  // CompactedCopy() must restore build-fresh recall.
  std::vector<int64_t> survivor_ids;
  std::vector<float> survivor_rows;
  survivor_ids.reserve(static_cast<size_t>(r.rows / 2));
  survivor_rows.reserve(static_cast<size_t>((r.rows / 2) * r.dim));
  for (int64_t i = 0; i < r.rows; ++i) {
    if (i % 2 == 1) {
      if (!hnsw.Remove(i).ok()) std::abort();
    } else {
      survivor_ids.push_back(i);
      survivor_rows.insert(
          survivor_rows.end(), rows.begin() + i * r.dim,
          rows.begin() + (i + 1) * r.dim);
    }
  }
  r.dead_fraction = hnsw.DeadFraction();
  start::serve::EmbeddingIndex exact_survivors(r.dim);
  if (!exact_survivors.AddBatch(survivor_ids, survivor_rows).ok()) {
    std::abort();
  }
  std::vector<std::vector<start::serve::Neighbor>> survivor_truth(
      static_cast<size_t>(kQueries));
  for (int64_t q = 0; q < kQueries; ++q) {
    auto result = exact_survivors.Query(queries.data() + q * r.dim, r.dim, kK);
    if (!result.ok()) std::abort();
    survivor_truth[static_cast<size_t>(q)] = std::move(result).value();
  }
  const auto survivor_recall = [&](const start::serve::HnswIndex& idx) {
    double sr_hits = 0.0;
    for (int64_t q = 0; q < kQueries; ++q) {
      auto result = idx.Query(queries.data() + q * r.dim, r.dim, kK);
      if (!result.ok()) std::abort();
      for (const auto& t : survivor_truth[static_cast<size_t>(q)]) {
        for (const auto& g : result.value()) {
          if (g.id == t.id) {
            sr_hits += 1.0;
            break;
          }
        }
      }
    }
    return sr_hits / static_cast<double>(kQueries) /
           static_cast<double>(kK);
  };
  r.tombstoned_recall = survivor_recall(hnsw);
  Stopwatch compact_timer;
  auto compacted = hnsw.CompactedCopy();
  if (!compacted.ok()) std::abort();
  r.compact_seconds = compact_timer.ElapsedSeconds();
  r.compacted_recall = survivor_recall(*compacted.value());
  start::serve::HnswIndex fresh(r.dim, r.config);
  if (!fresh.AddBatch(survivor_ids, survivor_rows).ok()) std::abort();
  r.fresh_recall = survivor_recall(fresh);
  return r;
}

int64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

struct QuantResults {
  double f32_tps = 0.0;     ///< f32 frozen EmbedAll, trajectories/sec.
  double int8_tps = 0.0;    ///< int8 frozen EmbedAll, trajectories/sec.
  double speedup = 0.0;
  double mean_cos = 0.0;    ///< mean per-embedding cosine, int8 vs f32.
  int64_t checkpoint_bytes = 0;
  int64_t snapshot_bytes = 0;
  int64_t quantized_layers = 0;
};

/// int8 vs f32 frozen serving at serving width. The sections above run
/// d=32 so the service mechanics dominate; here the model is d=192 —
/// the regime the quantized path exists for, where the stage-2 projection
/// Linears are the bulk of an encode.
QuantResults MeasureQuantized(const World& w) {
  QuantResults r;
  start::core::StartConfig config;
  config.d = 192;
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.gat_layers = 2;
  config.gat_heads = {4, 1};
  config.max_len = 160;
  Rng rng(35);
  start::core::StartModel model(config, w.net.get(), w.transfer.get(), &rng);
  const std::string checkpoint = "bench_serve_model_q8.sttn";
  if (!start::core::SaveModelCheckpoint(
           checkpoint, model, start::core::HashStartConfig(config)).ok()) {
    std::abort();
  }
  r.checkpoint_bytes = FileBytes(checkpoint);

  auto f32 = start::serve::FrozenEncoder::Load(checkpoint, config,
                                               w.net.get(), w.transfer.get());
  start::serve::FrozenEncoderOptions opts;
  opts.precision = start::serve::Precision::kInt8;
  auto int8 = start::serve::FrozenEncoder::Load(
      checkpoint, config, w.net.get(), w.transfer.get(), opts);
  if (!f32.ok() || !int8.ok()) std::abort();
  r.quantized_layers = int8.value()->quantized_layer_count();

  const std::string snapshot = "bench_serve_snapshot_q8.sttn";
  if (!int8.value()->SaveSnapshot(snapshot).ok()) std::abort();
  r.snapshot_bytes = FileBytes(snapshot);

  // Best of two runs each, interleaved so neither side owns the warm cache.
  const auto time_embed =
      [&](const start::serve::FrozenEncoder& e, std::vector<float>* out) {
        Stopwatch timer;
        *out = e.EmbedAll(w.corpus, start::eval::EncodeMode::kFull);
        return timer.ElapsedSeconds();
      };
  std::vector<float> ref, got;
  double f32_s = time_embed(*f32.value(), &ref);
  double int8_s = time_embed(*int8.value(), &got);
  f32_s = std::min(f32_s, time_embed(*f32.value(), &ref));
  int8_s = std::min(int8_s, time_embed(*int8.value(), &got));
  const double n = static_cast<double>(w.corpus.size());
  r.f32_tps = n / f32_s;
  r.int8_tps = n / int8_s;
  r.speedup = r.int8_tps / r.f32_tps;

  const int64_t d = config.d;
  double cos_sum = 0.0;
  for (size_t i = 0; i < w.corpus.size(); ++i) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double a = ref[i * static_cast<size_t>(d) + j];
      const double b = got[i * static_cast<size_t>(d) + j];
      dot += a * b;
      na += a * a;
      nb += b * b;
    }
    cos_sum += dot / std::sqrt(na * nb);
  }
  r.mean_cos = cos_sum / n;
  return r;
}

}  // namespace

int main() {
  const World w = BuildWorld();
  std::printf("corpus: %zu trajectories over %ld road segments\n",
              w.corpus.size(), w.net->num_segments());

  start::core::StartConfig config;
  config.d = 32;
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.gat_layers = 2;
  config.gat_heads = {4, 1};
  config.max_len = 160;
  Rng rng(33);
  start::core::StartModel model(config, w.net.get(), w.transfer.get(), &rng);
  const std::string checkpoint = "bench_serve_model.sttn";
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
  const auto frozen = std::move(loaded).value();

  // 1. Corpus embedding: seed grad-tracking path vs frozen engine. Best of
  // two runs each — the gates below are hard CI failures.
  start::core::StartEncoder grad_encoder(&model);
  std::vector<float> seed_out;
  double seed_s = SeedGradEmbedAll(&grad_encoder, w.corpus, &seed_out);
  seed_s = std::min(seed_s, SeedGradEmbedAll(&grad_encoder, w.corpus,
                                             &seed_out));
  std::vector<float> frozen_out;
  Stopwatch frozen_timer;
  frozen_out = frozen->EmbedAll(w.corpus, start::eval::EncodeMode::kFull);
  double frozen_s = frozen_timer.ElapsedSeconds();
  frozen_timer.Restart();
  frozen_out = frozen->EmbedAll(w.corpus, start::eval::EncodeMode::kFull);
  frozen_s = std::min(frozen_s, frozen_timer.ElapsedSeconds());
  const double n_trajs = static_cast<double>(w.corpus.size());
  const double embed_seed = n_trajs / seed_s;
  const double embed_frozen = n_trajs / frozen_s;
  const double frozen_speedup = embed_frozen / embed_seed;

  // 2. Service throughput: 1 vs 4 synchronous clients.
  const int64_t kRequests = 256;
  const double thr1 =
      MeasureServiceThroughput(frozen.get(), w.corpus, 1, kRequests);
  const double thr4 =
      MeasureServiceThroughput(frozen.get(), w.corpus, 4, kRequests / 4);
  const double scaling = thr4 / thr1;

  // 3. Coalescing efficiency of an async burst, plus the bitwise gate: every
  // embedding served out of arbitrarily coalesced batches must equal the
  // frozen engine's serial corpus embedding.
  bool bitwise_identical = true;
  double coalescing = 0.0, pad_eff = 0.0;
  {
    start::serve::ServiceConfig sc;
    sc.num_workers = 2;
    sc.max_batch_size = 16;
    sc.batch_deadline_us = 2000;
    start::serve::EmbeddingService service(frozen.get(), sc);
    std::vector<std::future<start::serve::EmbeddingRow>> futures;
    futures.reserve(w.corpus.size());
    for (const auto& t : w.corpus) {
      auto result = service.Encode(t);
      if (result.ok()) futures.push_back(std::move(result).value());
    }
    const int64_t d = frozen->dim();
    for (size_t i = 0; i < futures.size(); ++i) {
      const start::serve::EmbeddingRow row = futures[i].get();
      if (std::memcmp(row.data(), frozen_out.data() + i * d,
                      static_cast<size_t>(d) * sizeof(float)) != 0) {
        bitwise_identical = false;
      }
    }
    const auto stats = service.stats();
    coalescing = stats.coalescing();
    pad_eff = stats.padding_efficiency();
  }

  // 4. Single-request latency.
  std::vector<double> latencies_ms;
  {
    start::serve::ServiceConfig sc;
    sc.num_workers = 1;
    sc.batch_deadline_us = 0;
    start::serve::EmbeddingService service(frozen.get(), sc);
    Stopwatch latency_timer;
    for (int64_t r = 0; r < 128; ++r) {
      const auto& t = w.corpus[static_cast<size_t>(r) % w.corpus.size()];
      latency_timer.Restart();
      (void)service.EncodeSync(t);
      latencies_ms.push_back(latency_timer.ElapsedMillis());
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double lat_p50 = latencies_ms[latencies_ms.size() / 2];
  const double lat_p95 = latencies_ms[latencies_ms.size() * 95 / 100];

  // 5. ANN retrieval: HnswIndex vs the exact oracle.
  const AnnResults ann = MeasureAnn();

  // 6. Quantized serving at d=192.
  const QuantResults quant = MeasureQuantized(w);
  const bool qgemm_simd = start::tensor::qgemm::ActiveBackend() !=
                          start::tensor::qgemm::Backend::kScalar;

  const unsigned cores = std::thread::hardware_concurrency();
  const int usable_cpus = start::common::UsableCpuCount();
  std::printf("host                    : %u hardware threads, %d usable\n",
              cores, usable_cpus);
  std::printf("corpus embed trajs/sec  : seed grad path %.1f | frozen %.1f "
              "(%.2fx)\n",
              embed_seed, embed_frozen, frozen_speedup);
  std::printf("service requests/sec    : 1 client %.1f | 4 clients %.1f "
              "(%.2fx scaling)\n",
              thr1, thr4, scaling);
  std::printf("burst coalescing        : %.2f requests/batch, padding "
              "efficiency %.3f\n",
              coalescing, pad_eff);
  std::printf("single-request latency  : p50 %.2f ms, p95 %.2f ms\n",
              lat_p50, lat_p95);
  std::printf("bitwise vs serial       : %s\n",
              bitwise_identical ? "identical" : "MISMATCH");
  std::printf("ann corpus              : %ld rows, dim %ld (hnsw M=%ld "
              "ef_construction=%ld ef_search=%ld, built in %.2fs)\n",
              ann.rows, ann.dim, ann.config.M, ann.config.ef_construction,
              ann.config.ef_search, ann.build_seconds);
  std::printf("ann queries/sec         : exact %.1f | hnsw %.1f (%.1fx) at "
              "recall@10 %.4f\n",
              ann.exact_qps, ann.hnsw_qps, ann.speedup, ann.recall_at_10);
  std::printf("ann query latency ms    : exact p50 %.3f p95 %.3f | hnsw "
              "p50 %.3f p95 %.3f\n",
              ann.exact_p50, ann.exact_p95, ann.hnsw_p50, ann.hnsw_p95);
  std::printf("ann compaction          : %.0f%% tombstoned recall %.4f -> "
              "compacted %.4f in %.2fs (fresh rebuild %.4f)\n",
              ann.dead_fraction * 100.0, ann.tombstoned_recall,
              ann.compacted_recall, ann.compact_seconds, ann.fresh_recall);
  std::printf("exact bulk load         : %.1f ms total; the %.1f ms "
              "normalize pass now runs before the exclusive lock (it sat "
              "inside it before the hoist, blocking readers)\n",
              ann.load_total_ms, ann.load_prelock_ms);
  std::printf("quantized embed (d=192) : f32 %.1f | int8 %.1f trajs/sec "
              "(%.2fx, %ld int8 layers, %s backend)\n",
              quant.f32_tps, quant.int8_tps, quant.speedup,
              quant.quantized_layers,
              start::tensor::qgemm::BackendName(
                  start::tensor::qgemm::ActiveBackend()));
  std::printf("quantized mean cosine   : %.6f vs the f32 engine\n",
              quant.mean_cos);
  std::printf("quantized artifact      : snapshot %ld bytes vs checkpoint "
              "%ld bytes (%.2fx smaller)\n",
              quant.snapshot_bytes, quant.checkpoint_bytes,
              static_cast<double>(quant.checkpoint_bytes) /
                  static_cast<double>(quant.snapshot_bytes));

  std::FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serve.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"hardware_threads\": %u,\n"
               "  \"corpus_embed_trajs_per_sec\": {\"seed_grad_path\": %.2f, "
               "\"frozen\": %.2f},\n"
               "  \"frozen_speedup_vs_seed\": %.3f,\n"
               "  \"service_requests_per_sec\": {\"clients_1\": %.2f, "
               "\"clients_4\": %.2f},\n"
               "  \"service_scaling_4v1\": %.3f,\n"
               "  \"coalescing_mean_batch\": %.3f,\n"
               "  \"service_padding_efficiency\": %.4f,\n"
               "  \"single_request_latency_ms\": {\"p50\": %.3f, "
               "\"p95\": %.3f},\n"
               "  \"bitwise_identical\": %s,\n"
               "  \"ann_rows\": %ld,\n"
               "  \"ann_dim\": %ld,\n"
               "  \"ann_hnsw_config\": {\"M\": %ld, \"ef_construction\": %ld, "
               "\"ef_search\": %ld},\n"
               "  \"ann_build_seconds\": %.3f,\n"
               "  \"ann_exact_qps\": %.1f,\n"
               "  \"ann_hnsw_qps\": %.1f,\n"
               "  \"ann_hnsw_speedup\": %.3f,\n"
               "  \"ann_recall_at_10\": %.4f,\n"
               "  \"ann_exact_latency_ms\": {\"p50\": %.4f, \"p95\": %.4f},\n"
               "  \"ann_hnsw_latency_ms\": {\"p50\": %.4f, \"p95\": %.4f},\n"
               "  \"ann_exact_bulk_load_ms\": {\"total\": %.1f, "
               "\"normalize_prelock\": %.1f},\n"
               "  \"ann_compaction\": {\"dead_fraction\": %.3f, "
               "\"tombstoned_recall\": %.4f, \"compacted_recall\": %.4f, "
               "\"fresh_recall\": %.4f, \"compact_seconds\": %.3f},\n"
               "  \"quantized_backend\": \"%s\",\n"
               "  \"quantized_layers\": %ld,\n"
               "  \"quantized_embed_trajs_per_sec\": {\"f32\": %.2f, "
               "\"int8\": %.2f},\n"
               "  \"quantized_embed_speedup\": %.3f,\n"
               "  \"quantized_embed_mean_cos\": %.6f,\n"
               "  \"quantized_artifact_bytes\": {\"checkpoint\": %ld, "
               "\"snapshot\": %ld}\n"
               "}\n",
               cores, embed_seed, embed_frozen, frozen_speedup, thr1, thr4,
               scaling, coalescing, pad_eff, lat_p50, lat_p95,
               bitwise_identical ? "true" : "false", ann.rows, ann.dim,
               ann.config.M, ann.config.ef_construction, ann.config.ef_search,
               ann.build_seconds, ann.exact_qps, ann.hnsw_qps, ann.speedup,
               ann.recall_at_10, ann.exact_p50, ann.exact_p95, ann.hnsw_p50,
               ann.hnsw_p95, ann.load_total_ms, ann.load_prelock_ms,
               ann.dead_fraction, ann.tombstoned_recall, ann.compacted_recall,
               ann.fresh_recall, ann.compact_seconds,
               start::tensor::qgemm::BackendName(
                   start::tensor::qgemm::ActiveBackend()),
               quant.quantized_layers, quant.f32_tps, quant.int8_tps,
               quant.speedup, quant.mean_cos, quant.checkpoint_bytes,
               quant.snapshot_bytes);
  std::fclose(json);
  std::printf("wrote BENCH_serve.json\n");

  // Acceptance gates.
  //
  // 1. Always: serving results must be bitwise identical to serial encodes —
  //    micro-batching must never change what a client receives.
  if (!bitwise_identical) {
    std::fprintf(stderr, "FAIL: service output differs from serial frozen "
                 "encodes\n");
    return 1;
  }
  // 2. Always: the frozen engine must at least double corpus-embedding
  //    throughput over the seed grad-tracking path. This is algorithmic
  //    (no autograd capture, no per-batch stage-1 recompute, bucketed
  //    batches), so it holds on any host, single-core included.
  if (frozen_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: frozen corpus-embedding speedup %.2fx < 2x\n",
                 frozen_speedup);
    return 1;
  }
  // 3. Always: 1 -> 4 clients must gain >= 1.5x, and >= 2x when the
  //    process may run on >= 4 CPUs. Kernels are serial, so the gain comes
  //    from requests. With several CPUs a single synchronous client finds a
  //    worker and a CPU free and never pays the coalescing deadline, while
  //    four clients keep several workers encoding at once. On one CPU
  //    (`taskset -c 0`) every batch waits the deadline, and four clients
  //    share each wait and each batch's fixed work, which alone clears the
  //    1.5x floor.
  if (scaling < 1.5) {
    std::fprintf(stderr, "FAIL: 4-client scaling %.2fx < 1.5x\n", scaling);
    return 1;
  }
  if (usable_cpus >= 4 && scaling < 2.0) {
    std::fprintf(stderr,
                 "FAIL: 4-client scaling %.2fx < 2x on %d usable CPUs\n",
                 scaling, usable_cpus);
    return 1;
  }
  // 4. Always: HNSW must beat the exact scan >= 10x on query throughput.
  //    Algorithmic (graph search visits O(ef·M) of 50k rows vs the full
  //    scan), so it holds on any host.
  if (ann.speedup < 10.0) {
    std::fprintf(stderr, "FAIL: hnsw query speedup %.2fx < 10x\n",
                 ann.speedup);
    return 1;
  }
  // 5. Always: the speedup may not be bought with accuracy — recall@10
  //    against the exact oracle must stay >= 0.95.
  if (ann.recall_at_10 < 0.95) {
    std::fprintf(stderr, "FAIL: hnsw recall@10 %.4f < 0.95\n",
                 ann.recall_at_10);
    return 1;
  }
  // 6. Always: compacting a 50%-tombstoned index must restore build-fresh
  //    recall — the compacted copy may trail a from-scratch build over the
  //    survivors by at most the recall-measurement granularity, and must
  //    clear the absolute floor. Algorithmic (CompactedCopy relinks the
  //    graph over live rows only), so it holds on any host.
  if (ann.compacted_recall < 0.95 ||
      ann.compacted_recall + 0.01 < ann.fresh_recall) {
    std::fprintf(stderr,
                 "FAIL: compacted recall@10 %.4f (fresh rebuild %.4f, floor "
                 "0.95)\n",
                 ann.compacted_recall, ann.fresh_recall);
    return 1;
  }
  // 7. Quantized serving. The accuracy and size gates are algorithmic and
  //    hold on any host. The throughput gate is a same-host ratio, not a
  //    trajs/s floor, since an absolute rate measures the runner: with any
  //    SIMD qgemm backend (AVX2 or AVX-512 VNNI) the int8 snapshot must at
  //    least double the f32 frozen path at serving width, the speed it
  //    trades its accuracy for; on scalar-only hosts it must still never be
  //    slower. A faster f32 path lowers the ratio on purpose: int8 serving
  //    must keep earning its accuracy loss against the f32 of its day.
  if (quant.mean_cos < 0.999) {
    std::fprintf(stderr, "FAIL: quantized mean cosine %.6f < 0.999\n",
                 quant.mean_cos);
    return 1;
  }
  if (quant.snapshot_bytes <= 0 ||
      quant.snapshot_bytes * 2 > quant.checkpoint_bytes) {
    std::fprintf(stderr,
                 "FAIL: snapshot %ld bytes not <= half of checkpoint %ld\n",
                 quant.snapshot_bytes, quant.checkpoint_bytes);
    return 1;
  }
  const double quant_floor = qgemm_simd ? 2.0 : 0.9;
  if (quant.speedup < quant_floor) {
    std::fprintf(stderr, "FAIL: quantized embed speedup %.2fx < %.1fx (%s "
                 "backend)\n",
                 quant.speedup, quant_floor,
                 start::tensor::qgemm::BackendName(
                     start::tensor::qgemm::ActiveBackend()));
    return 1;
  }
  return 0;
}
