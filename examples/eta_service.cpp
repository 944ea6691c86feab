// Travel-time estimation (ETA) service demo — the paper's first downstream
// task (Sec. III-D1), deployed on the serving plane. Pre-trains START,
// freezes the checkpoint into a serve::FrozenEncoder, trains a linear ETA
// head on embeddings obtained through the concurrent EmbeddingService (only
// the departure time is exposed, Sec. IV-D2), then serves live queries
// end-to-end: trajectory -> micro-batched embedding -> head -> minutes.
#include <cmath>
#include <cstdio>
#include <future>
#include <vector>

#include "core/checkpoint.h"
#include "core/pretrain.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "roadnet/synthetic_city.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "tensor/ops.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

namespace {

/// Embeds a split through the service (departure-time-only view) into a
/// row-major [n, d] buffer.
std::vector<float> EmbedThroughService(
    start::serve::EmbeddingService* service,
    const std::vector<start::traj::Trajectory>& trajs) {
  std::vector<std::future<start::serve::EmbeddingRow>> futures;
  futures.reserve(trajs.size());
  for (const auto& t : trajs) {
    auto result =
        service->Encode(t, start::eval::EncodeMode::kDepartureOnly);
    if (!result.ok()) {
      std::fprintf(stderr, "encode rejected: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    futures.push_back(std::move(result).value());
  }
  std::vector<float> rows;
  for (auto& f : futures) {
    const start::serve::EmbeddingRow row = f.get();
    rows.insert(rows.end(), row.data(), row.data() + row.dim());
  }
  return rows;
}

}  // namespace

int main() {
  using namespace start;
  std::printf("=== ETA service example (serving plane) ===\n");
  const roadnet::RoadNetwork net = roadnet::BuildSyntheticCity(
      {.grid_width = 8, .grid_height = 8, .seed = 5});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config trip_config;
  trip_config.num_drivers = 12;
  trip_config.num_days = 10;
  trip_config.seed = 6;
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
  common::Rng rng(7);
  core::StartModel model(config, &net, &transfer, &rng);

  std::printf("pre-training on %zu trajectories...\n",
              dataset.train().size());
  core::PretrainConfig pretrain;
  pretrain.epochs = 8;
  pretrain.batch_size = 16;
  pretrain.lr = 2e-3;
  pretrain.checkpoint_path = examples::RunFile("start_eta_model.sttn");
  core::Pretrain(&model, dataset.train(), &traffic, pretrain);

  // Freeze the artifact into the serving engine and put the concurrent
  // micro-batching service in front of it.
  auto loaded = serve::FrozenEncoder::Load(pretrain.checkpoint_path, config,
                                           &net, &transfer);
  if (!loaded.ok()) {
    std::fprintf(stderr, "frozen-engine load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const auto engine = std::move(loaded).value();
  serve::ServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.batch_deadline_us = 500;
  serve::EmbeddingService service(engine.get(), service_config);

  // Train the ETA head (Eq. 16: a single FC layer) on frozen embeddings
  // served by the engine — a linear probe, so the engine itself never needs
  // gradients. Targets are standardised minutes over the training split.
  std::printf("training the ETA head on served embeddings "
              "(departure time only)...\n");
  const auto& train = dataset.train();
  const std::vector<float> train_emb = EmbedThroughService(&service, train);
  double mean = 0.0;
  for (const auto& t : train) {
    mean += static_cast<double>(t.TravelTimeSeconds()) / 60.0;
  }
  mean /= static_cast<double>(train.size());
  double var = 0.0;
  for (const auto& t : train) {
    const double y = static_cast<double>(t.TravelTimeSeconds()) / 60.0 - mean;
    var += y * y;
  }
  const double stddev =
      std::sqrt(std::max(1e-8, var / static_cast<double>(train.size())));
  std::vector<float> targets;
  targets.reserve(train.size());
  for (const auto& t : train) {
    targets.push_back(static_cast<float>(
        (static_cast<double>(t.TravelTimeSeconds()) / 60.0 - mean) / stddev));
  }
  common::Rng head_rng(11);
  nn::Linear head(engine->dim(), 1, &head_rng);
  nn::AdamW opt(head.Parameters(), 2e-3);
  const tensor::Tensor x = tensor::Tensor::FromVector(
      tensor::Shape({static_cast<int64_t>(train.size()), engine->dim()}),
      std::vector<float>(train_emb));
  for (int epoch = 0; epoch < 60; ++epoch) {
    const tensor::Tensor pred = head.Forward(x);
    tensor::Tensor loss = tensor::MseLoss(pred, targets);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }

  // Evaluate on the test split, everything through the service.
  const auto& test = dataset.test();
  const std::vector<float> test_emb = EmbedThroughService(&service, test);
  {
    tensor::NoGradGuard no_grad;
    head.SetTraining(false);
    const tensor::Tensor tx = tensor::Tensor::FromVector(
        tensor::Shape({static_cast<int64_t>(test.size()), engine->dim()}),
        std::vector<float>(test_emb));
    const tensor::Tensor pred = head.Forward(tx);
    std::vector<double> truth, predicted;
    for (size_t i = 0; i < test.size(); ++i) {
      truth.push_back(static_cast<double>(test[i].TravelTimeSeconds()) / 60.0);
      predicted.push_back(
          static_cast<double>(pred.data()[i]) * stddev + mean);
    }
    const auto metrics = eval::ComputeRegressionMetrics(truth, predicted);
    std::printf("test metrics: MAE %.3f min, MAPE %.2f%%, RMSE %.3f min\n",
                metrics.mae, metrics.mape, metrics.rmse);
  }
  const auto stats = service.stats();
  std::printf("service stats: %ld requests in %ld batches "
              "(%.1f coalesced/batch, padding efficiency %.3f)\n",
              stats.requests, stats.batches, stats.coalescing(),
              stats.padding_efficiency());

  // Serve live queries: the same route at night vs morning rush, predicted
  // end-to-end from route + departure time only.
  std::printf("\nlive queries (same route, different departures):\n");
  traj::TripGenerator query_gen(&traffic, trip_config);
  const int64_t src = 3, dst = net.num_segments() - 5;
  for (const double hour : {3.0, 8.0, 12.0, 18.0}) {
    const int64_t depart =
        2 * traj::kSecondsPerDay + static_cast<int64_t>(hour * 3600);
    traj::Trajectory trip = query_gen.GenerateTrip(0, src, dst, depart);
    if (trip.size() < 2) continue;
    const double truth = trip.TravelTimeSeconds() / 60.0;
    const auto row =
        service.EncodeSync(trip, eval::EncodeMode::kDepartureOnly);
    if (!row.ok()) continue;
    tensor::NoGradGuard no_grad;
    const tensor::Tensor qx = tensor::Tensor::FromVector(
        tensor::Shape({1, engine->dim()}), std::vector<float>(row.value()));
    const double eta =
        static_cast<double>(head.Forward(qx).data()[0]) * stddev + mean;
    std::printf("  depart %04.1fh: served ETA %.1f min | simulated %.1f min\n",
                hour, eta, truth);
  }
  std::printf("\nthe spread across departures shows the departure-time "
              "embedding has internalised rush-hour congestion — served "
              "entirely from the frozen artifact.\n");
  return 0;
}
