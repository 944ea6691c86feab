// Cross-city transfer demo — the paper's Sec. IV-E2 / Table III scenario:
// pre-train START on a large city, then fine-tune on a *different* small
// city. Possible because TPE-GAT parameters are independent of the number
// of road segments; only |V|-bound tensors (the MLM head) stay behind.
#include <cstdio>
#include <string>

#include "core/pretrain.h"
#include "core/start_encoder.h"
#include "data/dataset.h"
#include "eval/tasks.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

namespace {

using namespace start;

struct City {
  roadnet::RoadNetwork net;
  std::unique_ptr<traj::TrafficModel> traffic;
  std::unique_ptr<data::TrajDataset> dataset;
  std::unique_ptr<roadnet::TransferProbability> transfer;
};

City MakeCity(int32_t w, int32_t h, int64_t drivers, int64_t days,
              uint64_t seed) {
  City city;
  city.net = roadnet::BuildSyntheticCity(
      {.grid_width = w, .grid_height = h, .seed = seed});
  city.traffic = std::make_unique<traj::TrafficModel>(&city.net,
                                                      traj::TrafficModel::Config{});
  traj::TripGenerator::Config trips;
  trips.num_drivers = drivers;
  trips.num_days = days;
  trips.seed = seed + 1;
  traj::TripGenerator gen(city.traffic.get(), trips);
  data::DatasetConfig ds;
  ds.min_length = 5;
  ds.min_user_trajectories = 5;
  city.dataset = std::make_unique<data::TrajDataset>(
      data::TrajDataset::FromCorpus(city.net, gen.Generate(), ds));
  city.transfer = std::make_unique<roadnet::TransferProbability>(
      roadnet::TransferProbability::FromTrajectories(
          city.net, city.dataset->TrainRoadSequences()));
  return city;
}

core::StartConfig ModelConfig() {
  core::StartConfig config;
  config.d = 32;
  config.gat_heads = {4, 4, 1};
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.max_len = 96;
  return config;
}

// Fine-tunes ETA on `city`. When `checkpoint` is non-empty the encoder is
// warm-started from it first (skip_mismatched leaves |V|-bound tensors — the
// MLM head — freshly initialised, since they cannot move between networks).
double EvalEta(core::StartModel* model, const City& city,
               const std::string& checkpoint = "") {
  core::StartEncoder encoder(model);
  eval::TaskConfig task;
  task.epochs = 6;
  task.batch_size = 32;
  task.lr = 2e-3;
  task.encoder_checkpoint = checkpoint;
  task.checkpoint_skip_mismatched = true;
  return eval::FinetuneEta(&encoder, city.dataset->train(),
                           city.dataset->test(), task)
      .metrics.mape;
}

}  // namespace

int main() {
  using namespace start;
  std::printf("=== transfer learning example ===\n");
  std::printf("building the big source city and the small target city...\n");
  City source = MakeCity(9, 9, 14, 12, 101);
  City target = MakeCity(5, 6, 5, 6, 202);
  std::printf("source: %ld segments, %zu train trajectories\n",
              source.net.num_segments(), source.dataset->train().size());
  std::printf("target: %ld segments, %zu train trajectories (data-poor!)\n",
              target.net.num_segments(), target.dataset->train().size());

  // Baseline: fine-tune on the target with random initialisation.
  common::Rng rng_a(1);
  core::StartModel scratch(ModelConfig(), &target.net, target.transfer.get(),
                           &rng_a);
  const double scratch_mape = EvalEta(&scratch, target);

  // Transfer: pre-train on the source with checkpointing; the artifact is
  // then consumed by fine-tuning on the target without retraining. The
  // pretrainer writes the checkpoint itself (it is also the resume point if
  // this run is interrupted — rerun with pretrain.resume = true).
  std::printf("pre-training on the source city...\n");
  common::Rng rng_b(2);
  core::StartModel pretrained(ModelConfig(), &source.net,
                              source.transfer.get(), &rng_b);
  const std::string checkpoint =
      examples::RunFile("start_transfer_example.sttn");
  core::PretrainConfig pretrain;
  pretrain.epochs = 10;
  pretrain.batch_size = 16;
  pretrain.lr = 2e-3;
  pretrain.checkpoint_path = checkpoint;
  core::Pretrain(&pretrained, source.dataset->train(), source.traffic.get(),
                 pretrain);
  // Fine-tuning warm-starts from the checkpoint (TaskConfig's
  // encoder_checkpoint), carrying the |V|-independent weights to the target.
  common::Rng rng_c(3);
  core::StartModel transferred(ModelConfig(), &target.net,
                               target.transfer.get(), &rng_c);
  const double transfer_mape = EvalEta(&transferred, target, checkpoint);

  std::printf("\nETA on the small target city:\n");
  std::printf("  random init + fine-tune : MAPE %.2f%%\n", scratch_mape);
  std::printf("  transferred + fine-tune : MAPE %.2f%%\n", transfer_mape);
  // Report what this run measured; Table III's claim is that transfer wins.
  const double margin = scratch_mape - transfer_mape;
  if (margin > 0.0) {
    std::printf("\ntransfer lowers MAPE by %.2f points: here the transferred "
                "encoder carries travel semantics from the source city, as "
                "in Table III.\n",
                margin);
  } else {
    std::printf("\ntransfer raises MAPE by %.2f points: at this example's "
                "scale the source-city encoder does not help the target "
                "city, unlike Table III.\n",
                -margin);
  }
  return 0;
}
