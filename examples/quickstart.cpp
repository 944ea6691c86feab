// Quickstart: build a synthetic city, generate trajectories, pre-train a
// small START model with the two self-supervised tasks, checkpoint it, and
// warm-start a *fresh* model from the checkpoint for a similarity query —
// the minimal end-to-end tour of the public API, including the
// train-once/serve-many artifact flow.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/pretrain.h"
#include "core/start_encoder.h"
#include "data/dataset.h"
#include "eval/encoder.h"
#include "roadnet/synthetic_city.h"
#include "sim/search.h"
#include "sim/similarity.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

int main() {
  using namespace start;

  // 1. Build a road network (Definition 1). In production this would come
  //    from an OSM extract; here the synthetic-city generator stands in.
  std::printf("[1/5] building road network...\n");
  roadnet::SyntheticCityConfig city_config;
  city_config.grid_width = 8;
  city_config.grid_height = 8;
  const roadnet::RoadNetwork net = roadnet::BuildSyntheticCity(city_config);
  std::printf("      %ld road segments, %ld connectivity edges\n",
              net.num_segments(), net.num_edges());

  // 2. Generate road-network constrained trajectories (Definition 3) with
  //    rush-hour congestion and driver route preferences.
  std::printf("[2/5] generating trajectories...\n");
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config trip_config;
  trip_config.num_drivers = 10;
  trip_config.num_days = 10;
  traj::TripGenerator generator(&traffic, trip_config);
  data::DatasetConfig dataset_config;
  dataset_config.min_length = 6;
  const auto dataset = data::TrajDataset::FromCorpus(
      net, generator.Generate(), dataset_config);
  std::printf("      %zu train / %zu val / %zu test trajectories\n",
              dataset.train().size(), dataset.val().size(),
              dataset.test().size());

  // 3. Estimate transfer probabilities (Eq. 2) from the training split and
  //    assemble the START model (TPE-GAT + TAT-Enc).
  std::printf("[3/5] building START model...\n");
  const auto transfer = roadnet::TransferProbability::FromTrajectories(
      net, dataset.TrainRoadSequences());
  core::StartConfig model_config;
  model_config.d = 32;
  model_config.gat_heads = {4, 4, 1};
  model_config.encoder_layers = 2;
  model_config.encoder_heads = 4;
  model_config.max_len = 96;
  common::Rng rng(7);
  core::StartModel model(model_config, &net, &transfer, &rng);
  std::printf("      %ld parameters\n", model.ParameterCount());

  // 4. Pre-train with span-masked recovery + trajectory contrastive
  //    learning (Sec. III-C), checkpointing the result. The checkpoint is a
  //    full training checkpoint: re-running this binary after an
  //    interruption would resume mid-plan (set pretrain_config.resume).
  std::printf("[4/5] self-supervised pre-training...\n");
  const std::string checkpoint =
      examples::RunFile("start_quickstart.sttn");
  core::PretrainConfig pretrain_config;
  pretrain_config.epochs = 6;
  pretrain_config.batch_size = 16;
  pretrain_config.lr = 2e-3;
  pretrain_config.checkpoint_path = checkpoint;
  const auto stats =
      core::Pretrain(&model, dataset.train(), &traffic, pretrain_config);
  for (size_t e = 0; e < stats.epoch_loss.size(); ++e) {
    std::printf("      epoch %zu loss %.4f (mask %.4f, contrastive %.4f)\n",
                e, stats.epoch_loss[e], stats.epoch_mask_loss[e],
                stats.epoch_contrastive_loss[e]);
  }
  std::printf("      checkpoint written to %s\n", checkpoint.c_str());

  // 5. Warm-start a *fresh* model from the checkpoint — the serving-side
  //    flow: no retraining, just load the artifact — and run a most-similar
  //    trajectory query on its frozen representations.
  std::printf("[5/5] similarity query from the checkpointed artifact...\n");
  common::Rng serving_rng(99);  // init values are irrelevant; overwritten
  core::StartModel served_model(model_config, &net, &transfer, &serving_rng);
  core::StartEncoder encoder(&served_model);
  if (const auto st = encoder.WarmStart(checkpoint); !st.ok()) {
    std::fprintf(stderr, "warm-start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<traj::Trajectory> database(dataset.test().begin(),
                                         dataset.test().end());
  const traj::Trajectory query = database.front();
  const auto db_emb = encoder.EmbedAll(database, eval::EncodeMode::kFull);
  const auto q_emb = encoder.EmbedAll({query}, eval::EncodeMode::kFull);
  const auto top = sim::TopK(
      static_cast<int64_t>(database.size()), 4, [&](int64_t i) {
        return sim::EmbeddingDistance(q_emb.data(),
                                      db_emb.data() + i * model_config.d,
                                      model_config.d);
      });
  std::printf("      query: %ld roads departing %.1fh\n", query.size(),
              traj::HourOfDay(query.departure_time()));
  for (const int64_t idx : top) {
    const auto& t = database[static_cast<size_t>(idx)];
    std::printf("      match #%ld: %ld roads, departs %.1fh, driver %ld\n",
                idx, t.size(), traj::HourOfDay(t.departure_time()),
                t.driver_id);
  }
  std::printf("done.\n");
  return 0;
}
