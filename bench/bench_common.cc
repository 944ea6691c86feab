#include "bench_common.h"

#include <filesystem>
#include <map>

#include "baselines/node2vec.h"
#include "baselines/pim.h"
#include "baselines/seq2seq.h"
#include "baselines/transformer.h"
#include "common/check.h"
#include "common/env.h"
#include "common/logging.h"
#include "data/detour.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace start::bench {

double BenchScale() {
  return common::GetEnvDouble("START_BENCH_SCALE", 1.0);
}

namespace {

int64_t Scaled(int64_t base) {
  return std::max<int64_t>(1, static_cast<int64_t>(base * BenchScale()));
}

CityWorld BuildWorld(std::string name, roadnet::SyntheticCityConfig city_cfg,
                     traj::TripGenerator::Config trip_cfg,
                     data::DatasetConfig ds_cfg) {
  CityWorld world;
  world.name = std::move(name);
  world.net = std::make_unique<roadnet::RoadNetwork>(
      roadnet::BuildSyntheticCity(city_cfg));
  traj::TrafficModel::Config traffic_cfg;
  traffic_cfg.seed = city_cfg.seed + 1;
  world.traffic =
      std::make_unique<traj::TrafficModel>(world.net.get(), traffic_cfg);
  traj::TripGenerator gen(world.traffic.get(), trip_cfg);
  world.dataset = std::make_unique<data::TrajDataset>(
      data::TrajDataset::FromCorpus(*world.net, gen.Generate(), ds_cfg));
  world.transfer = std::make_unique<roadnet::TransferProbability>(
      roadnet::TransferProbability::FromTrajectories(
          *world.net, world.dataset->TrainRoadSequences()));
  world.num_drivers = world.dataset->num_drivers();
  return world;
}

}  // namespace

CityWorld MakeBjWorld() {
  roadnet::SyntheticCityConfig city;
  city.grid_width = 9;
  city.grid_height = 9;
  city.arterial_every = 4;
  city.seed = 11;
  traj::TripGenerator::Config trips;
  trips.num_drivers = Scaled(14);
  trips.num_days = 12;
  trips.trips_per_driver_day = 5.0;
  trips.vacant_fraction = 0.45;
  trips.seed = 12;
  data::DatasetConfig ds;
  ds.min_length = 6;
  ds.max_length = 96;
  ds.min_user_trajectories = 20;
  return BuildWorld("BJ", city, trips, ds);
}

CityWorld MakePortoWorld() {
  roadnet::SyntheticCityConfig city;
  city.grid_width = 10;
  city.grid_height = 6;
  city.arterial_every = 3;
  city.block_length_m = 260.0;
  city.diagonal_fraction = 0.12;
  city.seed = 21;
  traj::TripGenerator::Config trips;
  // Driver-ID classification needs at least two classes at any scale.
  trips.num_drivers = std::max<int64_t>(2, Scaled(16));
  trips.num_days = 12;
  trips.trips_per_driver_day = 5.0;
  trips.vacant_fraction = 0.3;
  trips.driver_preference = 0.8;  // driver-id task needs route identity
  trips.seed = 22;
  data::DatasetConfig ds;
  ds.min_length = 6;
  ds.max_length = 96;
  ds.min_user_trajectories = 20;
  return BuildWorld("Porto", city, trips, ds);
}

CityWorld MakeGeolifeWorld() {
  roadnet::SyntheticCityConfig city;
  city.grid_width = 6;
  city.grid_height = 6;
  city.seed = 31;
  traj::TripGenerator::Config trips;
  trips.num_drivers = 6;
  trips.num_days = 8;
  trips.trips_per_driver_day = 3.0;
  trips.seed = 32;
  data::DatasetConfig ds;
  ds.min_length = 5;
  ds.max_length = 96;
  ds.min_user_trajectories = 5;
  CityWorld world = BuildWorld("Geolife", city, trips, ds);
  // Assign the four transport modes (Car/Taxi, Walk, Bike, Bus) by slowing
  // trips down per mode: the mode is recoverable from temporal density,
  // which is exactly the Geolife signal (Sec. IV-E2).
  common::Rng rng(33);
  auto retime = [&](traj::Trajectory* t) {
    const int64_t mode = rng.UniformInt(4);
    // Speed relative to car: walk ~0.15, bike ~0.4, bus ~0.7.
    const double factor[4] = {1.0, 6.7, 2.5, 1.4};
    t->transport_mode = static_cast<int32_t>(mode);
    const int64_t dep = t->departure_time();
    for (auto& ts : t->timestamps) {
      ts = dep + static_cast<int64_t>((ts - dep) * factor[mode]);
    }
    t->end_time = dep +
                  static_cast<int64_t>((t->end_time - dep) * factor[mode]);
  };
  // Rebuild the dataset with modes stamped on every split.
  std::vector<traj::Trajectory> all = world.dataset->All();
  for (auto& t : all) retime(&t);
  data::DatasetConfig ds2 = ds;
  world.dataset = std::make_unique<data::TrajDataset>(
      data::TrajDataset::FromCorpus(*world.net, std::move(all), ds2));
  world.transfer = std::make_unique<roadnet::TransferProbability>(
      roadnet::TransferProbability::FromTrajectories(
          *world.net, world.dataset->TrainRoadSequences()));
  return world;
}

std::string ModelName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTraj2Vec:
      return "traj2vec";
    case ModelKind::kT2Vec:
      return "t2vec";
    case ModelKind::kTrembr:
      return "Trembr";
    case ModelKind::kTransformer:
      return "Transformer";
    case ModelKind::kBert:
      return "BERT";
    case ModelKind::kPim:
      return "PIM";
    case ModelKind::kPimTf:
      return "PIM-TF";
    case ModelKind::kToast:
      return "Toast";
    case ModelKind::kStart:
      return "START";
  }
  return "?";
}

std::vector<ModelKind> AllModels() {
  return {ModelKind::kTraj2Vec, ModelKind::kT2Vec,  ModelKind::kTrembr,
          ModelKind::kTransformer, ModelKind::kBert, ModelKind::kPim,
          ModelKind::kPimTf,    ModelKind::kToast,  ModelKind::kStart};
}

namespace {

std::vector<float> CachedNode2Vec(const CityWorld& world, int64_t dim) {
  // node2vec is deterministic given (net, config); recompute per process but
  // memoise within the process.
  static std::map<std::string, std::vector<float>> cache;
  const std::string key = world.name + "/" + std::to_string(dim) + "/" +
                          std::to_string(world.net->num_segments());
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  baselines::Node2VecConfig config;
  config.dim = dim;
  config.epochs = 2;
  config.seed = 41;
  auto emb = baselines::TrainNode2Vec(*world.net, config);
  cache.emplace(key, emb);
  return emb;
}

}  // namespace

ModelRunner MakeStartRunner(const core::StartConfig& config,
                            const CityWorld& world, uint64_t seed) {
  ModelRunner runner;
  runner.name = "START";
  common::Rng rng(seed);
  runner.start_model = std::make_unique<core::StartModel>(
      config, world.net.get(), world.transfer.get(), &rng);
  runner.start_encoder =
      std::make_unique<core::StartEncoder>(runner.start_model.get());
  return runner;
}

ModelRunner MakeRunner(ModelKind kind, const CityWorld& world,
                       const BenchModelConfig& config, uint64_t seed) {
  ModelRunner runner;
  runner.name = ModelName(kind);
  common::Rng rng(seed);
  switch (kind) {
    case ModelKind::kStart: {
      core::StartConfig sc;
      sc.d = config.d;
      sc.gat_heads = config.gat_heads;
      sc.gat_layers = static_cast<int64_t>(config.gat_heads.size());
      sc.encoder_layers = config.encoder_layers;
      sc.encoder_heads = config.encoder_heads;
      sc.max_len = config.max_len;
      return MakeStartRunner(sc, world, seed);
    }
    case ModelKind::kTraj2Vec:
      runner.baseline = std::make_unique<baselines::Traj2Vec>(
          baselines::Seq2SeqConfig{config.d}, world.net.get(), &rng);
      break;
    case ModelKind::kT2Vec:
      runner.baseline = std::make_unique<baselines::T2Vec>(
          baselines::Seq2SeqConfig{config.d}, world.net.get(), &rng);
      break;
    case ModelKind::kTrembr:
      runner.baseline = std::make_unique<baselines::Trembr>(
          baselines::Seq2SeqConfig{config.d}, world.net.get(), &rng);
      break;
    case ModelKind::kTransformer:
    case ModelKind::kBert:
    case ModelKind::kToast: {
      baselines::TransformerBaselineConfig tc;
      tc.d = config.d;
      tc.layers = config.encoder_layers;
      tc.heads = config.encoder_heads;
      tc.max_len = config.max_len + 2;
      if (kind == ModelKind::kToast) {
        tc.road_embedding_init = CachedNode2Vec(world, config.d);
      }
      if (kind == ModelKind::kTransformer) {
        runner.baseline = std::make_unique<baselines::TransformerMlm>(
            tc, world.net.get(), &rng);
      } else if (kind == ModelKind::kBert) {
        runner.baseline =
            std::make_unique<baselines::Bert>(tc, world.net.get(), &rng);
      } else {
        runner.baseline =
            std::make_unique<baselines::Toast>(tc, world.net.get(), &rng);
      }
      break;
    }
    case ModelKind::kPim:
    case ModelKind::kPimTf: {
      baselines::PimConfig pc;
      pc.d = config.d;
      pc.layers = config.encoder_layers;
      pc.heads = config.encoder_heads;
      pc.max_len = config.max_len + 2;
      pc.road_embedding_init = CachedNode2Vec(world, config.d);
      if (kind == ModelKind::kPim) {
        runner.baseline =
            std::make_unique<baselines::Pim>(pc, world.net.get(), &rng);
      } else {
        runner.baseline =
            std::make_unique<baselines::PimTf>(pc, world.net.get(), &rng);
      }
      break;
    }
  }
  return runner;
}

int64_t DefaultPretrainEpochs() { return Scaled(10); }

int64_t Table2PretrainEpochs() { return Scaled(25); }

eval::TaskConfig DefaultTaskConfig() {
  eval::TaskConfig config;
  config.epochs = Scaled(8);
  config.batch_size = 32;
  config.lr = 2e-3;
  return config;
}

core::PretrainConfig DefaultStartPretrainConfig(int64_t epochs) {
  core::PretrainConfig config;
  config.epochs = epochs;
  config.batch_size = 16;
  config.lr = 2e-3;
  config.lambda = 0.6;
  config.tau = 0.05f;
  return config;
}

void PretrainRunner(ModelRunner* runner, const CityWorld& world,
                    int64_t epochs, const std::string& cache_tag) {
  START_CHECK(runner != nullptr);
  if (epochs <= 0) epochs = DefaultPretrainEpochs();
  const bool use_cache =
      common::GetEnvInt("START_BENCH_CACHE", 1) != 0 && !cache_tag.empty();
  std::string path;
  if (use_cache) {
    std::filesystem::create_directories("bench_cache");
    path = "bench_cache/" + cache_tag + "_" + world.name + "_" +
           runner->name + "_e" + std::to_string(epochs) + ".sttn";
    if (std::filesystem::exists(path) &&
        runner->module()->Load(path).ok()) {
      START_LOG(Info) << "loaded cached " << path;
      return;
    }
  }
  if (runner->start_model != nullptr) {
    core::Pretrain(runner->start_model.get(), world.dataset->train(),
                   world.traffic.get(), DefaultStartPretrainConfig(epochs));
  } else {
    baselines::PretrainOptions options;
    options.epochs = epochs;
    options.batch_size = 16;
    options.lr = 2e-3;
    runner->baseline->Pretrain(world.dataset->train(), options);
  }
  if (use_cache) {
    const auto status = runner->module()->Save(path);
    if (!status.ok()) {
      START_LOG(Warning) << "cache save failed: " << status.ToString();
    }
  }
}

int64_t OccupancyLabel(const traj::Trajectory& t) { return t.occupied ? 1 : 0; }
int64_t DriverLabel(const traj::Trajectory& t) { return t.driver_id; }
int64_t ModeLabel(const traj::Trajectory& t) { return t.transport_mode; }

SimilarityBenchData MakeSimilarityData(const CityWorld& world,
                                       int64_t num_queries,
                                       int64_t num_negatives,
                                       double select_proportion,
                                       uint64_t seed) {
  SimilarityBenchData out;
  common::Rng rng(seed);
  data::DetourConfig detour_cfg;
  detour_cfg.select_proportion = select_proportion;
  // One CH build amortised over every query + negative of the protocol
  // (Yen's per-call Dijkstra cascade dominated this function at Nq + Nneg
  // scale).
  data::DetourGenerator detours(world.traffic.get(), detour_cfg);
  const auto& test = world.dataset->test();
  START_CHECK(!test.empty());
  // Queries: originals whose detour exists; ground truth = their detour.
  for (const auto& t : test) {
    if (static_cast<int64_t>(out.queries.size()) >= num_queries) break;
    const auto detour = detours.Generate(t, &rng);
    if (!detour.has_value()) continue;
    out.gt_index.push_back(static_cast<int64_t>(out.database.size()));
    out.database.push_back(*detour);
    out.queries.push_back(t);
  }
  // Negatives: detours of other test trajectories (paper: D_N').
  size_t cursor = 0;
  while (static_cast<int64_t>(out.database.size()) <
             static_cast<int64_t>(out.queries.size()) + num_negatives &&
         cursor < 4 * test.size()) {
    const auto& t = test[cursor++ % test.size()];
    const auto detour = detours.Generate(t, &rng);
    if (detour.has_value()) {
      out.database.push_back(*detour);
    } else {
      out.database.push_back(t);
    }
  }
  return out;
}

}  // namespace start::bench
