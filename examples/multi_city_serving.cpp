// Multi-city serving demo — the graph plane end to end: two synthetic
// cities are lowered to CSR, contraction hierarchies are built and
// registered in a roadnet::GraphRegistry, and one serve::CityRouter process
// serves both — streaming GPS ingestion (map-match -> embed -> upsert) into
// per-city indexes, ANN queries, and CH-exact free-flow travel times —
// without the two cities' data ever mixing. Runs as a CI smoke test: any
// broken invariant exits non-zero.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/csr_graph.h"
#include "roadnet/graph_registry.h"
#include "roadnet/synthetic_city.h"
#include "serve/city_router.h"
#include "serve/embedding_index.h"
#include "serve/frozen_encoder.h"
#include "traj/map_matching.h"
#include "traj/trip_generator.h"

#include "run_dir.h"

namespace {

using namespace start;

/// Everything one city needs to serve: network + corpus + frozen encoder +
/// index. The network is shared with the registry.
struct City {
  std::string name;
  std::shared_ptr<const roadnet::RoadNetwork> net;
  std::unique_ptr<traj::TrafficModel> traffic;
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<roadnet::TransferProbability> transfer;
  std::shared_ptr<const serve::FrozenEncoder> encoder;
  std::shared_ptr<serve::EmbeddingIndex> index;
};

std::unique_ptr<City> MakeCity(const std::string& name,
                               const core::StartConfig& config, int64_t grid,
                               uint64_t seed) {
  auto city = std::make_unique<City>();
  city->name = name;
  roadnet::SyntheticCityConfig city_config;
  city_config.grid_width = grid;
  city_config.grid_height = grid;
  city_config.seed = seed;
  city->net = std::make_shared<const roadnet::RoadNetwork>(
      roadnet::BuildSyntheticCity(city_config));
  city->traffic = std::make_unique<traj::TrafficModel>(
      city->net.get(), traj::TrafficModel::Config{});
  traj::TripGenerator::Config trips;
  trips.num_drivers = 6;
  trips.num_days = 4;
  trips.trips_per_driver_day = 3.0;
  trips.seed = seed;
  traj::TripGenerator gen(city->traffic.get(), trips);
  data::DatasetConfig ds;
  ds.min_length = 5;
  ds.min_user_trajectories = 2;
  city->corpus =
      data::TrajDataset::FromCorpus(*city->net, gen.Generate(), ds).All();
  std::vector<std::vector<int64_t>> seqs;
  for (const auto& t : city->corpus) seqs.push_back(t.roads);
  city->transfer = std::make_unique<roadnet::TransferProbability>(
      roadnet::TransferProbability::FromTrajectories(*city->net, seqs));
  // An untrained checkpoint keeps the demo fast; swap in a pre-trained
  // artifact for meaningful embeddings (see examples/quickstart.cpp).
  common::Rng rng(seed);
  core::StartModel model(config, city->net.get(), city->transfer.get(), &rng);
  const std::string path =
      examples::RunFile("start_multi_city_" + name + ".sttn");
  auto save = core::SaveModelCheckpoint(path, model,
                                        core::HashStartConfig(config));
  if (!save.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 save.ToString().c_str());
    return nullptr;
  }
  auto loaded = serve::FrozenEncoder::Load(path, config, city->net.get(),
                                           city->transfer.get());
  std::remove(path.c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "frozen load failed: %s\n",
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  city->encoder = std::move(loaded).value();
  city->index = std::make_shared<serve::EmbeddingIndex>(config.d);
  return city;
}

std::vector<serve::StreamItem> MakeStream(const City& city, int64_t n,
                                          int64_t id_base) {
  common::Rng rng(99);
  std::vector<serve::StreamItem> items;
  for (size_t i = 0;
       i < city.corpus.size() && items.size() < static_cast<size_t>(n); ++i) {
    serve::StreamItem item;
    item.id = id_base + static_cast<int64_t>(i);
    item.gps = traj::SimulateGps(*city.net, city.corpus[i],
                                 /*sample_interval_s=*/30.0,
                                 /*noise_m=*/10.0, &rng);
    if (item.gps.points.size() >= 2) items.push_back(std::move(item));
  }
  return items;
}

}  // namespace

int main() {
  std::printf("=== multi-city serving example (graph plane) ===\n");
  const core::StartConfig config = [] {
    core::StartConfig c;
    c.d = 16;
    c.gat_layers = 2;
    c.gat_heads = {4, 1};
    c.encoder_layers = 2;
    c.encoder_heads = 2;
    c.max_len = 96;
    return c;
  }();

  common::Stopwatch watch;
  auto porto = MakeCity("porto", config, /*grid=*/6, /*seed=*/3);
  auto beijing = MakeCity("beijing", config, /*grid=*/5, /*seed=*/17);
  if (porto == nullptr || beijing == nullptr) return 1;
  std::printf("built 2 cities in %.1f ms (porto: %ld roads, beijing: %ld)\n",
              watch.ElapsedMillis(), porto->net->num_segments(),
              beijing->net->num_segments());

  // Graph plane: CSR lowering + CH build per city, behind one registry.
  watch.Restart();
  roadnet::GraphRegistry registry;
  for (const auto* city : {porto.get(), beijing.get()}) {
    const auto status = registry.Register(city->name, city->net);
    if (!status.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    const auto entry = registry.Get(city->name);
    std::printf("  %s: %d nodes, %ld arcs, %ld CH shortcuts\n",
                city->name.c_str(), entry->graph->num_nodes(),
                entry->graph->num_arcs(), entry->ch->num_shortcuts());
  }
  std::printf("registry ready in %.1f ms\n", watch.ElapsedMillis());

  // Serving plane: one router, one lane per city.
  serve::CityRouter router(&registry);
  for (auto* city : {porto.get(), beijing.get()}) {
    serve::CityRouter::CityConfig lane;
    lane.encoder = city->encoder;
    lane.index = city->index;
    lane.stream.match_workers = 2;
    lane.stream.embed_workers = 2;
    const auto status = router.OpenCity(city->name, lane);
    if (!status.ok()) {
      std::fprintf(stderr, "open failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Stream each city's GPS into its own lane concurrently.
  watch.Restart();
  const auto porto_stream = MakeStream(*porto, 12, /*id_base=*/0);
  const auto beijing_stream = MakeStream(*beijing, 12, /*id_base=*/100000);
  for (const auto& item : porto_stream) (void)router.Push("porto", item);
  for (const auto& item : beijing_stream) (void)router.Push("beijing", item);
  (void)router.Flush("porto");
  (void)router.Flush("beijing");
  for (const auto* city : {porto.get(), beijing.get()}) {
    const auto stats = router.Stats(city->name);
    if (!stats.ok() || stats.value().ingested() == 0) {
      std::fprintf(stderr, "%s ingested nothing\n", city->name.c_str());
      return 1;
    }
    std::printf("  %s: ingested %ld trajectories, index size %ld\n",
                city->name.c_str(), stats.value().ingested(),
                city->index->size());
  }
  std::printf("streamed both cities in %.1f ms\n", watch.ElapsedMillis());

  // Isolation: no porto id may appear in beijing's index (disjoint ranges).
  for (const auto& item : porto_stream) {
    if (beijing->index->Contains(item.id)) {
      std::fprintf(stderr, "city isolation violated: id %ld leaked\n",
                   item.id);
      return 1;
    }
  }

  // CH travel times equal a direct Dijkstra over the registry's own graph:
  // both price the same integer Costs, so the check is exact.
  for (const auto* city : {porto.get(), beijing.get()}) {
    const roadnet::CsrGraph& graph = *registry.Get(city->name)->graph;
    roadnet::CsrDijkstra dijkstra(&graph);
    const int64_t n = graph.num_nodes();
    for (const int64_t dst : {n - 1, n / 2}) {
      const auto got = router.TravelTimeSeconds(city->name, 0, dst);
      const roadnet::Cost want =
          dijkstra.Distance(graph.ToNode(0), graph.ToNode(dst));
      if (got.ok() != (want < roadnet::kInfCost)) {
        std::fprintf(stderr, "%s reachability mismatch 0->%ld\n",
                     city->name.c_str(), dst);
        return 1;
      }
      if (!got.ok()) continue;
      if (got.value() != graph.CostToSeconds(want)) {
        std::fprintf(stderr, "%s travel time mismatch 0->%ld: %f vs %f\n",
                     city->name.c_str(), dst, got.value(),
                     graph.CostToSeconds(want));
        return 1;
      }
      std::printf("  %s travel time 0 -> %ld: %.2f s (CH == Dijkstra)\n",
                  city->name.c_str(), dst, got.value());
    }
  }

  std::printf("OK: one process served %zu cities\n", router.Cities().size());
  return 0;
}
