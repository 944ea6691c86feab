// Multi-city serving integration: a GraphRegistry with two synthetic cities
// wired through serve::CityRouter — per-city streaming ingestion stays
// isolated (each lane map-matches against its own network and upserts into
// its own index), travel-time estimates come from each city's contraction
// hierarchy and equal a direct Dijkstra over the same graph, and the
// error paths (unknown city, double open, null deps) return typed statuses.
#include "serve/city_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "roadnet/csr_graph.h"
#include "roadnet/graph_registry.h"
#include "serve/embedding_index.h"
#include "serve/frozen_encoder.h"
#include "testing.h"
#include "traj/map_matching.h"

namespace start {
namespace {

using serve::StreamItem;

std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

/// One self-contained serving city: world + frozen encoder + exact index.
struct ServingCity {
  std::unique_ptr<testutil::TinyWorld> world;
  std::shared_ptr<const roadnet::RoadNetwork> net;  ///< Owns world->net.
  std::shared_ptr<const serve::FrozenEncoder> encoder;
  std::shared_ptr<serve::EmbeddingIndex> index;
};

class CityRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new core::StartConfig(testutil::TinyStartConfig());
    porto_ = MakeServingCity(5, "porto").release();
    beijing_ = MakeServingCity(4, "beijing").release();
    registry_ = new roadnet::GraphRegistry();
    ASSERT_TRUE(registry_->Register("porto", porto_->net).ok());
    ASSERT_TRUE(registry_->Register("beijing", beijing_->net).ok());
  }

  static void TearDownTestSuite() {
    delete registry_;
    delete beijing_;
    delete porto_;
    delete config_;
    registry_ = nullptr;
    beijing_ = nullptr;
    porto_ = nullptr;
    config_ = nullptr;
  }

  static std::unique_ptr<ServingCity> MakeServingCity(int32_t grid,
                                                      const char* name) {
    auto city = std::make_unique<ServingCity>();
    testutil::TinyWorldOptions options;
    options.grid_width = grid;
    options.grid_height = grid;
    city->world = testutil::MakeTinyWorld(options);
    city->net = std::shared_ptr<const roadnet::RoadNetwork>(
        std::move(city->world->net));
    common::Rng rng(7);
    core::StartModel model(*config_, city->net.get(),
                           city->world->transfer.get(), &rng);
    const std::string path =
        TempPath((std::string(name) + "_model.sttn").c_str());
    EXPECT_TRUE(core::SaveModelCheckpoint(path, model,
                                          core::HashStartConfig(*config_))
                    .ok());
    auto loaded = serve::FrozenEncoder::Load(path, *config_, city->net.get(),
                                             city->world->transfer.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    city->encoder = std::move(loaded).value();
    city->index = std::make_shared<serve::EmbeddingIndex>(config_->d);
    return city;
  }

  /// GPS streams simulated from a city's corpus, ids offset by `id_base` so
  /// the two cities' ids are disjoint.
  static std::vector<StreamItem> MakeStream(const ServingCity& city,
                                            int64_t n, int64_t id_base) {
    common::Rng rng(99);
    std::vector<StreamItem> items;
    for (size_t i = 0; i < city.world->corpus.size() &&
                       items.size() < static_cast<size_t>(n);
         ++i) {
      StreamItem item;
      item.id = id_base + static_cast<int64_t>(i);
      item.gps = traj::SimulateGps(*city.net, city.world->corpus[i],
                                   /*sample_interval_s=*/30.0,
                                   /*noise_m=*/10.0, &rng);
      if (item.gps.points.size() >= 2) items.push_back(std::move(item));
    }
    return items;
  }

  static serve::CityRouter::CityConfig ConfigFor(const ServingCity& city) {
    serve::CityRouter::CityConfig config;
    config.encoder = city.encoder;
    config.index = city.index;
    config.stream.match_workers = 2;
    config.stream.embed_workers = 2;
    return config;
  }

  static core::StartConfig* config_;
  static ServingCity* porto_;
  static ServingCity* beijing_;
  static roadnet::GraphRegistry* registry_;
};

core::StartConfig* CityRouterTest::config_ = nullptr;
ServingCity* CityRouterTest::porto_ = nullptr;
ServingCity* CityRouterTest::beijing_ = nullptr;
roadnet::GraphRegistry* CityRouterTest::registry_ = nullptr;

TEST_F(CityRouterTest, TwoCitiesIngestAndQueryInIsolation) {
  serve::CityRouter router(registry_);
  ASSERT_TRUE(router.OpenCity("porto", ConfigFor(*porto_)).ok());
  ASSERT_TRUE(router.OpenCity("beijing", ConfigFor(*beijing_)).ok());
  EXPECT_EQ(router.Cities(),
            (std::vector<std::string>{"beijing", "porto"}));

  const auto porto_stream = MakeStream(*porto_, 8, /*id_base=*/0);
  const auto beijing_stream = MakeStream(*beijing_, 8, /*id_base=*/1000);
  ASSERT_GE(porto_stream.size(), 4u);
  ASSERT_GE(beijing_stream.size(), 4u);
  for (const auto& item : porto_stream) {
    ASSERT_TRUE(router.Push("porto", item).ok());
  }
  for (const auto& item : beijing_stream) {
    ASSERT_TRUE(router.Push("beijing", item).ok());
  }
  ASSERT_TRUE(router.Flush("porto").ok());
  ASSERT_TRUE(router.Flush("beijing").ok());

  const auto porto_stats = router.Stats("porto");
  ASSERT_TRUE(porto_stats.ok());
  EXPECT_GT(porto_stats.value().ingested(), 0);

  // Each lane upserted into its own index: id ranges stay disjoint.
  EXPECT_GT(porto_->index->size(), 0);
  EXPECT_GT(beijing_->index->size(), 0);
  for (const auto& item : porto_stream) {
    EXPECT_FALSE(beijing_->index->Contains(item.id));
  }
  std::vector<float> probe(static_cast<size_t>(config_->d), 0.0f);
  probe[0] = 1.0f;
  const auto porto_hits = router.Query("porto", probe, 4);
  ASSERT_TRUE(porto_hits.ok());
  ASSERT_FALSE(porto_hits.value().empty());
  for (const auto& hit : porto_hits.value()) EXPECT_LT(hit.id, 1000);
  const auto beijing_hits = router.Query("beijing", probe, 4);
  ASSERT_TRUE(beijing_hits.ok());
  ASSERT_FALSE(beijing_hits.value().empty());
  for (const auto& hit : beijing_hits.value()) EXPECT_GE(hit.id, 1000);
}

TEST_F(CityRouterTest, TravelTimeMatchesDirectDijkstraPerCity) {
  serve::CityRouter router(registry_);
  ASSERT_TRUE(router.OpenCity("porto", ConfigFor(*porto_)).ok());
  ASSERT_TRUE(router.OpenCity("beijing", ConfigFor(*beijing_)).ok());
  for (const std::string name : {"porto", "beijing"}) {
    // The oracle runs on the registry's own CsrGraph, so CH and Dijkstra
    // price identical integer Costs: equality, not a tolerance.
    const auto snapshot = registry_->Get(name);
    ASSERT_NE(snapshot, nullptr);
    const roadnet::CsrGraph& graph = *snapshot->graph;
    roadnet::CsrDijkstra dijkstra(&graph);
    const int64_t n = graph.num_nodes();
    for (const auto [src, dst] : {std::pair<int64_t, int64_t>{0, n - 1},
                                  {n / 2, n / 3}, {1, n - 2}}) {
      const auto got = router.TravelTimeSeconds(name, src, dst);
      const roadnet::Cost want =
          dijkstra.Distance(graph.ToNode(src), graph.ToNode(dst));
      ASSERT_EQ(got.ok(), want < roadnet::kInfCost)
          << name << " " << src << "->" << dst;
      if (!got.ok()) continue;
      EXPECT_EQ(got.value(), graph.CostToSeconds(want))
          << name << " " << src << "->" << dst;
    }
  }
}

TEST_F(CityRouterTest, ErrorPathsReturnTypedStatuses) {
  serve::CityRouter router(registry_);
  // Unknown registry city.
  EXPECT_EQ(router.OpenCity("atlantis", ConfigFor(*porto_)).code(),
            common::StatusCode::kNotFound);
  // Null deps.
  serve::CityRouter::CityConfig null_config;
  EXPECT_EQ(router.OpenCity("porto", null_config).code(),
            common::StatusCode::kInvalidArgument);
  // Routing to a city with no open lane.
  EXPECT_EQ(router.Push("porto", {}).code(), common::StatusCode::kNotFound);
  EXPECT_EQ(router.Flush("porto").code(), common::StatusCode::kNotFound);
  EXPECT_EQ(router.TravelTimeSeconds("porto", 0, 1).status().code(),
            common::StatusCode::kNotFound);
  // Double open.
  ASSERT_TRUE(router.OpenCity("porto", ConfigFor(*porto_)).ok());
  EXPECT_EQ(router.OpenCity("porto", ConfigFor(*porto_)).code(),
            common::StatusCode::kAlreadyExists);
  // Bad segment ids on an open lane.
  EXPECT_EQ(router.TravelTimeSeconds("porto", -1, 0).status().code(),
            common::StatusCode::kOutOfRange);
  EXPECT_EQ(router
                .TravelTimeSeconds("porto",
                                   porto_->net->num_segments() + 5, 0)
                .status()
                .code(),
            common::StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace start
