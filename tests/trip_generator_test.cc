#include "traj/trip_generator.h"

#include <gtest/gtest.h>
#include <set>

#include "roadnet/ch_engine.h"
#include "roadnet/csr_graph.h"
#include "roadnet/synthetic_city.h"
#include "traj/stats.h"

namespace start::traj {
namespace {

class TripGeneratorTest : public ::testing::Test {
 protected:
  TripGeneratorTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 7, .grid_height = 7})),
        traffic_(&net_, {}) {}

  TripGenerator::Config SmallConfig() const {
    TripGenerator::Config config;
    config.num_drivers = 6;
    config.num_days = 7;
    config.trips_per_driver_day = 3.0;
    return config;
  }

  roadnet::RoadNetwork net_;
  TrafficModel traffic_;
};

TEST_F(TripGeneratorTest, TrajectoriesAreNetworkAdjacent) {
  TripGenerator gen(&traffic_, SmallConfig());
  const auto corpus = gen.Generate();
  ASSERT_GT(corpus.size(), 50u);
  for (const auto& t : corpus) {
    for (int64_t i = 0; i + 1 < t.size(); ++i) {
      EXPECT_TRUE(net_.HasEdge(t.roads[static_cast<size_t>(i)],
                               t.roads[static_cast<size_t>(i + 1)]))
          << "broken adjacency";
    }
  }
}

TEST_F(TripGeneratorTest, TimestampsStrictlyIncrease) {
  TripGenerator gen(&traffic_, SmallConfig());
  for (const auto& t : gen.Generate()) {
    for (size_t i = 0; i + 1 < t.timestamps.size(); ++i) {
      EXPECT_LT(t.timestamps[i], t.timestamps[i + 1]);
    }
    EXPECT_GT(t.end_time, t.timestamps.back());
    EXPECT_GT(t.TravelTimeSeconds(), 0);
  }
}

TEST_F(TripGeneratorTest, CorpusIsChronological) {
  TripGenerator gen(&traffic_, SmallConfig());
  const auto corpus = gen.Generate();
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    EXPECT_LE(corpus[i].departure_time(), corpus[i + 1].departure_time());
  }
}

TEST_F(TripGeneratorTest, ContainsBothOccupancyLabels) {
  TripGenerator gen(&traffic_, SmallConfig());
  const auto corpus = gen.Generate();
  int64_t occupied = 0, vacant = 0;
  for (const auto& t : corpus) {
    (t.occupied ? occupied : vacant)++;
  }
  EXPECT_GT(occupied, 0);
  EXPECT_GT(vacant, 0);
  EXPECT_GT(occupied, vacant);  // vacant trips are a minority
}

TEST_F(TripGeneratorTest, AllDriversRepresented) {
  TripGenerator gen(&traffic_, SmallConfig());
  std::set<int64_t> drivers;
  for (const auto& t : gen.Generate()) drivers.insert(t.driver_id);
  EXPECT_EQ(drivers.size(), 6u);
}

TEST_F(TripGeneratorTest, WeekdayDeparturesShowRushPeaks) {
  TripGenerator::Config config = SmallConfig();
  config.num_drivers = 12;
  config.num_days = 10;
  TripGenerator gen(&traffic_, config);
  const auto corpus = gen.Generate();
  const auto stats = ComputeStats(net_, corpus);
  // More departures in the 8am hour than at 3am (periodicity of Fig. 1b).
  EXPECT_GT(stats.per_hour[8], stats.per_hour[3] + 2);
  EXPECT_GT(stats.per_hour[18], stats.per_hour[3] + 2);
}

TEST_F(TripGeneratorTest, RushHourTripsAreSlower) {
  // Same OD and driver, different departure time: the 8am trip takes longer.
  TripGenerator gen(&traffic_, SmallConfig());
  const int64_t src = 1, dst = net_.num_segments() - 3;
  const Trajectory rush = gen.GenerateTrip(0, src, dst, 8 * 3600);
  const Trajectory night = gen.GenerateTrip(0, src, dst, 3 * 3600);
  ASSERT_GT(rush.size(), 1);
  ASSERT_GT(night.size(), 1);
  EXPECT_GT(rush.TravelTimeSeconds(), night.TravelTimeSeconds());
}

TEST_F(TripGeneratorTest, DriverPreferenceDiversifiesRoutes) {
  // Different drivers sometimes choose different routes for the same OD.
  TripGenerator::Config config = SmallConfig();
  config.driver_preference = 0.8;
  config.trip_noise = 0.0;
  TripGenerator gen(&traffic_, config);
  const int64_t src = 0, dst = net_.num_segments() - 1;
  std::set<std::vector<int64_t>> routes;
  for (int64_t d = 0; d < 6; ++d) {
    const Trajectory t = gen.GenerateTrip(d, src, dst, 10 * 3600);
    if (t.size() > 0) routes.insert(t.roads);
  }
  EXPECT_GT(routes.size(), 1u);
}

TEST_F(TripGeneratorTest, UnbiasedRoutesAreFreeFlowShortestPaths) {
  // With no driver preference and no trip noise every hooked arc cost is
  // the stored free-flow cost, so each route is a shortest path: its cost
  // equals the contraction hierarchy's exact distance, integer for integer.
  TripGenerator::Config config = SmallConfig();
  config.driver_preference = 0.0;
  config.trip_noise = 0.0;
  TripGenerator gen(&traffic_, config);
  const auto corpus = gen.Generate();
  ASSERT_GT(corpus.size(), 50u);
  const auto graph = roadnet::CsrGraph::FromNetworkFreeFlow(net_);
  const auto ch = roadnet::ChEngine::Build(&graph);
  auto ctx = ch.MakeContext();
  for (const auto& t : corpus) {
    roadnet::Cost cost = 0;
    for (const int64_t road : t.roads) {
      cost += graph.node_cost(graph.ToNode(road));
    }
    EXPECT_EQ(cost, ch.Distance(graph.ToNode(t.roads.front()),
                                graph.ToNode(t.roads.back()), &ctx));
  }
}

TEST_F(TripGeneratorTest, StatsCoverFields) {
  TripGenerator gen(&traffic_, SmallConfig());
  const auto corpus = gen.Generate();
  const auto stats = ComputeStats(net_, corpus);
  EXPECT_EQ(stats.num_trajectories, static_cast<int64_t>(corpus.size()));
  EXPECT_EQ(stats.num_users, 6);
  EXPECT_GT(stats.num_covered_roads, 0);
  EXPECT_GT(stats.mean_length, 1.0);
  EXPECT_GT(stats.mean_travel_time_s, 0.0);
  int64_t visits = 0;
  for (const int64_t v : stats.road_visits) visits += v;
  EXPECT_GT(visits, 0);
}

}  // namespace
}  // namespace start::traj
