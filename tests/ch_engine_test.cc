#include "roadnet/ch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "roadnet/csr_graph.h"
#include "roadnet/synthetic_city.h"
#include "testing.h"

namespace start::roadnet {
namespace {

RoadNetwork MakeCity(int32_t grid, uint64_t seed) {
  SyntheticCityConfig config;
  config.grid_width = grid;
  config.grid_height = grid;
  config.seed = seed;
  return BuildSyntheticCity(config);
}

// --- CsrGraph lowering -----------------------------------------------------

TEST(CsrGraphTest, RenumberingIsABijection) {
  const RoadNetwork net = MakeCity(6, 11);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_EQ(g.num_nodes(), net.num_segments());
  std::set<int64_t> segments;
  for (int32_t n = 0; n < g.num_nodes(); ++n) {
    const int64_t s = g.ToSegment(n);
    EXPECT_EQ(g.ToNode(s), n);
    segments.insert(s);
  }
  EXPECT_EQ(static_cast<int64_t>(segments.size()), net.num_segments());
}

TEST(CsrGraphTest, HubsAreRenumberedFirst) {
  const RoadNetwork net = MakeCity(6, 11);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  auto degree = [&](int32_t n) {
    const int64_t s = g.ToSegment(n);
    return net.OutDegree(s) + net.InDegree(s);
  };
  for (int32_t n = 1; n < g.num_nodes(); ++n) {
    EXPECT_GE(degree(n - 1), degree(n));
  }
}

TEST(CsrGraphTest, ArcCountAndWeightsMatchNetwork) {
  const RoadNetwork net = MakeCity(6, 11);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  EXPECT_EQ(g.num_arcs(), net.num_edges());
  const int64_t* offsets = g.out_offsets();
  const int32_t* heads = g.out_heads();
  const Cost* weights = g.out_weights();
  for (int32_t n = 0; n < g.num_nodes(); ++n) {
    for (int64_t k = offsets[n]; k < offsets[n + 1]; ++k) {
      EXPECT_TRUE(net.HasEdge(g.ToSegment(n), g.ToSegment(heads[k])));
      EXPECT_EQ(weights[k], g.node_cost(heads[k]));
    }
  }
}

TEST(CsrDijkstraTest, MatchesBruteForceSecondsWithinRounding) {
  const RoadNetwork net = MakeCity(6, 19);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  CsrDijkstra dij(&g);
  auto weight = [&net](int64_t s) { return net.FreeFlowTravelTime(s); };
  auto rng = testutil::TestRng();
  for (int trial = 0; trial < 25; ++trial) {
    const int64_t src = rng.UniformInt(0, net.num_segments() - 1);
    const int64_t dst = rng.UniformInt(0, net.num_segments() - 1);
    const auto oracle = testutil::BellmanFord(net, src, weight);
    const auto& want = oracle[static_cast<size_t>(dst)];
    const auto route = dij.Route(g.ToNode(src), g.ToNode(dst));
    if (want.segments == 0) {
      EXPECT_FALSE(route.has_value());
      continue;
    }
    ASSERT_TRUE(route.has_value());
    // Rounding moves each segment's cost by at most half a cost unit, so
    // the two optima differ by at most half a unit per segment of the
    // longer of the two optimal paths.
    const double segments = static_cast<double>(std::max<int64_t>(
        want.segments, static_cast<int64_t>(route->nodes.size())));
    const double tolerance = 0.5 * segments / g.options().cost_scale;
    EXPECT_NEAR(g.CostToSeconds(route->cost), want.cost, tolerance + 1e-9);
  }
}

// --- ChEngine exactness (the core contract) --------------------------------

/// Cost of the leading alternative — the exact shortest path — or kInfCost
/// when AlternativeRoutes finds none, so comparing it with
/// CsrDijkstra::Distance also checks that the result is empty exactly when
/// `dst` is unreachable.
Cost LeadingCost(const ChEngine& ch, int32_t src, int32_t dst,
                 ChEngine::QueryContext* ctx) {
  const std::vector<CsrPath> alts = ch.AlternativeRoutes(src, dst, 1, ctx);
  return alts.empty() ? kInfCost : alts.front().cost;
}

/// The leading alternative must cost *exactly* what Dijkstra finds over the
/// same integer weights — across random cities of different sizes and seeds.
TEST(ChEngineTest, DistancesBitwiseEqualDijkstraAcrossRandomCities) {
  const struct {
    int32_t grid;
    uint64_t city_seed;
    uint64_t ch_seed;
  } kCases[] = {
      {4, 1, 7}, {5, 22, 7}, {6, 303, 11}, {7, 4004, 13}, {8, 50005, 17},
  };
  for (const auto& tc : kCases) {
    SCOPED_TRACE(::testing::Message() << "grid=" << tc.grid
                                      << " city_seed=" << tc.city_seed);
    const RoadNetwork net = MakeCity(tc.grid, tc.city_seed);
    const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
    ChOptions options;
    options.seed = tc.ch_seed;
    const ChEngine ch = ChEngine::Build(&g, options);
    ChEngine::QueryContext ctx = ch.MakeContext();
    CsrDijkstra dij(&g);
    auto rng = testutil::TestRng(tc.city_seed);
    for (int trial = 0; trial < 60; ++trial) {
      const int32_t src =
          static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
      const int32_t dst =
          static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
      EXPECT_EQ(LeadingCost(ch, src, dst, &ctx), dij.Distance(src, dst))
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(ChEngineTest, RouteUnpacksToValidPathWithExactCost) {
  const RoadNetwork net = MakeCity(7, 99);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine ch = ChEngine::Build(&g);
  ChEngine::QueryContext ctx = ch.MakeContext();
  CsrDijkstra dij(&g);
  auto rng = testutil::TestRng();
  int routed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int32_t src =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    const int32_t dst =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    const std::vector<CsrPath> alts = ch.AlternativeRoutes(src, dst, 1, &ctx);
    const Cost expect = dij.Distance(src, dst);
    if (alts.empty()) {
      EXPECT_EQ(expect, kInfCost);
      continue;
    }
    ++routed;
    const CsrPath& route = alts.front();
    EXPECT_EQ(route.cost, expect);
    ASSERT_FALSE(route.nodes.empty());
    EXPECT_EQ(route.nodes.front(), src);
    EXPECT_EQ(route.nodes.back(), dst);
    // Every hop must be a real arc, and the declared cost must equal the
    // recomputed node-cost sum (source included).
    Cost sum = g.node_cost(route.nodes.front());
    for (size_t i = 0; i + 1 < route.nodes.size(); ++i) {
      EXPECT_TRUE(
          net.HasEdge(g.ToSegment(route.nodes[i]),
                      g.ToSegment(route.nodes[i + 1])))
          << "hop " << i;
      sum += g.node_cost(route.nodes[i + 1]);
    }
    EXPECT_EQ(sum, route.cost);
  }
  EXPECT_GT(routed, 0);
}

TEST(ChEngineTest, SameSeedBuildsIdenticalHierarchy) {
  const RoadNetwork net = MakeCity(5, 7);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine a = ChEngine::Build(&g);
  const ChEngine b = ChEngine::Build(&g);
  ASSERT_EQ(a.num_shortcuts(), b.num_shortcuts());
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a.Rank(v), b.Rank(v));
  }
}

TEST(ChEngineTest, DifferentSeedsStillExact) {
  const RoadNetwork net = MakeCity(5, 7);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ChOptions other;
  other.seed = 0xDEADBEEF;
  const ChEngine ch = ChEngine::Build(&g, other);
  ChEngine::QueryContext ctx = ch.MakeContext();
  CsrDijkstra dij(&g);
  for (int32_t src = 0; src < g.num_nodes(); src += 7) {
    for (int32_t dst = 0; dst < g.num_nodes(); dst += 11) {
      EXPECT_EQ(LeadingCost(ch, src, dst, &ctx), dij.Distance(src, dst));
    }
  }
}

TEST(ChEngineTest, SourceEqualsTargetCostsOneSegment) {
  const RoadNetwork net = MakeCity(4, 5);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine ch = ChEngine::Build(&g);
  ChEngine::QueryContext ctx = ch.MakeContext();
  const std::vector<CsrPath> alts = ch.AlternativeRoutes(3, 3, 1, &ctx);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(alts.front().cost, g.node_cost(3));
  EXPECT_EQ(alts.front().nodes, std::vector<int32_t>{3});
}

// --- Alternative routes ----------------------------------------------------

TEST(ChEngineTest, AlternativeRoutesAreSimpleSortedAndLeadWithShortest) {
  const RoadNetwork net = MakeCity(6, 123);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine ch = ChEngine::Build(&g);
  ChEngine::QueryContext ctx = ch.MakeContext();
  CsrDijkstra dij(&g);
  auto rng = testutil::TestRng();
  int nonempty = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const int32_t src =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    const int32_t dst =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    const std::vector<CsrPath> alts = ch.AlternativeRoutes(src, dst, 6, &ctx);
    if (alts.empty()) {
      EXPECT_EQ(dij.Distance(src, dst), kInfCost);
      continue;
    }
    ++nonempty;
    EXPECT_EQ(alts.front().cost, dij.Distance(src, dst));
    for (size_t i = 0; i < alts.size(); ++i) {
      const CsrPath& p = alts[i];
      EXPECT_EQ(p.nodes.front(), src);
      EXPECT_EQ(p.nodes.back(), dst);
      std::set<int32_t> unique(p.nodes.begin(), p.nodes.end());
      EXPECT_EQ(unique.size(), p.nodes.size()) << "path not simple";
      if (i > 0) {
        EXPECT_GE(p.cost, alts[i - 1].cost);
        EXPECT_NE(p.nodes, alts[i - 1].nodes);
      }
    }
  }
  EXPECT_GT(nonempty, 0);
}

}  // namespace
}  // namespace start::roadnet
