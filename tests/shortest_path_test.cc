// Point-to-point routing and Yen's k shortest paths on the CSR plane:
// CsrDijkstra against a brute-force oracle, its per-call arc-cost hook, and
// KShortestPaths' ordering contract.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "roadnet/csr_graph.h"
#include "roadnet/synthetic_city.h"
#include "testing.h"

namespace start::roadnet {
namespace {

RoadNetwork MakeDiamond() {
  // 0 -> {1, 2} -> 3; weights by segment id (1-based) make 0-1-3 cheaper.
  RoadNetwork net;
  for (int i = 0; i < 4; ++i) {
    RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  net.AddEdge(0, 1);
  net.AddEdge(0, 2);
  net.AddEdge(1, 3);
  net.AddEdge(2, 3);
  net.Finalize();
  return net;
}

double IdWeight(int64_t segment) { return static_cast<double>(segment) + 1.0; }

/// Route between two segments, translated back to segment ids.
std::optional<std::vector<int64_t>> RouteSegments(
    CsrDijkstra* dijkstra, int64_t src, int64_t dst,
    const ArcCostFn& arc_cost = {}) {
  const CsrGraph& g = dijkstra->graph();
  const auto route = dijkstra->Route(g.ToNode(src), g.ToNode(dst), arc_cost);
  if (!route.has_value()) return std::nullopt;
  return g.ToSegments(route->nodes);
}

std::vector<std::vector<int64_t>> SegmentPaths(
    const CsrGraph& g, const std::vector<CsrPath>& paths) {
  std::vector<std::vector<int64_t>> out;
  for (const CsrPath& p : paths) out.push_back(g.ToSegments(p.nodes));
  return out;
}

TEST(ShortestPathTest, PicksCheaperBranch) {
  const RoadNetwork net = MakeDiamond();
  const CsrGraph g = CsrGraph::FromNetwork(net, IdWeight);
  CsrDijkstra dijkstra(&g);
  const auto route = dijkstra.Route(g.ToNode(0), g.ToNode(3));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(g.ToSegments(route->nodes), (std::vector<int64_t>{0, 1, 3}));
  EXPECT_EQ(route->cost, g.SecondsToCost(1.0 + 2.0 + 4.0));
}

TEST(ShortestPathTest, UnreachableReturnsNullopt) {
  RoadNetwork net;
  net.AddSegment({});
  net.AddSegment({});
  net.Finalize();  // no edges
  const CsrGraph g = CsrGraph::FromNetwork(net, IdWeight);
  CsrDijkstra dijkstra(&g);
  EXPECT_FALSE(dijkstra.Route(g.ToNode(0), g.ToNode(1)).has_value());
  EXPECT_EQ(dijkstra.Distance(g.ToNode(0), g.ToNode(1)), kInfCost);
}

TEST(ShortestPathTest, TrivialSelfPath) {
  const RoadNetwork net = MakeDiamond();
  const CsrGraph g = CsrGraph::FromNetwork(net, IdWeight);
  CsrDijkstra dijkstra(&g);
  EXPECT_EQ(RouteSegments(&dijkstra, 2, 2), (std::vector<int64_t>{2}));
}

TEST(ShortestPathTest, MatchesBruteForceOnCity) {
  const SyntheticCityConfig config{.grid_width = 4, .grid_height = 4};
  const RoadNetwork net = BuildSyntheticCity(config);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  CsrDijkstra dijkstra(&g);
  // Integer node costs make the oracle's sums exact: equality, not
  // tolerance.
  auto node_cost = [&g](int64_t s) {
    return static_cast<double>(g.node_cost(g.ToNode(s)));
  };
  const int64_t n = net.num_segments();
  for (const int64_t src : {int64_t{0}, n / 2}) {
    const auto oracle = testutil::BellmanFord(net, src, node_cost);
    for (int64_t dst = 0; dst < n; ++dst) {
      const Cost got = dijkstra.Distance(g.ToNode(src), g.ToNode(dst));
      const auto& want = oracle[static_cast<size_t>(dst)];
      if (want.segments == 0) {
        EXPECT_EQ(got, kInfCost) << src << "->" << dst;
      } else {
        EXPECT_EQ(got, static_cast<Cost>(want.cost)) << src << "->" << dst;
      }
    }
  }
}

TEST(ShortestPathTest, PathIsConnectedInNetwork) {
  const SyntheticCityConfig config{.grid_width = 5, .grid_height = 5};
  const RoadNetwork net = BuildSyntheticCity(config);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  CsrDijkstra dijkstra(&g);
  const auto path = RouteSegments(&dijkstra, 0, net.num_segments() - 1);
  ASSERT_TRUE(path.has_value());
  for (size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(net.HasEdge((*path)[i], (*path)[i + 1]));
  }
}

// --- The arc-cost hook ------------------------------------------------------

/// A per-query metric: stretches each arc by a factor keyed on (head, q),
/// and bans arcs into every 7th node when q is odd.
ArcCostFn QueryHook(int64_t q) {
  return [q](int32_t, int32_t head, Cost w) {
    if (q % 2 == 1 && (head + q) % 7 == 0) return kInfCost;
    return w * (1 + (head * 31 + q) % 3);
  };
}

TEST(CsrDijkstraHookTest, InterleavedHookedQueriesMatchFreshInstances) {
  const SyntheticCityConfig config{.grid_width = 6, .grid_height = 6,
                                   .seed = 11};
  const RoadNetwork net = BuildSyntheticCity(config);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  CsrDijkstra shared(&g);
  const int32_t n = g.num_nodes();
  for (int64_t q = 0; q < 60; ++q) {
    const int32_t src = static_cast<int32_t>((q * 7919) % n);
    const int32_t dst = static_cast<int32_t>((q * 104729 + 13) % n);
    // Every third query is unhooked, so the workspace alternates metrics.
    const ArcCostFn hook = q % 3 == 0 ? ArcCostFn() : QueryHook(q);
    CsrDijkstra fresh(&g);
    const auto want = fresh.Route(src, dst, hook);
    const auto got = shared.Route(src, dst, hook);
    ASSERT_EQ(want.has_value(), got.has_value()) << "query " << q;
    EXPECT_EQ(shared.Distance(src, dst, hook),
              want.has_value() ? want->cost : kInfCost)
        << "query " << q;
    if (!want.has_value()) continue;
    EXPECT_EQ(want->cost, got->cost) << "query " << q;
    EXPECT_EQ(want->nodes, got->nodes) << "query " << q;
  }
}

TEST(CsrDijkstraHookTest, BannedArcsAreNeverUsed) {
  const SyntheticCityConfig config{.grid_width = 6, .grid_height = 6,
                                   .seed = 5};
  const RoadNetwork net = BuildSyntheticCity(config);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  CsrDijkstra dijkstra(&g);
  auto rng = testutil::TestRng();
  int64_t rerouted = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto src = static_cast<int32_t>(rng.UniformInt(g.num_nodes()));
    const auto dst = static_cast<int32_t>(rng.UniformInt(g.num_nodes()));
    const auto best = dijkstra.Route(src, dst);
    if (!best.has_value() || best->nodes.size() < 2) continue;
    // Ban every arc of the unhooked shortest path.
    std::set<std::pair<int32_t, int32_t>> banned;
    for (size_t i = 0; i + 1 < best->nodes.size(); ++i) {
      banned.insert({best->nodes[i], best->nodes[i + 1]});
    }
    const ArcCostFn hook = [&](int32_t tail, int32_t head, Cost w) {
      return banned.count({tail, head}) > 0 ? kInfCost : w;
    };
    const auto detour = dijkstra.Route(src, dst, hook);
    if (!detour.has_value()) continue;
    ++rerouted;
    for (size_t i = 0; i + 1 < detour->nodes.size(); ++i) {
      EXPECT_EQ(banned.count({detour->nodes[i], detour->nodes[i + 1]}), 0u)
          << "trial " << trial << " used a banned arc";
      EXPECT_TRUE(net.HasEdge(g.ToSegment(detour->nodes[i]),
                              g.ToSegment(detour->nodes[i + 1])));
    }
    EXPECT_GE(detour->cost, best->cost);
  }
  EXPECT_GT(rerouted, 10);
}

// --- Yen's k shortest paths -------------------------------------------------

TEST(KspTest, ReturnsSortedDistinctSimplePaths) {
  const SyntheticCityConfig config{.grid_width = 5, .grid_height = 5};
  const RoadNetwork net = BuildSyntheticCity(config);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const auto paths = KShortestPaths(g, g.ToNode(0),
                                    g.ToNode(net.num_segments() / 2), 5);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<int32_t>> unique;
  for (size_t i = 0; i < paths.size(); ++i) {
    // Sorted by cost.
    if (i > 0) EXPECT_GE(paths[i].cost, paths[i - 1].cost);
    // Distinct.
    EXPECT_TRUE(unique.insert(paths[i].nodes).second);
    // Simple (loopless).
    std::set<int32_t> nodes(paths[i].nodes.begin(), paths[i].nodes.end());
    EXPECT_EQ(nodes.size(), paths[i].nodes.size());
    // Connected, and the cost is the sum of its node costs.
    Cost cost = 0;
    for (size_t j = 0; j < paths[i].nodes.size(); ++j) {
      cost += g.node_cost(paths[i].nodes[j]);
      if (j + 1 < paths[i].nodes.size()) {
        EXPECT_TRUE(net.HasEdge(g.ToSegment(paths[i].nodes[j]),
                                g.ToSegment(paths[i].nodes[j + 1])));
      }
    }
    EXPECT_EQ(cost, paths[i].cost);
  }
}

TEST(KspTest, FirstPathIsShortest) {
  const RoadNetwork net = MakeDiamond();
  const CsrGraph g = CsrGraph::FromNetwork(net, IdWeight);
  const auto paths = KShortestPaths(g, g.ToNode(0), g.ToNode(3), 3);
  ASSERT_EQ(paths.size(), 2u);  // only two simple paths exist
  EXPECT_EQ(SegmentPaths(g, paths),
            (std::vector<std::vector<int64_t>>{{0, 1, 3}, {0, 2, 3}}));
}

TEST(KspTest, EqualCostPathsComeOutInLexicographicSegmentOrder) {
  // 0 -> {1, 2, 3} -> 4 under a uniform metric: three simple paths of
  // identical cost. Dead-end segment 5 (3 <-> 5) lifts segment 3's degree,
  // so the CSR renumbering puts it before 1 and 2. The documented contract
  // still pins the order to the *segment-id* sequence, independent of the
  // renumbering, heap internals or generation order.
  RoadNetwork net;
  for (int i = 0; i < 6; ++i) {
    RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  for (const int64_t mid : {1, 2, 3}) {
    net.AddEdge(0, mid);
    net.AddEdge(mid, 4);
  }
  net.AddEdge(3, 5);
  net.AddEdge(5, 3);
  net.Finalize();
  const CsrGraph g = CsrGraph::FromNetwork(net, [](int64_t) { return 1.0; });
  ASSERT_LT(g.ToNode(3), g.ToNode(1));
  ASSERT_LT(g.ToNode(3), g.ToNode(2));
  const auto paths = KShortestPaths(g, g.ToNode(0), g.ToNode(4), 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(SegmentPaths(g, paths),
            (std::vector<std::vector<int64_t>>{{0, 1, 4}, {0, 2, 4}, {0, 3, 4}}));
  for (const auto& p : paths) EXPECT_EQ(p.cost, g.SecondsToCost(3.0));
}

}  // namespace
}  // namespace start::roadnet
