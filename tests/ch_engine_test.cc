#include "roadnet/ch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "roadnet/csr_graph.h"
#include "roadnet/synthetic_city.h"
#include "serve/hnsw_index.h"
#include "tensor/serialize.h"
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

TEST(CsrGraphTest, FingerprintTracksMetric) {
  const RoadNetwork net = MakeCity(5, 3);
  const CsrGraph a = CsrGraph::FromNetworkFreeFlow(net);
  const CsrGraph b = CsrGraph::FromNetworkFreeFlow(net);
  const CsrGraph c = CsrGraph::FromNetwork(
      net, [&net](int64_t s) { return 2.0 * net.FreeFlowTravelTime(s); });
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
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

/// CH distances must be *identical* to Dijkstra over the same integer
/// weights — across random cities of different sizes and seeds.
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
      EXPECT_EQ(ch.Distance(src, dst, &ctx), dij.Distance(src, dst))
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
    const auto route = ch.Route(src, dst, &ctx);
    const Cost expect = dij.Distance(src, dst);
    if (!route.has_value()) {
      EXPECT_EQ(expect, kInfCost);
      continue;
    }
    ++routed;
    EXPECT_EQ(route->cost, expect);
    ASSERT_FALSE(route->nodes.empty());
    EXPECT_EQ(route->nodes.front(), src);
    EXPECT_EQ(route->nodes.back(), dst);
    // Every hop must be a real arc, and the declared cost must equal the
    // recomputed node-cost sum (source included).
    Cost sum = g.node_cost(route->nodes.front());
    for (size_t i = 0; i + 1 < route->nodes.size(); ++i) {
      EXPECT_TRUE(
          net.HasEdge(g.ToSegment(route->nodes[i]),
                      g.ToSegment(route->nodes[i + 1])))
          << "hop " << i;
      sum += g.node_cost(route->nodes[i + 1]);
    }
    EXPECT_EQ(sum, route->cost);
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
      EXPECT_EQ(ch.Distance(src, dst, &ctx), dij.Distance(src, dst));
    }
  }
}

TEST(ChEngineTest, SourceEqualsTargetCostsOneSegment) {
  const RoadNetwork net = MakeCity(4, 5);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine ch = ChEngine::Build(&g);
  ChEngine::QueryContext ctx = ch.MakeContext();
  EXPECT_EQ(ch.Distance(3, 3, &ctx), g.node_cost(3));
  const auto route = ch.Route(3, 3, &ctx);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->nodes, std::vector<int32_t>{3});
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

// --- Serialization ---------------------------------------------------------

TEST(ChEngineTest, SaveLoadRoundTripPreservesQueries) {
  const testutil::TempDir dir;
  const std::string path = dir.path() + "/ch.bin";
  const RoadNetwork net = MakeCity(6, 77);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine built = ChEngine::Build(&g);
  ASSERT_TRUE(built.Save(path).ok());
  auto loaded = ChEngine::Load(path, &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_shortcuts(), built.num_shortcuts());
  ChEngine::QueryContext bctx = built.MakeContext();
  ChEngine::QueryContext lctx = loaded->MakeContext();
  auto rng = testutil::TestRng();
  for (int trial = 0; trial < 30; ++trial) {
    const int32_t src =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    const int32_t dst =
        static_cast<int32_t>(rng.UniformInt(0, g.num_nodes() - 1));
    EXPECT_EQ(built.Distance(src, dst, &bctx),
              loaded->Distance(src, dst, &lctx));
  }
}

TEST(ChEngineTest, LoadRefusesMismatchedGraph) {
  const testutil::TempDir dir;
  const std::string path = dir.path() + "/ch.bin";
  const RoadNetwork net = MakeCity(5, 1);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_TRUE(ChEngine::Build(&g).Save(path).ok());
  const RoadNetwork other_net = MakeCity(5, 2);
  const CsrGraph other = CsrGraph::FromNetworkFreeFlow(other_net);
  const auto loaded = ChEngine::Load(path, &other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(ChEngineTest, LoadRejectsCorruptArtifact) {
  const testutil::TempDir dir;
  const std::string path = dir.path() + "/ch.bin";
  const RoadNetwork net = MakeCity(4, 9);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_TRUE(ChEngine::Build(&g).Save(path).ok());
  // Flip one byte in the middle of the payload.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(64);
  char b = 0;
  f.seekg(64);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(64);
  f.write(&b, 1);
  f.close();
  const auto loaded = ChEngine::Load(path, &g);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ChEngineTest, LoadRejectsMissingFile) {
  const RoadNetwork net = MakeCity(4, 9);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const auto loaded = ChEngine::Load("/nonexistent/ch.bin", &g);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
}

/// Save -> Load -> Save reproduces the artifact byte for byte: the derived
/// arena (original arcs, shortcut endpoints and weights) is exactly Build's.
TEST(ChEngineTest, ResaveOfLoadedHierarchyIsByteIdentical) {
  const testutil::TempDir dir;
  const RoadNetwork net = MakeCity(7, 99);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const ChEngine built = ChEngine::Build(&g);
  ASSERT_GT(built.num_shortcuts(), 0);
  ASSERT_TRUE(built.Save(dir.File("a.ch")).ok());
  auto loaded = ChEngine::Load(dir.File("a.ch"), &g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(dir.File("b.ch")).ok());
  EXPECT_EQ(testutil::ReadFileBytes(dir.File("a.ch")),
            testutil::ReadFileBytes(dir.File("b.ch")));
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(loaded->Rank(v), built.Rank(v));
  }
  ChEngine::QueryContext bctx = built.MakeContext();
  ChEngine::QueryContext lctx = loaded->MakeContext();
  for (int32_t src = 0; src < g.num_nodes(); src += 7) {
    for (int32_t dst = 0; dst < g.num_nodes(); dst += 5) {
      const auto want = built.Route(src, dst, &bctx);
      const auto got = loaded->Route(src, dst, &lctx);
      ASSERT_EQ(want.has_value(), got.has_value());
      if (!want) continue;
      EXPECT_EQ(want->nodes, got->nodes);
      EXPECT_EQ(want->cost, got->cost);
    }
  }
}

// --- Byte boundary ---------------------------------------------------------

bool IsCleanLoadError(const common::Status& status) {
  return status.code() == common::StatusCode::kIOError ||
         status.code() == common::StatusCode::kInvalidArgument;
}

TEST(ChEngineTest, TruncationSweepAlwaysFailsCleanly) {
  const testutil::TempDir dir;
  const RoadNetwork net = MakeCity(4, 9);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_TRUE(ChEngine::Build(&g).Save(dir.File("full.ch")).ok());
  const std::vector<uint8_t> bytes =
      testutil::ReadFileBytes(dir.File("full.ch"));
  ASSERT_GT(bytes.size(), 64u);
  const std::string cut = dir.File("cut.ch");
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    testutil::WriteFileBytes(
        cut, std::vector<uint8_t>(
                 bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(keep)));
    const auto loaded = ChEngine::Load(cut, &g);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << keep << " bytes loaded";
    EXPECT_TRUE(IsCleanLoadError(loaded.status()))
        << "keep=" << keep << ": " << loaded.status().ToString();
  }
}

TEST(ChEngineTest, BitFlipSweepAlwaysFailsCleanly) {
  const testutil::TempDir dir;
  const RoadNetwork net = MakeCity(4, 9);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_TRUE(ChEngine::Build(&g).Save(dir.File("base.ch")).ok());
  const std::vector<uint8_t> bytes =
      testutil::ReadFileBytes(dir.File("base.ch"));
  const std::string flipped = dir.File("flipped.ch");
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[at] ^= 0x10;
    testutil::WriteFileBytes(flipped, corrupt);
    const auto loaded = ChEngine::Load(flipped, &g);
    ASSERT_FALSE(loaded.ok()) << "bit flip at byte " << at << " loaded";
    EXPECT_TRUE(IsCleanLoadError(loaded.status()))
        << "at=" << at << ": " << loaded.status().ToString();
  }
}

/// (tail, head) of each original arena arc: the graph's CSR arcs in order,
/// self-loops skipped — the rule Load re-derives them by.
std::vector<std::pair<int32_t, int32_t>> OriginalArcs(const CsrGraph& g) {
  std::vector<std::pair<int32_t, int32_t>> arcs;
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    for (int64_t k = g.out_offsets()[v]; k < g.out_offsets()[v + 1]; ++k) {
      if (g.out_heads()[k] != v) arcs.emplace_back(v, g.out_heads()[k]);
    }
  }
  return arcs;
}

/// Re-saves the hierarchy of `g` with `mutate` applied to its record bundle,
/// bypassing Save's invariants. The container CRCs are recomputed over the
/// mutated records, so only Load's semantic validation stands between the
/// damage and a wrong answer.
common::Status LoadMutated(
    const CsrGraph& g,
    const std::function<void(tensor::RecordBundle*)>& mutate) {
  const testutil::TempDir dir;
  EXPECT_TRUE(ChEngine::Build(&g).Save(dir.File("base.ch")).ok());
  auto bundle = tensor::LoadBundle(dir.File("base.ch"));
  EXPECT_TRUE(bundle.ok());
  mutate(&bundle->records);
  EXPECT_TRUE(tensor::SaveBundle(dir.File("mutated.ch"), bundle->meta_tag,
                                 bundle->records)
                  .ok());
  return ChEngine::Load(dir.File("mutated.ch"), &g).status();
}

TEST(ChEngineTest, LoadRejectsCraftedHierarchies) {
  const RoadNetwork net = MakeCity(6, 77);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  ASSERT_GT(ChEngine::Build(&g).num_shortcuts(), 0);
  const int32_t first_shortcut =
      static_cast<int32_t>(OriginalArcs(g).size());
  struct Case {
    const char* what;
    const char* reason;  ///< Expected fragment of the Status message.
    std::function<void(tensor::RecordBundle*)> mutate;
  };
  const std::vector<Case> cases = {
      // Loaded and answered wrong before ranks were checked to be a
      // permutation.
      {"duplicated rank", "not a permutation",
       [](tensor::RecordBundle* b) {
         b->ints32["rank"][1] = b->ints32["rank"][0];
       }},
      {"rank out of range", "not a permutation",
       [&g](tensor::RecordBundle* b) {
         b->ints32["rank"][0] = g.num_nodes();
       }},
      {"rank too short", "rank length",
       [](tensor::RecordBundle* b) { b->ints32["rank"].pop_back(); }},
      {"skip at its own index", "out of range",
       [first_shortcut](tensor::RecordBundle* b) {
         b->ints32["skip1"][0] = first_shortcut;
       }},
      {"negative skip", "out of range",
       [](tensor::RecordBundle* b) { b->ints32["skip2"][0] = -1; }},
      {"non-chaining skips", "do not chain",
       [](tensor::RecordBundle* b) {
         std::swap(b->ints32["skip1"][0], b->ints32["skip2"][0]);
       }},
      {"skip1/skip2 lengths differ", "lengths differ",
       [](tensor::RecordBundle* b) { b->ints32["skip2"].pop_back(); }},
      {"missing header", "missing records",
       [](tensor::RecordBundle* b) { b->uints.erase("header"); }},
      {"short header", "missing records",
       [](tensor::RecordBundle* b) { b->uints["header"].pop_back(); }},
      {"missing rank", "missing records",
       [](tensor::RecordBundle* b) { b->ints32.erase("rank"); }},
      {"missing skip1", "missing records",
       [](tensor::RecordBundle* b) { b->ints32.erase("skip1"); }},
      {"missing skip2", "missing records",
       [](tensor::RecordBundle* b) { b->ints32.erase("skip2"); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const common::Status status = LoadMutated(g, c.mutate);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(c.reason), std::string::npos)
        << status.ToString();
  }
  // Sanity: the unmutated bundle loads, so the rejections above are the
  // mutations' doing.
  EXPECT_TRUE(LoadMutated(g, [](tensor::RecordBundle*) {}).ok());
}

/// Three segments, every ordered pair connected: the smallest graph on
/// which crafted shortcuts can chain without ever forming a loop.
RoadNetwork MakeTriangle() {
  RoadNetwork net;
  for (int i = 0; i < 3; ++i) {
    RoadSegment s;
    s.length_m = 100.0;
    net.AddSegment(s);
  }
  for (int64_t u = 0; u < 3; ++u) {
    for (int64_t v = 0; v < 3; ++v) {
      if (u != v) net.AddEdge(u, v);
    }
  }
  net.Finalize();
  return net;
}

TEST(ChEngineTest, LoadRejectsLoopAndOverflowingShortcuts) {
  const RoadNetwork net = MakeTriangle();
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);
  const std::vector<std::pair<int32_t, int32_t>> arcs = OriginalArcs(g);
  ASSERT_EQ(arcs.size(), 6u);
  // Arena id of the latest arc for each (tail, head).
  std::map<std::pair<int32_t, int32_t>, int32_t> latest;
  for (size_t a = 0; a < arcs.size(); ++a) {
    latest[arcs[a]] = static_cast<int32_t>(a);
  }

  const common::Status loop = LoadMutated(g, [&](tensor::RecordBundle* b) {
    b->ints32["skip1"].push_back(latest.at({0, 1}));
    b->ints32["skip2"].push_back(latest.at({1, 0}));
  });
  ASSERT_FALSE(loop.ok());
  EXPECT_EQ(loop.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(loop.message().find("loop shortcut"), std::string::npos)
      << loop.ToString();

  // Each round re-derives every (p, q) through the third node, at least
  // doubling its weight; 70 rounds pass kInfCost from any positive weight.
  const common::Status overflow =
      LoadMutated(g, [&](tensor::RecordBundle* b) {
        std::vector<int32_t>& skip1 = b->ints32["skip1"];
        std::vector<int32_t>& skip2 = b->ints32["skip2"];
        int32_t next = static_cast<int32_t>(arcs.size() + skip1.size());
        for (int round = 0; round < 70; ++round) {
          for (int32_t p = 0; p < 3; ++p) {
            for (int32_t q = 0; q < 3; ++q) {
              if (p == q) continue;
              const int32_t r = 3 - p - q;
              skip1.push_back(latest.at({p, r}));
              skip2.push_back(latest.at({r, q}));
              latest[{p, q}] = next++;
            }
          }
        }
      });
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.message().find("weight overflows"), std::string::npos)
      << overflow.ToString();
}

/// Every artifact shares the STTN container, so each loader must refuse the
/// others' files by meta tag — and the pre-container CH format outright.
TEST(ChEngineTest, ForeignArtifactsAreRefusedByTag) {
  const testutil::TempDir dir;
  const RoadNetwork net = MakeCity(4, 9);
  const CsrGraph g = CsrGraph::FromNetworkFreeFlow(net);

  serve::HnswIndex index(4);
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(index.Add(id, {1.0f, static_cast<float>(id), 0.5f, -1.0f})
                    .ok());
  }
  ASSERT_TRUE(index.Save(dir.File("index.hnsw")).ok());
  const auto as_ch = ChEngine::Load(dir.File("index.hnsw"), &g);
  ASSERT_FALSE(as_ch.ok());
  EXPECT_EQ(as_ch.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(as_ch.status().message().find("meta tag"), std::string::npos)
      << as_ch.status().ToString();

  ASSERT_TRUE(ChEngine::Build(&g).Save(dir.File("city.ch")).ok());
  const auto as_hnsw = serve::HnswIndex::Load(dir.File("city.ch"));
  ASSERT_FALSE(as_hnsw.ok());
  EXPECT_EQ(as_hnsw.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(as_hnsw.status().message().find("meta tag"), std::string::npos)
      << as_hnsw.status().ToString();

  // The retired STSTCH01 layout: u64 magic, then fields. A CH artifact is a
  // cache of Build, so such a file is refused, never migrated.
  std::vector<uint8_t> legacy(64, 0);
  const uint64_t legacy_magic = 0x3130484354535453ULL;  // "STSTCH01" (LE)
  std::memcpy(legacy.data(), &legacy_magic, sizeof(legacy_magic));
  testutil::WriteFileBytes(dir.File("legacy.ch"), legacy);
  const auto old = ChEngine::Load(dir.File("legacy.ch"), &g);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace start::roadnet
