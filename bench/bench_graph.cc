// Graph-plane benchmark: contraction-hierarchy preprocessing and query
// performance against plain CSR Dijkstra on a city-scale synthetic network
// (>= 100k edges), plus the batched many-to-many path. Emits
// BENCH_graph.json for CI tracking.
//
// Measurements:
//  1. CSR lowering + CH preprocessing wall-clock, shortcut count.
//  2. Point-to-point query throughput: CsrDijkstra vs ChEngine over the
//     same random (src, dst) pairs — and exact-distance agreement between
//     the two on every pair. Costs are integer (fixed-point milliseconds),
//     so agreement is bitwise equality, not a tolerance.
//  3. Many-to-many: a |S| x |T| table via the bucket algorithm vs |S|*|T|
//     pairwise CH queries.
//  4. Serialization round-trip (Save + Load) wall-clock and artifact size.
//
// Acceptance gates (hard CI failures):
//  - the city has >= 100,000 arcs;
//  - CH answers == Dijkstra answers on 100% of the sampled pairs;
//  - the Save -> Load round trip answers those pairs with the same costs;
//  - CH point-to-point throughput >= 10x Dijkstra's.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target bench_graph
//   ./build/bench_graph
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "roadnet/ch_engine.h"
#include "roadnet/csr_graph.h"
#include "roadnet/road_network.h"
#include "roadnet/synthetic_city.h"

namespace {

using start::common::Rng;
using start::common::Stopwatch;
using start::roadnet::ChEngine;
using start::roadnet::Cost;
using start::roadnet::CsrDijkstra;
using start::roadnet::CsrGraph;
using start::roadnet::kInfCost;

constexpr int64_t kQueryPairs = 256;
constexpr int64_t kManyToManySide = 48;

double BestOf2(const std::function<double()>& run) {
  const double first = run();
  return std::min(first, run());
}

}  // namespace

int main() {
  // 100x100 arterial grid: ~40k directed segments, ~120k turn arcs — the
  // city scale the ISSUE gates on (Porto's OSM extract is the same order).
  start::roadnet::SyntheticCityConfig city_config;
  city_config.grid_width = 100;
  city_config.grid_height = 100;
  city_config.seed = 12;
  Stopwatch watch;
  const start::roadnet::RoadNetwork net =
      start::roadnet::BuildSyntheticCity(city_config);
  const double build_city_s = watch.ElapsedSeconds();

  watch.Restart();
  const CsrGraph graph = CsrGraph::FromNetworkFreeFlow(net);
  const double lower_s = watch.ElapsedSeconds();

  watch.Restart();
  const ChEngine ch = ChEngine::Build(&graph);
  const double ch_build_s = watch.ElapsedSeconds();

  const int64_t v = graph.num_nodes();
  const int64_t e = graph.num_arcs();
  std::printf("city                : %ld nodes, %ld arcs "
              "(built %.2f s, lowered %.3f s)\n",
              v, e, build_city_s, lower_s);
  std::printf("ch preprocessing    : %.2f s, %ld shortcuts (%.2fx arcs)\n",
              ch_build_s, ch.num_shortcuts(),
              static_cast<double>(ch.num_shortcuts()) /
                  static_cast<double>(e));

  // Fixed random query set, shared by both sides.
  Rng rng(4242);
  std::vector<std::pair<int32_t, int32_t>> pairs;
  pairs.reserve(static_cast<size_t>(kQueryPairs));
  for (int64_t i = 0; i < kQueryPairs; ++i) {
    pairs.emplace_back(static_cast<int32_t>(rng.UniformInt(v)),
                       static_cast<int32_t>(rng.UniformInt(v)));
  }

  // 2. Point-to-point: Dijkstra vs CH on identical pairs.
  CsrDijkstra dijkstra(&graph);
  std::vector<Cost> dijkstra_costs(pairs.size(), kInfCost);
  const double dijkstra_s = BestOf2([&] {
    Stopwatch w;
    for (size_t i = 0; i < pairs.size(); ++i) {
      dijkstra_costs[i] = dijkstra.Distance(pairs[i].first, pairs[i].second);
    }
    return w.ElapsedSeconds();
  });
  auto ctx = ch.MakeContext();
  std::vector<Cost> ch_costs(pairs.size(), kInfCost);
  const double ch_s = BestOf2([&] {
    Stopwatch w;
    for (size_t i = 0; i < pairs.size(); ++i) {
      ch_costs[i] = ch.Distance(pairs[i].first, pairs[i].second, &ctx);
    }
    return w.ElapsedSeconds();
  });
  int64_t agree = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (ch_costs[i] == dijkstra_costs[i]) ++agree;
  }
  const double exactness =
      static_cast<double>(agree) / static_cast<double>(pairs.size());
  const double dijkstra_qps = static_cast<double>(kQueryPairs) / dijkstra_s;
  const double ch_qps = static_cast<double>(kQueryPairs) / ch_s;
  const double speedup = ch_qps / dijkstra_qps;
  std::printf("point-to-point      : dijkstra %.0f q/s | ch %.0f q/s "
              "(%.1fx), exact on %ld/%ld pairs\n",
              dijkstra_qps, ch_qps, speedup, agree, kQueryPairs);

  // 3. Many-to-many table vs pairwise CH queries.
  std::vector<int32_t> sources, targets;
  for (int64_t i = 0; i < kManyToManySide; ++i) {
    sources.push_back(static_cast<int32_t>(rng.UniformInt(v)));
    targets.push_back(static_cast<int32_t>(rng.UniformInt(v)));
  }
  std::vector<Cost> table;
  const double m2m_s = BestOf2([&] {
    Stopwatch w;
    ch.ManyToMany(sources, targets, &ctx, &table);
    return w.ElapsedSeconds();
  });
  const double pairwise_s = BestOf2([&] {
    Stopwatch w;
    for (const int32_t s : sources) {
      for (const int32_t t : targets) (void)ch.Distance(s, t, &ctx);
    }
    return w.ElapsedSeconds();
  });
  int64_t m2m_mismatch = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      if (table[i * targets.size() + j] !=
          ch.Distance(sources[i], targets[j], &ctx)) {
        ++m2m_mismatch;
      }
    }
  }
  const double m2m_speedup = pairwise_s / m2m_s;
  std::printf("many-to-many %ldx%ld : bucket %.1f ms | pairwise %.1f ms "
              "(%.1fx), %ld mismatches\n",
              kManyToManySide, kManyToManySide, m2m_s * 1e3, pairwise_s * 1e3,
              m2m_speedup, m2m_mismatch);

  // 4. Serialization round trip: the loaded hierarchy must answer the
  // sampled pairs with the very integers the built one did.
  const std::string artifact = "BENCH_graph_ch.bin";
  watch.Restart();
  const auto save = ch.Save(artifact);
  const double save_s = watch.ElapsedSeconds();
  std::error_code size_error;
  const auto artifact_bytes = std::filesystem::file_size(artifact, size_error);
  watch.Restart();
  auto loaded = ChEngine::Load(artifact, &graph);
  const double load_s = watch.ElapsedSeconds();
  std::remove(artifact.c_str());
  if (!save.ok() || !loaded.ok()) {
    std::fprintf(stderr, "FAIL: CH serialization round trip failed\n");
    return 1;
  }
  auto loaded_ctx = loaded->MakeContext();
  int64_t loaded_mismatch = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (loaded->Distance(pairs[i].first, pairs[i].second, &loaded_ctx) !=
        ch_costs[i]) {
      ++loaded_mismatch;
    }
  }
  std::printf("serialization       : save %.2f s, load %.2f s, %.2f MB, "
              "%ld/%ld loaded answers differ\n",
              save_s, load_s,
              size_error ? 0.0 : static_cast<double>(artifact_bytes) / 1e6,
              loaded_mismatch, kQueryPairs);

  std::FILE* json = std::fopen("BENCH_graph.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_graph.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"num_nodes\": %ld,\n"
               "  \"num_arcs\": %ld,\n"
               "  \"ch_build_seconds\": %.3f,\n"
               "  \"ch_shortcuts\": %ld,\n"
               "  \"dijkstra_queries_per_sec\": %.1f,\n"
               "  \"ch_queries_per_sec\": %.1f,\n"
               "  \"ch_speedup\": %.3f,\n"
               "  \"ch_exactness\": %.6f,\n"
               "  \"m2m_speedup_vs_pairwise\": %.3f,\n"
               "  \"serialize_save_seconds\": %.3f,\n"
               "  \"serialize_load_seconds\": %.3f\n"
               "}\n",
               v, e, ch_build_s, ch.num_shortcuts(), dijkstra_qps, ch_qps,
               speedup, exactness, m2m_speedup, save_s, load_s);
  std::fclose(json);
  std::printf("wrote BENCH_graph.json\n");

  // Acceptance gates.
  if (e < 100000) {
    std::fprintf(stderr, "FAIL: city has %ld arcs < 100k — not city scale\n",
                 e);
    return 1;
  }
  if (exactness != 1.0 || m2m_mismatch != 0) {
    std::fprintf(stderr,
                 "FAIL: CH not exact (p2p %.4f, m2m mismatches %ld)\n",
                 exactness, m2m_mismatch);
    return 1;
  }
  if (loaded_mismatch != 0) {
    std::fprintf(stderr,
                 "FAIL: loaded CH differs from the built one on %ld/%ld "
                 "pairs\n",
                 loaded_mismatch, kQueryPairs);
    return 1;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr, "FAIL: CH speedup %.1fx < 10x over Dijkstra\n",
                 speedup);
    return 1;
  }
  return 0;
}
