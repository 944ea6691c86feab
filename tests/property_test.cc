// Cross-module property tests: parameterised sweeps over seeds and
// configurations checking invariants that must hold for *any* input, not
// just hand-picked cases.
#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <string>

#include "core/start_model.h"
#include "data/augmentation.h"
#include "data/batch.h"
#include "data/span_mask.h"
#include "eval/metrics.h"
#include "roadnet/csr_graph.h"
#include "roadnet/synthetic_city.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "testing.h"
#include "traj/trip_generator.h"

namespace start {
namespace {

// ---------------------------------------------------------------------------
// Augmentation invariants over random seeds (Sec. III-C2).
// ---------------------------------------------------------------------------

class AugmentationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  AugmentationPropertyTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 6, .grid_height = 6})),
        traffic_(&net_, {}) {}

  roadnet::RoadNetwork net_;
  traj::TrafficModel traffic_;
};

TEST_P(AugmentationPropertyTest, InvariantsHold) {
  const auto [seed, kind_idx] = GetParam();
  const auto kind = static_cast<data::AugmentationKind>(kind_idx);
  common::Rng rng(static_cast<uint64_t>(seed) * 977 + 13);
  traj::TripGenerator::Config config;
  config.num_drivers = 2;
  config.seed = static_cast<uint64_t>(seed) + 500;
  traj::TripGenerator gen(&traffic_, config);
  const traj::Trajectory t = gen.GenerateTrip(
      0, rng.UniformInt(net_.num_segments()),
      rng.UniformInt(net_.num_segments()), 9 * 3600);
  if (t.size() < 4) GTEST_SKIP() << "degenerate trip";

  const data::View v = data::Augment(t, kind, {}, &traffic_, &rng);
  // Universal invariants.
  ASSERT_GT(v.size(), 0);
  ASSERT_EQ(v.roads.size(), v.times.size());
  ASSERT_EQ(v.roads.size(), v.minute_idx.size());
  for (int64_t i = 0; i < v.size(); ++i) {
    const int64_t road = v.roads[static_cast<size_t>(i)];
    EXPECT_TRUE(road == data::kMaskRoad ||
                (road >= 0 && road < net_.num_segments()));
    EXPECT_GE(v.minute_idx[static_cast<size_t>(i)], 0);
    EXPECT_LE(v.minute_idx[static_cast<size_t>(i)], 1440);
    EXPECT_GE(v.dow_idx[static_cast<size_t>(i)], 0);
    EXPECT_LE(v.dow_idx[static_cast<size_t>(i)], 7);
  }
  // Times non-decreasing for every strategy (strictly increasing except at
  // masked positions which keep raw times).
  for (int64_t i = 0; i + 1 < v.size(); ++i) {
    EXPECT_LE(v.times[static_cast<size_t>(i)],
              v.times[static_cast<size_t>(i + 1)]);
  }
  // Kind-specific invariants.
  switch (kind) {
    case data::AugmentationKind::kTrim:
      EXPECT_LT(v.size(), t.size());
      break;
    case data::AugmentationKind::kTemporalShift:
    case data::AugmentationKind::kRoadMask:
    case data::AugmentationKind::kDropout:
      EXPECT_EQ(v.size(), t.size());
      break;
  }
  if (kind == data::AugmentationKind::kDropout) {
    EXPECT_TRUE(v.embedding_dropout);
  } else {
    EXPECT_FALSE(v.embedding_dropout);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKinds, AugmentationPropertyTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Span masking over random seeds / ratios.
// ---------------------------------------------------------------------------

class SpanMaskPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpanMaskPropertyTest, BudgetAndConsistency) {
  const int seed = GetParam();
  common::Rng rng(static_cast<uint64_t>(seed) * 31 + 7);
  const int64_t n = 6 + rng.UniformInt(60);
  data::View v;
  for (int64_t i = 0; i < n; ++i) {
    v.roads.push_back(i % 17);
    v.minute_idx.push_back(1 + i % 1440);
    v.dow_idx.push_back(1 + i % 7);
    v.times.push_back(static_cast<double>(100 * i));
  }
  const double ratio = rng.Uniform(0.1, 0.4);
  const auto info = data::ApplySpanMask(&v, 2, ratio, &rng);
  // Coverage at least the requested budget (ceil), no duplicates.
  EXPECT_GE(static_cast<double>(info.positions.size()),
            std::ceil(ratio * static_cast<double>(n)) - 1e-9);
  const std::set<int64_t> unique(info.positions.begin(),
                                 info.positions.end());
  EXPECT_EQ(unique.size(), info.positions.size());
  // Every reported position is masked, and every masked position reported.
  int64_t masked_count = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (v.roads[static_cast<size_t>(i)] == data::kMaskRoad) ++masked_count;
  }
  EXPECT_EQ(masked_count, static_cast<int64_t>(info.positions.size()));
  for (size_t k = 0; k < info.positions.size(); ++k) {
    EXPECT_EQ(info.targets[k], info.positions[k] % 17);  // original road ids
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpanMaskPropertyTest,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Yen's algorithm vs exhaustive enumeration on a small graph.
// ---------------------------------------------------------------------------

TEST(KspPropertyTest, MatchesExhaustiveEnumeration) {
  // 5-node graph with several simple paths 0 -> 4.
  roadnet::RoadNetwork net;
  for (int i = 0; i < 5; ++i) {
    roadnet::RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  const std::vector<std::pair<int64_t, int64_t>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {1, 4}};
  for (const auto& [a, b] : edges) net.AddEdge(a, b);
  net.Finalize();
  const auto graph = roadnet::CsrGraph::FromNetwork(
      net, [](int64_t v) { return static_cast<double>(v) + 1.0; });
  // Exhaustive DFS enumeration of simple paths, priced in integer Costs.
  std::vector<std::pair<roadnet::Cost, std::vector<int64_t>>> all_paths;
  std::vector<int64_t> stack{0};
  std::function<void()> dfs = [&] {
    const int64_t cur = stack.back();
    if (cur == 4) {
      roadnet::Cost cost = 0;
      for (const int64_t v : stack) cost += graph.node_cost(graph.ToNode(v));
      all_paths.emplace_back(cost, stack);
      return;
    }
    for (const int64_t nxt : net.OutNeighbors(cur)) {
      if (std::find(stack.begin(), stack.end(), nxt) != stack.end()) continue;
      stack.push_back(nxt);
      dfs();
      stack.pop_back();
    }
  };
  dfs();
  // (cost, segment sequence) is also Yen's ordering contract.
  std::sort(all_paths.begin(), all_paths.end());
  const auto yen = roadnet::KShortestPaths(graph, graph.ToNode(0),
                                           graph.ToNode(4), 100);
  ASSERT_EQ(yen.size(), all_paths.size());
  for (size_t i = 0; i < yen.size(); ++i) {
    EXPECT_EQ(yen[i].cost, all_paths[i].first) << "rank " << i;
    EXPECT_EQ(graph.ToSegments(yen[i].nodes), all_paths[i].second)
        << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Metric properties.
// ---------------------------------------------------------------------------

TEST(MetricPropertyTest, AucInvariantToMonotoneScoreTransform) {
  common::Rng rng(5);
  std::vector<int64_t> labels;
  std::vector<double> scores, transformed;
  for (int i = 0; i < 200; ++i) {
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    const double s = rng.Uniform();
    scores.push_back(s);
    transformed.push_back(std::exp(3.0 * s) - 0.5);  // strictly increasing
  }
  EXPECT_NEAR(eval::BinaryAuc(labels, scores),
              eval::BinaryAuc(labels, transformed), 1e-12);
}

TEST(MetricPropertyTest, RecallAtKMonotoneInK) {
  common::Rng rng(6);
  const int64_t n = 50, c = 8;
  std::vector<int64_t> labels;
  std::vector<double> scores;
  for (int64_t i = 0; i < n; ++i) {
    labels.push_back(rng.UniformInt(c));
    for (int64_t j = 0; j < c; ++j) scores.push_back(rng.Uniform());
  }
  double prev = 0.0;
  for (int64_t k = 1; k <= c; ++k) {
    const double r = eval::RecallAtK(labels, scores, c, k);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // Recall@C is always 1
}

// ---------------------------------------------------------------------------
// Encoder determinism in eval mode.
// ---------------------------------------------------------------------------

TEST(EncoderPropertyTest, EvalModeIsDeterministic) {
  const auto net = roadnet::BuildSyntheticCity(
      {.grid_width = 5, .grid_height = 5});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config gen_config;
  gen_config.num_drivers = 2;
  traj::TripGenerator gen(&traffic, gen_config);
  const auto trip = gen.GenerateTrip(0, 1, net.num_segments() - 2, 9 * 3600);
  ASSERT_GT(trip.size(), 3);

  core::StartConfig config;
  config.d = 16;
  config.gat_layers = 1;
  config.gat_heads = {2};
  config.encoder_layers = 1;
  config.encoder_heads = 2;
  config.max_len = 64;
  common::Rng rng(9);
  core::StartModel model(config, &net, nullptr, &rng);
  model.SetTraining(false);
  tensor::NoGradGuard no_grad;
  const auto batch = data::MakeBatch({data::MakeView(trip)});
  const auto a = model.Encode(batch);
  const auto b = model.Encode(batch);
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_EQ(a.cls.at({0, j}), b.cls.at({0, j}));
  }
}

// Dropout augmentation gives *different* encodings in training mode — the
// SimCSE mechanism the Dropout strategy relies on.
TEST(EncoderPropertyTest, TrainingDropoutDiversifiesViews) {
  const auto net = roadnet::BuildSyntheticCity(
      {.grid_width = 5, .grid_height = 5});
  traj::TrafficModel traffic(&net, {});
  traj::TripGenerator::Config gen_config;
  gen_config.num_drivers = 2;
  traj::TripGenerator gen(&traffic, gen_config);
  const auto trip = gen.GenerateTrip(0, 1, net.num_segments() - 2, 9 * 3600);
  ASSERT_GT(trip.size(), 3);
  core::StartConfig config;
  config.d = 16;
  config.gat_layers = 1;
  config.gat_heads = {2};
  config.encoder_layers = 1;
  config.encoder_heads = 2;
  config.max_len = 64;
  config.dropout = 0.2f;
  common::Rng rng(10);
  core::StartModel model(config, &net, nullptr, &rng);
  model.SetTraining(true);
  common::SeedGlobalRng(123);
  const auto batch = data::MakeBatch({data::MakeView(trip)});
  const auto a = model.Encode(batch);
  const auto b = model.Encode(batch);
  double diff = 0.0;
  for (int64_t j = 0; j < 16; ++j) {
    diff += std::fabs(a.cls.at({0, j}) - b.cls.at({0, j}));
  }
  EXPECT_GT(diff, 1e-6);
}

// ---------------------------------------------------------------------------
// Strided kernel engine: GemmNN/NT/TN and broadcast elementwise ops against
// naive scalar references, over randomized shapes / leading dimensions /
// transposes.
// ---------------------------------------------------------------------------

/// Runs GemmNN/NT/TN on one (m, k, n) instance with random leading
/// dimensions (row-strided views) and checks, per variant:
///  - the dispatched kernel memcmp-equals its scalar *Reference loop over
///    the whole C buffer, on A with zeros and -0.0 and C with -0.0 entries,
///    and again with infinities in B (kernels.h's bitwise contract);
///  - the result is within rounding of a double-precision GEMM;
///  - the padding tail (columns [n, ldc)) is untouched.
void CheckStridedGemm(common::Rng* rng, int64_t m, int64_t k, int64_t n) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n));
  const int64_t lda_nn = k + rng->UniformInt(5);
  const int64_t ldb_nn = n + rng->UniformInt(5);
  const int64_t ldb_nt = k + rng->UniformInt(5);
  const int64_t lda_tn = m + rng->UniformInt(5);
  const int64_t ldc = n + rng->UniformInt(5);

  // A quarter of the A entries are zeros (half of them -0.0): the NN/TN
  // kernels skip exact zeros, and a skipped step must stay skipped.
  const auto fill_a = [rng](std::vector<float>* v) {
    for (auto& x : *v) {
      const int64_t r = rng->UniformInt(8);
      x = r == 0 ? 0.0f
                 : r == 1 ? -0.0f : static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  };
  const auto fill = [rng](std::vector<float>* v) {
    for (auto& x : *v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  };
  std::vector<float> a_nn(static_cast<size_t>(m * lda_nn));
  std::vector<float> b_nn(static_cast<size_t>(k * ldb_nn));
  std::vector<float> b_nt(static_cast<size_t>(n * ldb_nt));
  std::vector<float> a_tn(static_cast<size_t>(k * lda_tn));
  std::vector<float> c_init(static_cast<size_t>(m * ldc));
  fill_a(&a_nn);
  fill(&b_nn);
  fill(&b_nt);
  fill_a(&a_tn);
  fill(&c_init);  // GEMMs accumulate: C += ..., start from random C
  for (auto& x : c_init) {
    if (rng->UniformInt(8) == 0) x = -0.0f;  // -0.0 + 0.0 would be +0.0
  }

  using GemmFn = void (*)(const float*, int64_t, const float*, int64_t,
                          float*, int64_t, int64_t, int64_t, int64_t);
  struct Variant {
    const char* name;
    GemmFn kernel;
    GemmFn reference;
    const std::vector<float>* a;
    int64_t lda;
    const std::vector<float>* b;
    int64_t ldb;
    std::function<double(int64_t, int64_t)> exact;  // (i, j) -> sum
  };
  const std::vector<Variant> variants = {
      {"GemmNN", tensor::internal::GemmNN, tensor::internal::GemmNNReference,
       &a_nn, lda_nn, &b_nn, ldb_nn,
       [&](int64_t i, int64_t j) {
         double acc = 0;
         for (int64_t p = 0; p < k; ++p) {
           acc += static_cast<double>(a_nn[static_cast<size_t>(i * lda_nn + p)]) *
                  b_nn[static_cast<size_t>(p * ldb_nn + j)];
         }
         return acc;
       }},
      {"GemmNT", tensor::internal::GemmNT, tensor::internal::GemmNTReference,
       &a_nn, lda_nn, &b_nt, ldb_nt,
       [&](int64_t i, int64_t j) {
         double acc = 0;
         for (int64_t p = 0; p < k; ++p) {
           acc += static_cast<double>(a_nn[static_cast<size_t>(i * lda_nn + p)]) *
                  b_nt[static_cast<size_t>(j * ldb_nt + p)];
         }
         return acc;
       }},
      {"GemmTN", tensor::internal::GemmTN, tensor::internal::GemmTNReference,
       &a_tn, lda_tn, &b_nn, ldb_nn,
       [&](int64_t i, int64_t j) {
         double acc = 0;
         for (int64_t p = 0; p < k; ++p) {
           acc += static_cast<double>(a_tn[static_cast<size_t>(p * lda_tn + i)]) *
                  b_nn[static_cast<size_t>(p * ldb_nn + j)];
         }
         return acc;
       }},
  };

  const auto run = [&](const Variant& v, GemmFn fn) {
    std::vector<float> c = c_init;
    fn(v.a->data(), v.lda, v.b->data(), v.ldb, c.data(), ldc, m, k, n);
    return c;
  };
  for (const auto& variant : variants) {
    SCOPED_TRACE(variant.name);
    const std::vector<float> c = run(variant, variant.kernel);
    testutil::ExpectFloatsBitwiseEqual(c, run(variant, variant.reference),
                                       "kernel == scalar reference");
    // Numeric correctness vs the double-precision scalar reference.
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const double expected =
            c_init[static_cast<size_t>(i * ldc + j)] + variant.exact(i, j);
        EXPECT_NEAR(c[static_cast<size_t>(i * ldc + j)], expected,
                    1e-4 * (1.0 + std::fabs(expected)))
            << "at (" << i << ", " << j << ")";
      }
    }
    // Padding tails (columns [n, ldc)) must be untouched.
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = n; j < ldc; ++j) {
        EXPECT_EQ(c[static_cast<size_t>(i * ldc + j)],
                  c_init[static_cast<size_t>(i * ldc + j)]);
      }
    }
  }

  // Infinities in B: inf * 0 and inf - inf make NaNs, and the kernels must
  // make the same ones in the same places (NN/TN skip the zero A entries).
  const float inf = std::numeric_limits<float>::infinity();
  for (auto* b : {&b_nn, &b_nt}) {
    for (auto& x : *b) {
      const int64_t r = rng->UniformInt(16);
      if (r == 0) x = inf;
      if (r == 1) x = -inf;
    }
  }
  for (const auto& variant : variants) {
    SCOPED_TRACE(std::string(variant.name) + " with infinities in B");
    testutil::ExpectFloatsBitwiseEqual(run(variant, variant.kernel),
                                       run(variant, variant.reference),
                                       "kernel == scalar reference");
  }
}

class StridedGemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StridedGemmPropertyTest, MatchesNaiveReferenceAllVariants) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  // m crosses the 4-row blocks, n the 8- and 16-column blocks.
  const int64_t m = 1 + rng.UniformInt(17);
  const int64_t k = 1 + rng.UniformInt(23);
  const int64_t n = 1 + rng.UniformInt(40);
  CheckStridedGemm(&rng, m, k, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StridedGemmPropertyTest,
                         ::testing::Range(0, 10));

TEST(StridedGemmEdgeShapeTest, AttentionAndBlockTailShapes) {
  common::Rng rng(testutil::TestSeed());
  const int64_t shapes[][3] = {
      {1, 48, 161},  // one query row: GemmNT's reference path
      {2, 5, 3},    {3, 1, 8},  // the interval map's k = 1 and n = 8
      {4, 16, 16},  {5, 8, 1},  // its k = 8 and n = 1
      {7, 33, 31},  {9, 0, 17},  // k = 0 adds nothing (GemmNT adds +0)
      {45, 48, 45},  {161, 48, 161}, {161, 161, 48},  // QK^T and AV
  };
  for (const auto& s : shapes) CheckStridedGemm(&rng, s[0], s[1], s[2]);
}

class BroadcastElementwisePropertyTest : public ::testing::TestWithParam<int> {
};

TEST_P(BroadcastElementwisePropertyTest, MatchesNaiveReference) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  // Random 2-D output shape; each operand independently broadcasts either
  // dim and may arrive as a genuinely non-contiguous transpose view (values
  // stored column-major, viewed row-major) — the strided iteration plan of
  // kernels.h, not the contiguous fast path.
  const int64_t d0 = 2 + rng.UniformInt(6);
  const int64_t d1 = 2 + rng.UniformInt(7);
  const auto make_operand = [&]() {
    const int64_t r = rng.Bernoulli(0.3) ? 1 : d0;
    const int64_t c = rng.Bernoulli(0.3) ? 1 : d1;
    std::vector<float> values(static_cast<size_t>(r * c));
    for (auto& v : values) {
      v = static_cast<float>(rng.Uniform(0.5, 2.0));
    }
    if (r > 1 && c > 1 && rng.Bernoulli(0.5)) {
      // Store as [c, r] and transpose: logical [r, c] with swapped strides.
      tensor::Tensor stored = tensor::Tensor::FromVector(
          tensor::Shape({c, r}), std::move(values));
      tensor::Tensor t = tensor::Transpose(stored);
      EXPECT_FALSE(t.is_contiguous());
      return t;
    }
    return tensor::Tensor::FromVector(tensor::Shape({r, c}),
                                      std::move(values));
  };

  struct Op {
    const char* name;
    std::function<tensor::Tensor(const tensor::Tensor&,
                                 const tensor::Tensor&)> apply;
    std::function<double(double, double)> reference;
  };
  const std::vector<Op> ops = {
      {"Add", [](const auto& a, const auto& b) { return tensor::Add(a, b); },
       [](double x, double y) { return x + y; }},
      {"Mul", [](const auto& a, const auto& b) { return tensor::Mul(a, b); },
       [](double x, double y) { return x * y; }},
  };
  const tensor::Tensor a = make_operand();
  const tensor::Tensor b = make_operand();

  for (const auto& op : ops) {
    SCOPED_TRACE(op.name);
    const tensor::Tensor out = op.apply(a, b);
    ASSERT_EQ(out.shape(), tensor::Shape({d0, d1}));
    for (int64_t i = 0; i < d0; ++i) {
      for (int64_t j = 0; j < d1; ++j) {
        const auto pick = [&](const tensor::Tensor& t) {
          return static_cast<double>(
              t.at({t.dim(0) == 1 ? 0 : i, t.dim(1) == 1 ? 0 : j}));
        };
        const double expected = op.reference(pick(a), pick(b));
        EXPECT_NEAR(out.at({i, j}), expected,
                    1e-5 * (1.0 + std::fabs(expected)))
            << "at (" << i << ", " << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastElementwisePropertyTest,
                         ::testing::Range(0, 12));

// Broadcast *backward*: gradients of a broadcast Mul must accumulate into
// the reduced operand exactly like the naive dense computation — the
// stride-0 grad-slot accumulation path of kernels.h's general loop.
TEST(BroadcastElementwisePropertyTest, BroadcastBackwardMatchesDense) {
  common::Rng rng(testutil::TestSeed());
  const int64_t rows = 5, cols = 7;
  std::vector<float> wide(static_cast<size_t>(rows * cols));
  std::vector<float> narrow(static_cast<size_t>(cols));
  for (auto& v : wide) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : narrow) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  tensor::Tensor a = tensor::Tensor::FromVector(
      tensor::Shape({rows, cols}), std::vector<float>(wide), true);
  tensor::Tensor b = tensor::Tensor::FromVector(
      tensor::Shape({1, cols}), std::vector<float>(narrow), true);
  const tensor::Tensor out = tensor::Mul(a, b);
  tensor::Tensor loss = tensor::Mean(out);
  loss.Backward();

  // With n = rows * cols: d(mean)/d(b[j]) = sum_i a[i, j] / n and
  // d(mean)/d(a[i, j]) = b[j] / n.
  const double n = static_cast<double>(rows * cols);
  for (int64_t j = 0; j < cols; ++j) {
    double expected = 0;
    for (int64_t i = 0; i < rows; ++i) {
      expected += wide[static_cast<size_t>(i * cols + j)];
    }
    EXPECT_NEAR(b.grad()[j], expected / n, 1e-6);
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(a.grad()[i * cols + j], narrow[static_cast<size_t>(j)] / n,
                  1e-7);
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 qgemm properties (tensor/qgemm.h): quantize→pack→gemm vs references.
// ---------------------------------------------------------------------------

namespace qg = tensor::qgemm;

/// Exercises one (m, k, n, lda, ldc) instance end to end:
///  - pack→unpack bitwise identity (and re-pack determinism);
///  - Gemm output bitwise equal to an exact integer reference that replays
///    the kernel's arithmetic (i64 dot checked against i32, then the same
///    float dequant ops in the same order);
///  - Gemm output within the analytic per-row-scale error bound of a
///    double-precision GEMM over the original floats;
///  - C padding tail (columns [n, ldc)) untouched;
///  - bitwise invariance across backends of QuantizeRows,
///    QuantizeActivations and Gemm.
void CheckQGemmInstance(common::Rng* rng, int64_t m, int64_t k, int64_t n,
                        int64_t lda, int64_t ldc) {
  SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n) + " lda=" + std::to_string(lda) +
               " ldc=" + std::to_string(ldc));
  // Weights come from a wider base matrix (ldw > k): the strided-read path
  // of QuantizeRows, i.e. quantizing a submatrix without materialising it.
  const int64_t ldw = k + rng->UniformInt(5);
  std::vector<float> w(static_cast<size_t>(n * ldw));
  std::vector<float> a(static_cast<size_t>(m * lda));
  std::vector<float> c_init(static_cast<size_t>(m * ldc));
  for (auto& x : w) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  for (auto& x : a) x = static_cast<float>(rng->Uniform(-2.0, 2.0));
  for (auto& x : c_init) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  // One all-zero weight row (when it fits) pins the scale-0 convention.
  if (n >= 2) {
    std::fill(w.begin() + static_cast<size_t>(ldw),
              w.begin() + static_cast<size_t>(ldw + k), 0.0f);
  }

  // Dense quantized codes + packing round trip.
  std::vector<int8_t> wq(static_cast<size_t>(n * k));
  std::vector<float> wscales(static_cast<size_t>(n));
  qg::QuantizeRows(w.data(), ldw, n, k, wq.data(), wscales.data());
  const qg::PackedMatrix packed = qg::Pack(wq.data(), wscales.data(), n, k);
  ASSERT_EQ(packed.rows, n);
  ASSERT_EQ(packed.cols, k);
  ASSERT_EQ(packed.rows_padded % qg::kRowsPerPanel, 0);
  ASSERT_EQ(packed.cols_padded % qg::kColBlock, 0);
  EXPECT_EQ(qg::Unpack(packed), wq) << "pack -> unpack must be the identity";
  // QuantizeAndPack == QuantizeRows + Pack, bitwise (determinism of the
  // whole quantization pipeline).
  const qg::PackedMatrix packed2 = qg::QuantizeAndPack(w.data(), ldw, n, k);
  EXPECT_EQ(packed2.data, packed.data);
  testutil::ExpectFloatsBitwiseEqual(packed2.scales, packed.scales,
                                     "quantization determinism");
  if (n >= 2) {
    EXPECT_EQ(wscales[1], 0.0f) << "all-zero row must quantize to scale 0";
  }
  for (const qg::Backend backend : qg::SupportedBackends()) {
    SCOPED_TRACE(qg::BackendName(backend));
    std::vector<int8_t> wq_b(wq.size());
    std::vector<float> wscales_b(wscales.size());
    qg::QuantizeRows(w.data(), ldw, n, k, wq_b.data(), wscales_b.data(),
                     backend);
    EXPECT_EQ(wq_b, wq);
    testutil::ExpectFloatsBitwiseEqual(wscales_b, wscales,
                                       "QuantizeRows backend invariance");
  }

  // Quantized activations.
  std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
  std::vector<float> ascales(static_cast<size_t>(m));
  qg::QuantizeActivations(a.data(), lda, m, packed, aq.data(),
                          ascales.data());
  for (const qg::Backend backend : qg::SupportedBackends()) {
    SCOPED_TRACE(qg::BackendName(backend));
    std::vector<int8_t> aq_b(aq.size(), 1);  // the k-tail must be written too
    std::vector<float> ascales_b(ascales.size());
    qg::QuantizeActivations(a.data(), lda, m, packed, aq_b.data(),
                            ascales_b.data(), backend);
    EXPECT_EQ(aq_b, aq);
    testutil::ExpectFloatsBitwiseEqual(ascales_b, ascales,
                                       "QuantizeActivations backend invariance");
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = k; p < packed.cols_padded; ++p) {
      ASSERT_EQ(aq[static_cast<size_t>(i * packed.cols_padded + p)], 0)
          << "k-tail must be zero-filled";
    }
  }

  // Exact expected output: integer dot in i64 (overflow-checked), then the
  // kernel's own float epilogue ops in the kernel's order.
  std::vector<float> expected = c_init;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(
                   aq[static_cast<size_t>(i * packed.cols_padded + p)]) *
               wq[static_cast<size_t>(j * k + p)];
      }
      ASSERT_EQ(acc, static_cast<int32_t>(acc)) << "i32 accumulator overflow";
      expected[static_cast<size_t>(i * ldc + j)] +=
          static_cast<float>(static_cast<int32_t>(acc)) *
          (ascales[static_cast<size_t>(i)] * wscales[static_cast<size_t>(j)]);
    }
  }

  std::vector<std::vector<float>> results;
  for (const qg::Backend backend : qg::SupportedBackends()) {
    std::vector<float> c = c_init;
    qg::Gemm(aq.data(), ascales.data(), m, packed, c.data(), ldc, backend);
    results.push_back(std::move(c));
  }
  // Backend invariance, bitwise, and exactness vs the integer reference.
  for (size_t r = 1; r < results.size(); ++r) {
    testutil::ExpectFloatsBitwiseEqual(results[0], results[r],
                                       "backend invariance");
  }
  testutil::ExpectFloatsBitwiseEqual(results[0], expected,
                                     "exact integer reference");

  // Padding tail untouched.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = n; j < ldc; ++j) {
      ASSERT_EQ(results[0][static_cast<size_t>(i * ldc + j)],
                c_init[static_cast<size_t>(i * ldc + j)]);
    }
  }

  // Analytic quantization-error bound vs the f32 ground truth: with per-row
  // scales sa, sb and |quantization error| <= scale/2 per element,
  // |C - C_f32|(i,j) <= sum_p (|a_ip| sb_j / 2 + |w_jp| sa_i / 2
  //                            + sa_i sb_j / 4), plus float-rounding slack.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double truth = 0;
      double bound = 0;
      const double sa = ascales[static_cast<size_t>(i)];
      const double sb = wscales[static_cast<size_t>(j)];
      for (int64_t p = 0; p < k; ++p) {
        const double av =
            a[static_cast<size_t>(i * lda + p)];
        const double wv = w[static_cast<size_t>(j * ldw + p)];
        truth += av * wv;
        bound += std::fabs(av) * sb / 2 + std::fabs(wv) * sa / 2 +
                 sa * sb / 4;
      }
      const double got = results[0][static_cast<size_t>(i * ldc + j)] -
                         c_init[static_cast<size_t>(i * ldc + j)];
      EXPECT_LE(std::fabs(got - truth),
                bound * 1.0001 + 1e-4 * (1.0 + std::fabs(truth)))
          << "analytic error bound violated at (" << i << ", " << j << ")";
    }
  }
}

class QGemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QGemmPropertyTest, RandomShapesAgainstReferences) {
  common::Rng rng(testutil::TestSeed(GetParam()));
  const int64_t m = 1 + rng.UniformInt(16);
  const int64_t k = 1 + rng.UniformInt(70);  // crosses the 32/64 block edges
  const int64_t n = 1 + rng.UniformInt(20);
  const int64_t lda = k + rng.UniformInt(5);
  const int64_t ldc = n + rng.UniformInt(5);
  CheckQGemmInstance(&rng, m, k, n, lda, ldc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QGemmPropertyTest, ::testing::Range(0, 10));

TEST(QGemmEdgeShapeTest, BlockBoundariesAndDegenerateShapes) {
  common::Rng rng(testutil::TestSeed());
  // Odd m leaves the 2-row AVX2 kernel a last row to run alone; m other
  // than 4 leaves the 4-row VNNI kernel a block of one to three rows.
  const int64_t shapes[][3] = {
      {1, 1, 1},  {1, 31, 1}, {2, 32, 4},   {3, 33, 5},
      {4, 64, 8}, {5, 7, 9},  {7, 192, 13}, {9, 100, 32},
  };
  for (const auto& s : shapes) {
    CheckQGemmInstance(&rng, s[0], s[1], s[2], /*lda=*/s[1], /*ldc=*/s[2]);
  }
}

// Each SIMD backend against the scalar reference at the encoder's serving
// shapes: K and N of 192 (d) and 768 (the FFN width), with m = 1..9 rows
// (every tail of the 2-row AVX2 and 4-row VNNI blocks), 45 and 161 (the
// longest tour). C starts nonzero, as the bias leaves it, so an epilogue
// that fused its multiply and add would round differently.
class QGemmBackendTest : public ::testing::TestWithParam<qg::Backend> {};

TEST_P(QGemmBackendTest, ServingShapesMatchScalarBitwise) {
  const qg::Backend backend = GetParam();
  const std::vector<qg::Backend>& supported = qg::SupportedBackends();
  if (std::find(supported.begin(), supported.end(), backend) ==
      supported.end()) {
    GTEST_SKIP() << "this CPU cannot run the " << qg::BackendName(backend)
                 << " backend";
  }
  common::Rng rng(testutil::TestSeed());
  const auto random_floats = [&](int64_t count, double lo, double hi) {
    std::vector<float> v(static_cast<size_t>(count));
    for (auto& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
    return v;
  };
  const int64_t row_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 45, 161};
  for (const int64_t k : {int64_t{192}, int64_t{768}}) {
    for (const int64_t n : {int64_t{192}, int64_t{768}}) {
      const std::vector<float> w = random_floats(n * k, -2.0, 2.0);
      const qg::PackedMatrix packed = qg::QuantizeAndPack(w.data(), k, n, k);
      for (const int64_t m : row_counts) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        const std::vector<float> a = random_floats(m * k, -2.0, 2.0);
        std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
        std::vector<float> ascales(static_cast<size_t>(m));
        qg::QuantizeActivations(a.data(), k, m, packed, aq.data(),
                                ascales.data(), qg::Backend::kScalar);
        const std::vector<float> c_init = random_floats(m * n, -1.0, 1.0);
        std::vector<float> want = c_init;
        qg::Gemm(aq.data(), ascales.data(), m, packed, want.data(), n,
                 qg::Backend::kScalar);
        std::vector<float> got = c_init;
        qg::Gemm(aq.data(), ascales.data(), m, packed, got.data(), n, backend);
        testutil::ExpectFloatsBitwiseEqual(got, want, "backend vs scalar");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Simd, QGemmBackendTest,
    ::testing::Values(qg::Backend::kAvx2, qg::Backend::kAvx512Vnni),
    [](const ::testing::TestParamInfo<qg::Backend>& info) {
      return std::string(qg::BackendName(info.param));
    });

TEST(QGemmQuantizeTest, RoundHalfEvenAndSaturation) {
  // absmax 127 -> scale exactly 1.0: codes are round-half-even of the input.
  const std::vector<float> ties = {127.0f, 0.5f,   1.5f,  2.5f, -0.5f,
                                   -1.5f,  126.5f, -2.5f, 0.0f, -127.0f};
  const std::vector<int8_t> tie_codes = {127, 0,   2, 2, 0,
                                         -2,  126, -2, 0, -127};
  // Rows of 10, 40 and 77 floats: the AVX2 quantizer's scalar tail only, and
  // its 32-wide body plus tails. Row 1 is all zeros (scale 0). Row 2 holds
  // its only |x| = 127 at 0 and a NaN at 8, in the same SIMD lane after it:
  // the NaN is left out of the absmax without dropping the 127, and gets
  // code -127.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t cols : {int64_t{10}, int64_t{40}, int64_t{77}}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    std::vector<float> rows(static_cast<size_t>(3 * cols), 0.0f);
    std::vector<int8_t> want(rows.size(), 0);
    for (int64_t k = 0; k < cols; ++k) {
      const size_t t = static_cast<size_t>(k) % ties.size();
      const size_t at = static_cast<size_t>(2 * cols + k);
      rows[static_cast<size_t>(k)] = ties[t];
      want[static_cast<size_t>(k)] = tie_codes[t];
      const bool extreme = std::fabs(ties[t]) == 127.0f && k != 0;
      rows[at] = extreme ? 3.5f : ties[t];
      want[at] = extreme ? int8_t{4} : tie_codes[t];
    }
    rows[static_cast<size_t>(2 * cols + 8)] = nan;
    want[static_cast<size_t>(2 * cols + 8)] = -127;
    for (const qg::Backend backend : qg::SupportedBackends()) {
      SCOPED_TRACE(qg::BackendName(backend));
      std::vector<int8_t> q(rows.size(), 1);
      std::vector<float> scales(3, -1.0f);
      qg::QuantizeRows(rows.data(), cols, 3, cols, q.data(), scales.data(),
                       backend);
      EXPECT_EQ(scales, (std::vector<float>{1.0f, 0.0f, 1.0f}));
      EXPECT_EQ(q, want);
    }
  }
}

TEST(QGemmAffineForwardTest, MatchesGemmPlusBias) {
  common::Rng rng(testutil::TestSeed());
  const int64_t m = 5, k = 40, n = 7, ldy = n + 3;
  std::vector<float> w(static_cast<size_t>(n * k));
  std::vector<float> x(static_cast<size_t>(m * k));
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  const qg::PackedMatrix packed = qg::QuantizeAndPack(w.data(), k, n, k);

  std::vector<float> y(static_cast<size_t>(m * ldy), -7.0f);
  qg::AffineForward(x.data(), k, m, packed, bias.data(), y.data(), ldy);

  // Reference: explicit quantize + bias-initialised C + Gemm.
  std::vector<int8_t> aq(static_cast<size_t>(m * packed.cols_padded));
  std::vector<float> ascales(static_cast<size_t>(m));
  qg::QuantizeActivations(x.data(), k, m, packed, aq.data(), ascales.data());
  std::vector<float> want(static_cast<size_t>(m * ldy), -7.0f);
  for (int64_t i = 0; i < m; ++i) {
    std::copy(bias.begin(), bias.end(),
              want.begin() + static_cast<size_t>(i * ldy));
  }
  qg::Gemm(aq.data(), ascales.data(), m, packed, want.data(), ldy);
  // Columns [n, ldy) keep their initial value in both paths.
  testutil::ExpectFloatsBitwiseEqual(y, want, "AffineForward == bias + Gemm");
}

}  // namespace
}  // namespace start
