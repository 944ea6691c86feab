#include "testing.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace start::testutil {

namespace {

/// FNV-1a over a string, for test-name-derived seeds.
uint64_t HashString(const std::string& s, uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::unique_ptr<TinyWorld> MakeTinyWorld(const TinyWorldOptions& options) {
  auto world = std::make_unique<TinyWorld>();
  world->net = std::make_unique<roadnet::RoadNetwork>(
      roadnet::BuildSyntheticCity({.grid_width = options.grid_width,
                                   .grid_height = options.grid_height}));
  world->traffic = std::make_unique<traj::TrafficModel>(
      world->net.get(), traj::TrafficModel::Config{});

  traj::TripGenerator::Config gen_config;
  gen_config.num_drivers = options.num_drivers;
  gen_config.num_days = options.num_days;
  gen_config.trips_per_driver_day = options.trips_per_driver_day;
  gen_config.seed = options.trip_seed;
  traj::TripGenerator gen(world->traffic.get(), gen_config);
  auto raw = gen.Generate();

  data::DatasetConfig dataset_config;
  dataset_config.min_length = options.min_length;
  dataset_config.min_user_trajectories = options.min_user_trajectories;
  world->corpus =
      data::TrajDataset::FromCorpus(*world->net, std::move(raw),
                                    dataset_config)
          .All();

  if (options.build_transfer) {
    std::vector<std::vector<int64_t>> sequences;
    sequences.reserve(world->corpus.size());
    for (const auto& t : world->corpus) sequences.push_back(t.roads);
    world->transfer = std::make_unique<roadnet::TransferProbability>(
        roadnet::TransferProbability::FromTrajectories(*world->net,
                                                       sequences));
  }
  return world;
}

core::StartConfig TinyStartConfig() {
  core::StartConfig config;
  config.d = 16;
  config.gat_layers = 1;
  config.gat_heads = {2};
  config.encoder_layers = 1;
  config.encoder_heads = 2;
  config.max_len = 64;
  return config;
}

roadnet::TransferProbability EdgePairTransfer(
    const roadnet::RoadNetwork& net) {
  std::vector<std::vector<int64_t>> sequences;
  sequences.reserve(net.edge_sources().size());
  for (size_t e = 0; e < net.edge_sources().size(); ++e) {
    sequences.push_back({net.edge_sources()[e], net.edge_targets()[e]});
  }
  return roadnet::TransferProbability::FromTrajectories(net, sequences);
}

std::vector<OracleLabel> BellmanFord(const roadnet::RoadNetwork& net,
                                     int64_t src,
                                     const roadnet::SegmentWeightFn& weight) {
  const int64_t n = net.num_segments();
  std::vector<OracleLabel> labels(
      static_cast<size_t>(n),
      {std::numeric_limits<double>::infinity(), 0});
  labels[static_cast<size_t>(src)] = {weight(src), 1};
  for (bool changed = true; changed;) {
    changed = false;
    for (int64_t u = 0; u < n; ++u) {
      const OracleLabel lu = labels[static_cast<size_t>(u)];
      if (lu.segments == 0) continue;
      for (const int64_t v : net.OutNeighbors(u)) {
        OracleLabel& lv = labels[static_cast<size_t>(v)];
        const double cost = lu.cost + weight(v);
        if (cost < lv.cost) {
          lv = {cost, lu.segments + 1};
          changed = true;
        }
      }
    }
  }
  return labels;
}

void ExpectAllClose(const tensor::Tensor& a, const tensor::Tensor& b,
                    double atol, const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const tensor::Tensor da = a.Detach();  // compacts strided views
  const tensor::Tensor db = b.Detach();
  const float* pa = da.data();
  const float* pb = db.data();
  int reported = 0;
  for (int64_t i = 0; i < da.numel(); ++i) {
    if (std::abs(static_cast<double>(pa[i]) - pb[i]) > atol) {
      EXPECT_NEAR(pa[i], pb[i], atol) << what << " at flat index " << i;
      if (++reported >= 5) {
        FAIL() << what << ": more than 5 mismatches (of " << da.numel()
               << " elements)";
      }
    }
  }
}

void ExpectTensorBitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b,
                              const std::string& what) {
  ASSERT_TRUE(a.defined() && b.defined()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const tensor::Tensor da = a.Detach();
  const tensor::Tensor db = b.Detach();
  EXPECT_EQ(std::memcmp(da.data(), db.data(),
                        static_cast<size_t>(da.numel()) * sizeof(float)),
            0)
      << what << ": tensors differ bitwise";
}

void ExpectParamsBitwiseEqual(const nn::Module& a, const nn::Module& b) {
  const auto named_a = a.NamedParameters();
  const auto named_b = b.NamedParameters();
  ASSERT_EQ(named_a.size(), named_b.size());
  for (size_t i = 0; i < named_a.size(); ++i) {
    ASSERT_EQ(named_a[i].first, named_b[i].first);
    const auto& ta = named_a[i].second;
    const auto& tb = named_b[i].second;
    ASSERT_EQ(ta.shape(), tb.shape()) << named_a[i].first;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0)
        << "parameter diverged: " << named_a[i].first;
  }
}

void ExpectFloatsBitwiseEqual(const std::vector<float>& a,
                              const std::vector<float>& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": buffers differ bitwise";
}

TempDir::TempDir() {
  std::string templ = std::string(::testing::TempDir()) + "start_XXXXXX";
  char* made = mkdtemp(templ.data());
  EXPECT_NE(made, nullptr) << "mkdtemp failed for " << templ;
  path_ = made != nullptr ? made : templ;
}

TempDir::~TempDir() {
  std::error_code ec;  // best effort; never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // bytes.data() may be null when empty — fwrite's pointer must be non-null.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::string FixtureDir() {
#ifdef START_TEST_FIXTURE_DIR
  return START_TEST_FIXTURE_DIR;
#else
  return "tests/fixtures";
#endif
}

uint64_t TestSeed(uint64_t salt) {
  uint64_t h = 0xcbf29ce484222325ULL ^ (salt * 0x9e3779b97f4a7c15ULL);
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    h = HashString(info->test_suite_name(), h);
    h = HashString(info->name(), h);
  }
  return h;
}

common::Rng TestRng(uint64_t salt) { return common::Rng(TestSeed(salt)); }

}  // namespace start::testutil
