#include "core/start_model.h"

#include <cmath>
#include <gtest/gtest.h>

#include "core/start_encoder.h"
#include "data/span_mask.h"
#include "tensor/ops.h"
#include "testing.h"
#include "traj/trip_generator.h"

namespace start::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

class StartModelTest : public ::testing::Test {
 protected:
  StartModelTest()
      : world_([] {
          // No corpus needed here — trips are generated per test.
          testutil::TinyWorldOptions options;
          options.num_drivers = 2;
          options.num_days = 1;
          options.trips_per_driver_day = 2.0;
          options.min_user_trajectories = 1;
          return testutil::MakeTinyWorld(options);
        }()),
        net_(*world_->net),
        traffic_(*world_->traffic) {
    gen_config_.num_drivers = 3;
    gen_config_.seed = 555;
  }

  StartConfig SmallConfig() const {
    StartConfig config = testutil::TinyStartConfig();
    config.gat_layers = 2;
    config.gat_heads = {4, 1};
    config.encoder_layers = 2;
    config.dropout = 0.0f;
    return config;
  }

  roadnet::TransferProbability MakeTransfer() const {
    return testutil::EdgePairTransfer(net_);
  }

  traj::Trajectory MakeTrip(int64_t src, int64_t dst, int64_t depart) {
    traj::TripGenerator gen(&traffic_, gen_config_);
    return gen.GenerateTrip(0, src, dst, depart);
  }

  std::unique_ptr<testutil::TinyWorld> world_;
  roadnet::RoadNetwork& net_;
  traj::TrafficModel& traffic_;
  traj::TripGenerator::Config gen_config_;
};

TEST_F(StartModelTest, EncodeShapes) {
  const auto tp = MakeTransfer();
  common::Rng rng(1);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  const auto t1 = MakeTrip(0, net_.num_segments() - 1, 8 * 3600);
  const auto t2 = MakeTrip(3, net_.num_segments() / 2, 10 * 3600);
  ASSERT_GT(t1.size(), 2);
  ASSERT_GT(t2.size(), 2);
  const data::Batch batch =
      data::MakeBatch({data::MakeView(t1), data::MakeView(t2)});
  const EncoderOutput out = model.Encode(batch);
  EXPECT_EQ(out.sequence.shape(), Shape({2, batch.max_len + 1, 16}));
  EXPECT_EQ(out.cls.shape(), Shape({2, 16}));
}

TEST_F(StartModelTest, PaddingContentDoesNotAffectShorterSequence) {
  const auto tp = MakeTransfer();
  common::Rng rng(2);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  const auto short_trip = MakeTrip(0, 8, 9 * 3600);
  const auto long_trip = MakeTrip(1, net_.num_segments() - 1, 9 * 3600);
  ASSERT_GT(long_trip.size(), short_trip.size());
  // Encode the short trip alone, then padded next to the long one.
  tensor::NoGradGuard no_grad;
  const auto alone =
      model.Encode(data::MakeBatch({data::MakeView(short_trip)}));
  const auto padded = model.Encode(data::MakeBatch(
      {data::MakeView(short_trip), data::MakeView(long_trip)}));
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(alone.cls.at({0, j}), padded.cls.at({0, j}), 1e-4);
  }
}

TEST_F(StartModelTest, MaskTokenChangesEncoding) {
  const auto tp = MakeTransfer();
  common::Rng rng(3);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  const auto trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  data::View clean = data::MakeView(trip);
  data::View masked = clean;
  common::Rng mask_rng(4);
  data::ApplySpanMask(&masked, 2, 0.2, &mask_rng);
  const auto a = model.Encode(data::MakeBatch({clean}));
  const auto b = model.Encode(data::MakeBatch({masked}));
  double diff = 0.0;
  for (int64_t j = 0; j < 16; ++j) {
    diff += std::fabs(a.cls.at({0, j}) - b.cls.at({0, j}));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST_F(StartModelTest, TimeEmbeddingAblationRemovesTimeSensitivity) {
  StartConfig config = SmallConfig();
  config.use_time_embedding = false;
  config.use_time_interval = false;
  const auto tp = MakeTransfer();
  common::Rng rng(5);
  StartModel model(config, &net_, &tp, &rng);
  model.SetTraining(false);
  traj::Trajectory trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  traj::Trajectory shifted = trip;
  for (auto& ts : shifted.timestamps) ts += 6 * 3600;  // depart 6 hours later
  shifted.end_time += 6 * 3600;
  const auto a = model.Encode(data::MakeBatch({data::MakeView(trip)}));
  const auto b = model.Encode(data::MakeBatch({data::MakeView(shifted)}));
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(a.cls.at({0, j}), b.cls.at({0, j}), 1e-5);
  }
}

TEST_F(StartModelTest, FullModelIsTimeSensitive) {
  const auto tp = MakeTransfer();
  common::Rng rng(6);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  traj::Trajectory trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  traj::Trajectory shifted = trip;
  for (auto& ts : shifted.timestamps) ts += 6 * 3600;
  shifted.end_time += 6 * 3600;
  const auto a = model.Encode(data::MakeBatch({data::MakeView(trip)}));
  const auto b = model.Encode(data::MakeBatch({data::MakeView(shifted)}));
  double diff = 0.0;
  for (int64_t j = 0; j < 16; ++j) {
    diff += std::fabs(a.cls.at({0, j}) - b.cls.at({0, j}));
  }
  EXPECT_GT(diff, 1e-4);
}

TEST_F(StartModelTest, MaskedLogitsShape) {
  const auto tp = MakeTransfer();
  common::Rng rng(7);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  const auto trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  data::View v = data::MakeView(trip);
  common::Rng mask_rng(8);
  const auto info = data::ApplySpanMask(&v, 2, 0.15, &mask_rng);
  ASSERT_FALSE(info.positions.empty());
  const data::Batch batch = data::MakeBatch({v});
  const auto out = model.Encode(batch);
  std::vector<int64_t> flat;
  for (const int64_t p : info.positions) flat.push_back(p);
  const Tensor logits = model.MaskedLogits(out, flat, batch.max_len);
  EXPECT_EQ(logits.shape(),
            Shape({static_cast<int64_t>(flat.size()), net_.num_segments()}));
}

TEST_F(StartModelTest, AblationFlagsChangeParameterCount) {
  const auto tp = MakeTransfer();
  StartConfig with_gat = SmallConfig();
  StartConfig without_gat = SmallConfig();
  without_gat.use_tpe_gat = false;
  common::Rng rng_a(9), rng_b(9);
  StartModel a(with_gat, &net_, &tp, &rng_a);
  StartModel b(without_gat, &net_, &tp, &rng_b);
  // The GAT variant registers TPE-GAT parameters, the ablation registers a
  // per-road table instead.
  auto has_param = [](const StartModel& m, const std::string& prefix) {
    for (const auto& [name, t] : m.NamedParameters()) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_param(a, "tpe_gat"));
  EXPECT_FALSE(has_param(a, "road_table"));
  EXPECT_TRUE(has_param(b, "road_table"));
  EXPECT_FALSE(has_param(b, "tpe_gat"));
}

TEST_F(StartModelTest, ReleasedTrainingOnlyModulesLeaveEncodeWithTable) {
  const auto tp = MakeTransfer();
  common::Rng rng(12);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  model.SetTraining(false);
  const auto trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  const data::Batch batch = data::MakeBatch({data::MakeView(trip)});
  tensor::NoGradGuard no_grad;
  const tensor::Tensor ext =
      model.BuildExtendedTable(model.ComputeRoadReps()).Detach();
  const tensor::Tensor before = model.EncodeWithTable(batch, ext).cls;
  model.ReleaseTrainingOnlyModules();
  for (const auto& [name, t] : model.NamedParameters()) {
    EXPECT_NE(name.rfind("tpe_gat.", 0), 0u) << name;
    EXPECT_NE(name.rfind("mlm_head.", 0), 0u) << name;
  }
  testutil::ExpectTensorBitwiseEqual(model.EncodeWithTable(batch, ext).cls,
                                     before);
  EXPECT_DEATH(model.ComputeRoadReps(), "stage 1 was released");
}

TEST_F(StartModelTest, SaveLoadRestoresEncoding) {
  const auto tp = MakeTransfer();
  common::Rng rng_a(10), rng_b(11);
  StartModel a(SmallConfig(), &net_, &tp, &rng_a);
  StartModel b(SmallConfig(), &net_, &tp, &rng_b);
  a.SetTraining(false);
  b.SetTraining(false);
  const auto trip = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  const data::Batch batch = data::MakeBatch({data::MakeView(trip)});
  testutil::TempDir dir;
  const std::string path = dir.File("start_model.sttn");
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  const auto ea = a.Encode(batch);
  const auto eb = b.Encode(batch);
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(ea.cls.at({0, j}), eb.cls.at({0, j}), 1e-5);
  }
}

TEST_F(StartModelTest, EncoderAdapterEtaModeHidesArrivalTimes) {
  const auto tp = MakeTransfer();
  common::Rng rng(12);
  StartModel model(SmallConfig(), &net_, &tp, &rng);
  StartEncoder encoder(&model);
  encoder.SetTraining(false);
  // Two trips with the same roads and departure but different realised
  // speeds must encode identically in kDepartureOnly mode.
  traj::Trajectory a = MakeTrip(0, net_.num_segments() - 1, 9 * 3600);
  traj::Trajectory b = a;
  for (size_t i = 1; i < b.timestamps.size(); ++i) {
    b.timestamps[i] += static_cast<int64_t>(20 * i);
  }
  b.end_time += 600;
  const Tensor ea = encoder.EncodeBatch({&a}, eval::EncodeMode::kDepartureOnly);
  const Tensor eb = encoder.EncodeBatch({&b}, eval::EncodeMode::kDepartureOnly);
  for (int64_t j = 0; j < 16; ++j) {
    EXPECT_NEAR(ea.at({0, j}), eb.at({0, j}), 1e-5);
  }
  // In full mode they must differ (time-interval matrix sees the change).
  const Tensor fa = encoder.EncodeBatch({&a}, eval::EncodeMode::kFull);
  const Tensor fb = encoder.EncodeBatch({&b}, eval::EncodeMode::kFull);
  double diff = 0.0;
  for (int64_t j = 0; j < 16; ++j) diff += std::fabs(fa.at({0, j}) - fb.at({0, j}));
  EXPECT_GT(diff, 1e-5);
}

}  // namespace
}  // namespace start::core
