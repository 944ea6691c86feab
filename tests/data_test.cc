#include <gtest/gtest.h>
#include <set>

#include "data/augmentation.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "data/detour.h"
#include "data/span_mask.h"
#include "data/view.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace start::data {
namespace {

class DataTest : public ::testing::Test {
 protected:
  DataTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 7, .grid_height = 7})),
        traffic_(&net_, {}) {}

  traj::Trajectory MakeTrip(uint64_t seed = 0) {
    traj::TripGenerator::Config config;
    config.num_drivers = 2;
    config.seed = 1000 + seed;
    traj::TripGenerator gen(&traffic_, config);
    traj::Trajectory t = gen.GenerateTrip(
        0, static_cast<int64_t>(seed % 5), net_.num_segments() - 2 - static_cast<int64_t>(seed),
        9 * 3600);
    EXPECT_GT(t.size(), 3);
    return t;
  }

  roadnet::RoadNetwork net_;
  traj::TrafficModel traffic_;
};

TEST_F(DataTest, MakeViewCopiesTimesAndIndexes) {
  const traj::Trajectory t = MakeTrip();
  const View v = MakeView(t);
  ASSERT_EQ(v.size(), t.size());
  for (int64_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.roads[static_cast<size_t>(i)], t.roads[static_cast<size_t>(i)]);
    EXPECT_GE(v.minute_idx[static_cast<size_t>(i)], 1);
    EXPECT_LE(v.minute_idx[static_cast<size_t>(i)], 1440);
    EXPECT_GE(v.dow_idx[static_cast<size_t>(i)], 1);
    EXPECT_LE(v.dow_idx[static_cast<size_t>(i)], 7);
  }
}

TEST_F(DataTest, EtaViewExposesOnlyDeparture) {
  const traj::Trajectory t = MakeTrip();
  const View v = MakeEtaView(t);
  const int64_t dep_minute = traj::MinuteIndex(t.departure_time());
  for (int64_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.minute_idx[static_cast<size_t>(i)], dep_minute);
    EXPECT_EQ(v.times[static_cast<size_t>(i)],
              static_cast<double>(t.departure_time()));
  }
}

TEST_F(DataTest, SpanMaskCoversRequestedRatio) {
  common::Rng rng(1);
  const traj::Trajectory t = MakeTrip();
  View v = MakeView(t);
  const auto info = ApplySpanMask(&v, 2, 0.15, &rng);
  EXPECT_GE(info.positions.size(), 1u);
  // Masked positions carry sentinels; targets the original roads.
  for (size_t k = 0; k < info.positions.size(); ++k) {
    const auto pos = static_cast<size_t>(info.positions[k]);
    EXPECT_EQ(v.roads[pos], kMaskRoad);
    EXPECT_EQ(v.minute_idx[pos], kMaskTimeIndex);
    EXPECT_EQ(v.dow_idx[pos], kMaskTimeIndex);
    EXPECT_EQ(info.targets[k], t.roads[pos]);
  }
  // Coverage near pm (within the span rounding slack).
  const double ratio = static_cast<double>(info.positions.size()) /
                       static_cast<double>(t.size());
  EXPECT_GE(ratio, 0.10);
  EXPECT_LE(ratio, 0.40);
}

TEST_F(DataTest, SpanMaskProducesContiguousRuns) {
  common::Rng rng(2);
  const traj::Trajectory t = MakeTrip(1);
  View v = MakeView(t);
  ApplySpanMask(&v, 3, 0.2, &rng);
  // Every masked run (except where clipped by the sequence end or merged
  // spans) has length >= 1; check there is at least one run of length >= 2.
  int64_t best_run = 0, run = 0;
  for (int64_t i = 0; i < v.size(); ++i) {
    run = v.roads[static_cast<size_t>(i)] == kMaskRoad ? run + 1 : 0;
    best_run = std::max(best_run, run);
  }
  EXPECT_GE(best_run, 2);
}

TEST_F(DataTest, TrimKeepsContiguityAndShrinks) {
  common::Rng rng(3);
  const traj::Trajectory t = MakeTrip(2);
  for (int rep = 0; rep < 10; ++rep) {
    const View v = Augment(t, AugmentationKind::kTrim, {}, &traffic_, &rng);
    EXPECT_LT(v.size(), t.size());
    EXPECT_GE(v.size(), t.size() - std::max<int64_t>(1, t.size() * 0.15) - 1);
    for (int64_t i = 0; i + 1 < v.size(); ++i) {
      EXPECT_TRUE(net_.HasEdge(v.roads[static_cast<size_t>(i)],
                               v.roads[static_cast<size_t>(i + 1)]));
    }
  }
}

TEST_F(DataTest, TemporalShiftPreservesRoadsAndOrder) {
  common::Rng rng(4);
  const traj::Trajectory t = MakeTrip(3);
  const View v =
      Augment(t, AugmentationKind::kTemporalShift, {}, &traffic_, &rng);
  ASSERT_EQ(v.size(), t.size());
  EXPECT_EQ(v.roads, t.roads);
  for (int64_t i = 0; i + 1 < v.size(); ++i) {
    EXPECT_LT(v.times[static_cast<size_t>(i)],
              v.times[static_cast<size_t>(i + 1)]);
  }
  // Departure unchanged; at least one later timestamp moved.
  EXPECT_EQ(v.times[0], static_cast<double>(t.timestamps[0]));
  bool changed = false;
  for (int64_t i = 1; i < v.size(); ++i) {
    if (v.times[static_cast<size_t>(i)] !=
        static_cast<double>(t.timestamps[static_cast<size_t>(i)])) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST_F(DataTest, MaskAugmentKeepsLength) {
  common::Rng rng(5);
  const traj::Trajectory t = MakeTrip(4);
  const View v = Augment(t, AugmentationKind::kRoadMask, {}, &traffic_, &rng);
  EXPECT_EQ(v.size(), t.size());
  int64_t masked = 0;
  for (const int64_t r : v.roads) masked += r == kMaskRoad ? 1 : 0;
  EXPECT_GT(masked, 0);
}

TEST_F(DataTest, DropoutAugmentSetsFlagOnly) {
  common::Rng rng(6);
  const traj::Trajectory t = MakeTrip(0);
  const View v = Augment(t, AugmentationKind::kDropout, {}, &traffic_, &rng);
  EXPECT_TRUE(v.embedding_dropout);
  EXPECT_EQ(v.roads, t.roads);
}

TEST_F(DataTest, BatchPadsToMaxLen) {
  const traj::Trajectory a = MakeTrip(0);
  const traj::Trajectory b = MakeTrip(1);
  const Batch batch = MakeBatch({MakeView(a), MakeView(b)});
  EXPECT_EQ(batch.batch_size, 2);
  EXPECT_EQ(batch.max_len, std::max(a.size(), b.size()));
  // Padding slots hold the pad sentinel.
  const int64_t shorter = std::min(a.size(), b.size());
  const int64_t shorter_row = a.size() < b.size() ? 0 : 1;
  for (int64_t i = shorter; i < batch.max_len; ++i) {
    EXPECT_EQ(batch.At(shorter_row, i), kPadRoad);
  }
  EXPECT_EQ(batch.lengths[static_cast<size_t>(shorter_row)], shorter);
}

TEST_F(DataTest, DatasetFiltersAndSplitsChronologically) {
  traj::TripGenerator::Config config;
  config.num_drivers = 6;
  config.num_days = 8;
  config.trips_per_driver_day = 4.0;
  traj::TripGenerator gen(&traffic_, config);
  auto corpus = gen.Generate();
  DatasetConfig ds_config;
  ds_config.min_length = 6;
  ds_config.max_length = 40;
  ds_config.min_user_trajectories = 10;
  const auto ds = TrajDataset::FromCorpus(net_, std::move(corpus), ds_config);
  EXPECT_GT(ds.train().size(), ds.val().size());
  EXPECT_GT(ds.train().size(), ds.test().size());
  for (const auto& split :
       {ds.train(), ds.val(), ds.test()}) {
    for (const auto& t : split) {
      EXPECT_GE(t.size(), 6);
      EXPECT_LE(t.size(), 40);
      EXPECT_NE(t.roads.front(), t.roads.back());  // loops removed
    }
  }
  // Chronological: train ends before test begins.
  ASSERT_FALSE(ds.train().empty());
  ASSERT_FALSE(ds.test().empty());
  EXPECT_LE(ds.train().back().departure_time(),
            ds.test().front().departure_time());
  // Driver ids re-indexed densely.
  std::set<int64_t> drivers;
  for (const auto& t : ds.All()) drivers.insert(t.driver_id);
  EXPECT_EQ(*drivers.rbegin(), ds.num_drivers() - 1);
}

TEST_F(DataTest, DetourChangesRouteKeepsEndpointsConnected) {
  common::Rng rng(7);
  const auto free_flow = roadnet::CsrGraph::FromNetworkFreeFlow(net_);
  int64_t made = 0;
  for (uint64_t s = 0; s < 5 && made < 2; ++s) {
    const traj::Trajectory t = MakeTrip(s);
    const auto detour = MakeDetour(traffic_, free_flow, t, {}, &rng);
    if (!detour.has_value()) continue;
    ++made;
    EXPECT_NE(detour->roads, t.roads);
    EXPECT_EQ(detour->roads.front(), t.roads.front());
    EXPECT_EQ(detour->roads.back(), t.roads.back());
    for (size_t i = 0; i + 1 < detour->roads.size(); ++i) {
      EXPECT_TRUE(net_.HasEdge(detour->roads[i], detour->roads[i + 1]));
    }
    for (size_t i = 0; i + 1 < detour->timestamps.size(); ++i) {
      EXPECT_LT(detour->timestamps[i], detour->timestamps[i + 1]);
    }
  }
  EXPECT_GT(made, 0);
}

TEST_F(DataTest, DetourGeneratorSatisfiesSameContractAsYen) {
  common::Rng rng(7);
  DetourGenerator generator(&traffic_, {});
  int64_t made = 0;
  for (uint64_t s = 0; s < 8 && made < 2; ++s) {
    const traj::Trajectory t = MakeTrip(s);
    const auto detour = generator.Generate(t, &rng);
    if (!detour.has_value()) continue;
    ++made;
    EXPECT_NE(detour->roads, t.roads);
    EXPECT_EQ(detour->roads.front(), t.roads.front());
    EXPECT_EQ(detour->roads.back(), t.roads.back());
    for (size_t i = 0; i + 1 < detour->roads.size(); ++i) {
      EXPECT_TRUE(net_.HasEdge(detour->roads[i], detour->roads[i + 1]));
    }
    for (size_t i = 0; i + 1 < detour->timestamps.size(); ++i) {
      EXPECT_LT(detour->timestamps[i], detour->timestamps[i + 1]);
    }
  }
  EXPECT_GT(made, 0);
}

}  // namespace
}  // namespace start::data
