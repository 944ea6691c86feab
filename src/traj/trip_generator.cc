#include "traj/trip_generator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"

namespace start::traj {

namespace {

/// Deterministic per-(driver, road) route-preference multiplier in
/// [1 - a, 1 + a]: drivers consistently prefer some roads over others, which
/// makes driver identity recoverable from route shape (the Porto-style
/// classification signal).
double PreferenceMultiplier(uint64_t driver_seed, int64_t road, double a) {
  uint64_t x = driver_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(road + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return 1.0 + a * (2.0 * u - 1.0);
}

double Dist(const roadnet::RoadSegment& a, const roadnet::RoadSegment& b) {
  return std::hypot(a.MidX() - b.MidX(), a.MidY() - b.MidY());
}

}  // namespace

TripGenerator::TripGenerator(const TrafficModel* traffic, const Config& config)
    : traffic_(traffic),
      net_(&traffic->network()),
      config_(config),
      rng_(config.seed),
      graph_(roadnet::CsrGraph::FromNetworkFreeFlow(traffic->network())),
      router_(&graph_) {
  START_CHECK(traffic != nullptr);
  START_CHECK_GT(config.num_drivers, 0);
  const int64_t v = net_->num_segments();
  home_anchor_.resize(static_cast<size_t>(config_.num_drivers));
  work_anchor_.resize(static_cast<size_t>(config_.num_drivers));
  driver_seed_.resize(static_cast<size_t>(config_.num_drivers));
  for (int64_t d = 0; d < config_.num_drivers; ++d) {
    const int64_t home = rng_.UniformInt(v);
    // Work anchor: resample until it is reasonably far from home so commutes
    // produce non-trivial trajectories.
    int64_t work = rng_.UniformInt(v);
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (Dist(net_->segment(home), net_->segment(work)) >
          4.0 * config_.zone_radius_m) {
        break;
      }
      work = rng_.UniformInt(v);
    }
    home_anchor_[static_cast<size_t>(d)] = home;
    work_anchor_[static_cast<size_t>(d)] = work;
    driver_seed_[static_cast<size_t>(d)] = rng_.Next();
  }
}

int64_t TripGenerator::HomeAnchor(int64_t driver) const {
  START_CHECK(driver >= 0 && driver < config_.num_drivers);
  return home_anchor_[static_cast<size_t>(driver)];
}

int64_t TripGenerator::WorkAnchor(int64_t driver) const {
  START_CHECK(driver >= 0 && driver < config_.num_drivers);
  return work_anchor_[static_cast<size_t>(driver)];
}

int64_t TripGenerator::SampleNear(int64_t anchor, common::Rng* rng) const {
  auto it = zone_cache_.find(anchor);
  if (it == zone_cache_.end()) {
    // First query for this anchor: scan the network once and memoize the
    // zone membership (ids ascending, so sampling below is deterministic).
    const auto& a = net_->segment(anchor);
    std::vector<int64_t> near;
    for (int64_t v = 0; v < net_->num_segments(); ++v) {
      if (Dist(a, net_->segment(v)) <= config_.zone_radius_m) {
        near.push_back(v);
      }
    }
    it = zone_cache_.emplace(anchor, std::move(near)).first;
  }
  const std::vector<int64_t>& near = it->second;
  if (near.empty()) return anchor;
  return near[static_cast<size_t>(rng->UniformInt(
      static_cast<int64_t>(near.size())))];
}

int64_t TripGenerator::SampleDepartureTime(int64_t day, common::Rng* rng,
                                           bool* is_commute_morning,
                                           bool* is_commute_evening) const {
  *is_commute_morning = false;
  *is_commute_evening = false;
  const int64_t day_start = day * kSecondsPerDay;
  const bool weekend = IsWeekend(day_start);
  double hour;
  if (weekend) {
    hour = std::clamp(rng->Normal(14.0, 3.0), 6.0, 23.0);
  } else {
    const double u = rng->Uniform();
    if (u < 0.3) {
      hour = std::clamp(rng->Normal(8.0, 0.7), 5.5, 11.0);
      *is_commute_morning = true;
    } else if (u < 0.6) {
      hour = std::clamp(rng->Normal(18.0, 0.7), 15.0, 22.0);
      *is_commute_evening = true;
    } else {
      hour = rng->Uniform(6.0, 23.0);
    }
  }
  return day_start + static_cast<int64_t>(hour * 3600.0);
}

Trajectory TripGenerator::GenerateTrip(int64_t driver, int64_t src,
                                       int64_t dst, int64_t depart) {
  START_CHECK(driver >= 0 && driver < config_.num_drivers);
  START_CHECK(src >= 0 && src < net_->num_segments());
  START_CHECK(dst >= 0 && dst < net_->num_segments());
  Trajectory t;
  if (src == dst) return t;
  const uint64_t seed = driver_seed_[static_cast<size_t>(driver)];
  // Per-trip multiplicative jitter on top of the driver preference.
  common::Rng trip_rng(rng_.Next());
  const uint64_t trip_seed = trip_rng.Next();
  auto arc_cost = [&](int32_t, int32_t head, roadnet::Cost) {
    const int64_t road = graph_.ToSegment(head);
    const double base = net_->FreeFlowTravelTime(road);
    const double pref =
        PreferenceMultiplier(seed, road, config_.driver_preference);
    const double noise =
        PreferenceMultiplier(trip_seed, road, config_.trip_noise);
    return graph_.SecondsToCost(base * pref * noise);
  };
  auto route = router_.Route(graph_.ToNode(src), graph_.ToNode(dst), arc_cost);
  if (!route.has_value() || route->nodes.size() < 2) return t;
  // Realise timestamps through the congestion model.
  t.roads = graph_.ToSegments(route->nodes);
  t.timestamps.resize(t.roads.size());
  double clock = static_cast<double>(depart);
  for (size_t i = 0; i < t.roads.size(); ++i) {
    t.timestamps[i] = static_cast<int64_t>(clock);
    const double dt = traffic_->SampleTravelTime(
        t.roads[i], static_cast<int64_t>(clock), &trip_rng);
    clock += std::max(1.0, dt);
  }
  t.end_time = static_cast<int64_t>(clock);
  t.driver_id = driver;
  return t;
}

std::vector<Trajectory> TripGenerator::Generate() {
  std::vector<Trajectory> corpus;
  const int64_t v = net_->num_segments();
  for (int64_t driver = 0; driver < config_.num_drivers; ++driver) {
    const int64_t home = home_anchor_[static_cast<size_t>(driver)];
    const int64_t work = work_anchor_[static_cast<size_t>(driver)];
    for (int64_t day = 0; day < config_.num_days; ++day) {
      const bool weekend = IsWeekend(day * kSecondsPerDay);
      int64_t trips_today = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 config_.trips_per_driver_day *
                 rng_.Uniform(0.7, 1.3) * (weekend ? 0.6 : 1.0))));
      bool did_morning = false, did_evening = false;
      for (int64_t k = 0; k < trips_today; ++k) {
        bool morning = false, evening = false;
        const int64_t depart =
            SampleDepartureTime(day, &rng_, &morning, &evening);
        int64_t src, dst;
        if (morning && !did_morning && !weekend) {
          src = SampleNear(home, &rng_);
          dst = SampleNear(work, &rng_);
          did_morning = true;
        } else if (evening && !did_evening && !weekend) {
          src = SampleNear(work, &rng_);
          dst = SampleNear(home, &rng_);
          did_evening = true;
        } else {
          // Errand: one endpoint near an anchor, the other anywhere.
          const int64_t anchor = rng_.Bernoulli(0.5) ? home : work;
          src = SampleNear(anchor, &rng_);
          dst = rng_.UniformInt(v);
        }
        Trajectory trip = GenerateTrip(driver, src, dst, depart);
        if (trip.size() < 2) continue;
        trip.occupied = true;
        const int64_t arrival = trip.end_time;
        const int64_t arrived_at = trip.roads.back();
        corpus.push_back(std::move(trip));
        // Vacant repositioning hop after some occupied trips.
        if (rng_.Bernoulli(config_.vacant_fraction)) {
          const int64_t idle = rng_.UniformInt(60, 600);
          const int64_t reposition_dst = SampleNear(arrived_at, &rng_);
          Trajectory vacant = GenerateTrip(driver, arrived_at,
                                           reposition_dst, arrival + idle);
          if (vacant.size() >= 2) {
            vacant.occupied = false;
            corpus.push_back(std::move(vacant));
          }
        }
      }
    }
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const Trajectory& a, const Trajectory& b) {
              return a.departure_time() < b.departure_time();
            });
  return corpus;
}

}  // namespace start::traj
