#include "world.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/checkpoint.h"
#include "core/start_model.h"
#include "roadnet/synthetic_city.h"
#include "traj/map_matching.h"
#include "traj/trip_generator.h"

namespace perfbench {

using start::traj::Trajectory;

namespace {

constexpr int64_t kMinLen = 6;

Trajectory Truncate(const Trajectory& t, int64_t n) {
  if (t.size() <= n) return t;
  Trajectory out = t;
  out.roads.resize(static_cast<size_t>(n));
  out.timestamps.resize(static_cast<size_t>(n));
  out.end_time = t.timestamps[static_cast<size_t>(n)];
  return out;
}

}  // namespace

City MakeCity(int grid, int64_t min_trips, int64_t max_len, uint64_t seed) {
  City city;
  start::roadnet::SyntheticCityConfig cc;
  cc.grid_width = grid;
  cc.grid_height = grid;
  cc.seed = seed * 7919 + 1;
  city.net = std::make_unique<start::roadnet::RoadNetwork>(
      start::roadnet::BuildSyntheticCity(cc));
  start::traj::TrafficModel::Config tc;
  tc.seed = seed * 7919 + 2;
  city.traffic =
      std::make_unique<start::traj::TrafficModel>(city.net.get(), tc);
  // Trips come in chunks of independent generators so the count is a knob
  // without making any one generator's driver pool huge.
  for (uint64_t chunk = 0;
       static_cast<int64_t>(city.trips.size()) < min_trips; ++chunk) {
    start::traj::TripGenerator::Config gc;
    gc.num_drivers = 24;
    gc.num_days = 7;
    gc.trips_per_driver_day = 6.0;
    gc.zone_radius_m = 1200.0;
    gc.seed = seed * 7919 + 100 + chunk;
    start::traj::TripGenerator gen(city.traffic.get(), gc);
    for (Trajectory& t : gen.Generate()) {
      if (t.size() >= kMinLen) city.trips.push_back(Truncate(t, max_len));
    }
  }
  start::common::Rng rng(seed * 7919 + 3);
  rng.Shuffle(&city.trips);
  std::vector<std::vector<int64_t>> seqs;
  seqs.reserve(city.trips.size());
  for (const Trajectory& t : city.trips) seqs.push_back(t.roads);
  city.transfer = std::make_unique<start::roadnet::TransferProbability>(
      start::roadnet::TransferProbability::FromTrajectories(*city.net, seqs));
  return city;
}

std::vector<Trajectory> TakeTrips(City* city, int64_t n) {
  n = std::min<int64_t>(n, static_cast<int64_t>(city->trips.size()));
  std::vector<Trajectory> out(
      std::make_move_iterator(city->trips.end() - n),
      std::make_move_iterator(city->trips.end()));
  city->trips.resize(city->trips.size() - static_cast<size_t>(n));
  return out;
}

std::vector<Trajectory> MakeTours(City* city, int64_t count, int64_t max_len) {
  std::vector<Trajectory> tours;
  while (static_cast<int64_t>(tours.size()) < count && !city->trips.empty()) {
    // Log-uniform lengths: mostly short queries, with a tail out to max_len.
    // Tour k's length comes from a golden-ratio sequence rather than the
    // seed, so a Zipf rank asks for the same amount of work under every
    // seed and only the roads differ.
    const double u = std::fmod(0.5 + 0.6180339887498949 *
                                         static_cast<double>(tours.size()),
                               1.0);
    const double lo = std::log(static_cast<double>(kMinLen));
    const double hi = std::log(static_cast<double>(max_len) + 1.0);
    const int64_t target = std::clamp<int64_t>(
        static_cast<int64_t>(std::exp(lo + u * (hi - lo))), kMinLen, max_len);
    Trajectory tour = std::move(city->trips.back());
    city->trips.pop_back();
    while (tour.size() < target && !city->trips.empty()) {
      const Trajectory next = std::move(city->trips.back());
      city->trips.pop_back();
      const int64_t shift = tour.end_time + 60 - next.departure_time();
      for (size_t i = 0; i < next.roads.size(); ++i) {
        tour.roads.push_back(next.roads[i]);
        tour.timestamps.push_back(next.timestamps[i] + shift);
      }
      tour.end_time = next.end_time + shift;
    }
    tours.push_back(Truncate(tour, target));
  }
  return tours;
}

std::vector<start::serve::StreamItem> MakeGpsItems(
    const City& city, const std::vector<Trajectory>& trips, int64_t id_base,
    start::common::Rng* rng) {
  std::vector<start::serve::StreamItem> items;
  items.reserve(trips.size());
  for (const Trajectory& t : trips) {
    start::serve::StreamItem item;
    item.gps = start::traj::SimulateGps(*city.net, t, /*sample_interval_s=*/15.0,
                                        /*noise_m=*/10.0, rng);
    if (item.gps.points.size() < 4) continue;
    item.id = id_base + static_cast<int64_t>(items.size());
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<int64_t> ZipfSequence(int64_t pool, int64_t n, double s,
                                  start::common::Rng* rng) {
  std::vector<double> cdf(static_cast<size_t>(pool));
  double total = 0.0;
  for (int64_t r = 0; r < pool; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int64_t> out(static_cast<size_t>(n));
  for (auto& v : out) {
    const double u = rng->Uniform() * total;
    v = std::min<int64_t>(
        pool - 1, std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return out;
}

start::core::StartConfig ModelConfig(int64_t d) {
  start::core::StartConfig config;
  config.d = d;
  config.encoder_layers = 2;
  config.encoder_heads = 4;
  config.gat_layers = 2;
  config.gat_heads = {4, 1};
  config.max_len = 160;
  return config;
}

bool WriteCheckpoint(const std::string& path,
                     const start::core::StartConfig& config, const City& city,
                     uint64_t seed) {
  start::common::Rng rng(seed * 7919 + 4);
  start::core::StartModel model(config, city.net.get(), city.transfer.get(),
                                &rng);
  return start::core::SaveModelCheckpoint(
             path, model, start::core::HashStartConfig(config))
      .ok();
}

}  // namespace perfbench
