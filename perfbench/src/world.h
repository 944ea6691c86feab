// Seeded inputs of the repo benchmark: synthetic city, trips, GPS streams,
// query pools and model artifacts. The program under test only ever sees
// what these functions generate.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "roadnet/road_network.h"
#include "serve/stream_pipeline.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace perfbench {

/// A synthetic city and a shuffled pool of trips driven on it.
struct City {
  std::unique_ptr<start::roadnet::RoadNetwork> net;
  std::unique_ptr<start::traj::TrafficModel> traffic;
  std::unique_ptr<start::roadnet::TransferProbability> transfer;
  std::vector<start::traj::Trajectory> trips;  ///< Each 6..max_len roads.
};

/// Builds a grid x grid city and at least `min_trips` trips on it.
City MakeCity(int grid, int64_t min_trips, int64_t max_len, uint64_t seed);

/// Takes `n` trips off the back of `city->trips`.
std::vector<start::traj::Trajectory> TakeTrips(City* city, int64_t n);

/// Query tours: consecutive trips chained (time-shifted so timestamps keep
/// increasing) up to a log-uniformly spread length in [6, max_len]; tour k
/// has the same length under every seed.
std::vector<start::traj::Trajectory> MakeTours(City* city, int64_t count,
                                               int64_t max_len);

/// Noisy GPS replays of `trips` (15 s sampling, 10 m noise) with ids
/// id_base, id_base + 1, ...; each has at least four fixes.
std::vector<start::serve::StreamItem> MakeGpsItems(
    const City& city, const std::vector<start::traj::Trajectory>& trips,
    int64_t id_base, start::common::Rng* rng);

/// Zipf(s) draws over ranks of a pool of `pool` items.
std::vector<int64_t> ZipfSequence(int64_t pool, int64_t n, double s,
                                  start::common::Rng* rng);

/// Model architecture at width d (two stage-2 layers, max_len 160).
start::core::StartConfig ModelConfig(int64_t d);

/// Writes a randomly initialised START model checkpoint to `path`.
bool WriteCheckpoint(const std::string& path,
                     const start::core::StartConfig& config, const City& city,
                     uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
