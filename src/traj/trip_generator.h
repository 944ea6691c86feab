#ifndef START_TRAJ_TRIP_GENERATOR_H_
#define START_TRAJ_TRIP_GENERATOR_H_

#include <map>
#include <vector>

#include "common/rng.h"
#include "roadnet/csr_graph.h"
#include "roadnet/road_network.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace start::traj {

/// \brief Agent-based taxi-trip simulator — the substitute for the BJ/Porto
/// taxi corpora (see DESIGN.md, "Substitutions").
///
/// Each driver has a home and a work anchor zone and a personal route-choice
/// bias. Weekday occupied trips follow commuter demand (home->work in the
/// morning peak, work->home in the evening peak, plus midday errands);
/// vacant repositioning trips are shorter and more random. The realised
/// timestamps come from the TrafficModel, so rush-hour trips are genuinely
/// slower — the signal the paper's temporal machinery exploits.
class TripGenerator {
 public:
  struct Config {
    int64_t num_drivers = 20;
    int64_t num_days = 14;
    double trips_per_driver_day = 6.0;
    double vacant_fraction = 0.35;  ///< Fraction of vacant repositioning trips.
    /// Strength of per-driver route preference (weight jitter amplitude).
    double driver_preference = 0.6;
    /// Per-trip route randomness on top of the driver preference.
    double trip_noise = 0.15;
    /// Zone radius (meters) around each anchor for OD sampling.
    double zone_radius_m = 450.0;
    uint64_t seed = 4242;
  };

  TripGenerator(const TrafficModel* traffic, const Config& config);
  TripGenerator(const TripGenerator&) = delete;  // router_ points at graph_
  TripGenerator& operator=(const TripGenerator&) = delete;

  /// Generates the full corpus (chronologically ordered by departure time).
  std::vector<Trajectory> Generate();

  /// Generates a single trip from `src` to `dst` departing at `depart`,
  /// using driver `driver`'s route preference. Returns an empty trajectory
  /// when no route exists.
  Trajectory GenerateTrip(int64_t driver, int64_t src, int64_t dst,
                          int64_t depart);

  /// The driver's home/work anchor segments (exposed for tests/examples).
  int64_t HomeAnchor(int64_t driver) const;
  int64_t WorkAnchor(int64_t driver) const;

 private:
  int64_t SampleNear(int64_t anchor, common::Rng* rng) const;
  int64_t SampleDepartureTime(int64_t day, common::Rng* rng,
                              bool* is_commute_morning,
                              bool* is_commute_evening) const;

  const TrafficModel* traffic_;
  const roadnet::RoadNetwork* net_;
  Config config_;
  common::Rng rng_;
  std::vector<int64_t> home_anchor_;
  std::vector<int64_t> work_anchor_;
  std::vector<uint64_t> driver_seed_;
  /// Free-flow lowering of the network and one reusable Dijkstra over it.
  /// Per-trip weights rule out contraction hierarchies, so each trip runs
  /// router_ with a hook that prices arcs at the driver-preference and noise
  /// weights, quantized by graph_.SecondsToCost (src/roadnet/README.md,
  /// "Why integer costs").
  roadnet::CsrGraph graph_;
  roadnet::CsrDijkstra router_;
  /// anchor segment -> segments within zone_radius_m (SampleNear scans the
  /// network once per distinct anchor instead of once per call).
  mutable std::map<int64_t, std::vector<int64_t>> zone_cache_;
};

}  // namespace start::traj

#endif  // START_TRAJ_TRIP_GENERATOR_H_
