#ifndef START_DATA_DETOUR_H_
#define START_DATA_DETOUR_H_

#include <memory>
#include <optional>

#include "common/rng.h"
#include "roadnet/ch_engine.h"
#include "roadnet/csr_graph.h"
#include "roadnet/road_network.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace start::data {

/// \brief Parameters of the top-k detour ground-truth generator of
/// Sec. IV-D4(a): Nq = 10,000, Nneg = 100,000, pd = 0.2, td = 0.2 at paper
/// scale (the bench harness scales Nq/Nneg down).
struct DetourConfig {
  double select_proportion = 0.2;  ///< pd: max fraction of roads replaced.
  double time_threshold = 0.2;     ///< td: min relative travel-time change.
  int64_t top_k = 8;               ///< Yen candidates examined per query.
};

/// \brief Replaces a random consecutive sub-trajectory with a top-k detour
/// whose travel time differs by more than `time_threshold`, then re-times the
/// spliced trajectory with the congestion model. Returns nullopt when no
/// qualifying alternative exists.
///
/// The Yen reference: candidates come from roadnet::KShortestPaths over
/// `free_flow`, which must be CsrGraph::FromNetworkFreeFlow of
/// `traffic.network()` (built once by the caller, so a call prices only the
/// search).
std::optional<traj::Trajectory> MakeDetour(const traj::TrafficModel& traffic,
                                           const roadnet::CsrGraph& free_flow,
                                           const traj::Trajectory& t,
                                           const DetourConfig& config,
                                           common::Rng* rng);

/// \brief Batched detour generator backed by the contraction-hierarchy
/// engine.
///
/// MakeDetour() runs Yen's algorithm, which re-runs a full Dijkstra per spur
/// node per candidate — fine for a handful of queries, quadratic pain for the
/// Sec. IV-D4 protocol sizes (Nq + Nneg alternatives over the same city).
/// This class builds the free-flow CsrGraph + ChEngine once and answers each
/// query with one bidirectional upward search (ChEngine::AlternativeRoutes),
/// reusing one QueryContext so repeated calls allocate nothing.
///
/// The sub-trajectory selection, time-threshold test and splice/re-time logic
/// are identical to MakeDetour; only the candidate search differs (via-node
/// alternatives instead of Yen's top-k), so outputs satisfy the same
/// contract: a connected trajectory with the original endpoints whose section
/// travel time deviates by more than `time_threshold`. Not thread-safe; use
/// one instance per thread.
class DetourGenerator {
 public:
  DetourGenerator(const traj::TrafficModel* traffic,
                  const DetourConfig& config);

  /// CH-accelerated counterpart of MakeDetour().
  std::optional<traj::Trajectory> Generate(const traj::Trajectory& t,
                                           common::Rng* rng);

  const roadnet::ChEngine& ch() const { return *ch_; }

 private:
  const traj::TrafficModel* traffic_;
  DetourConfig config_;
  std::unique_ptr<roadnet::CsrGraph> graph_;  ///< Free-flow metric.
  std::unique_ptr<roadnet::ChEngine> ch_;
  roadnet::ChEngine::QueryContext ctx_;
};

}  // namespace start::data

#endif  // START_DATA_DETOUR_H_
