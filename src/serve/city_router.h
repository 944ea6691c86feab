#ifndef START_SERVE_CITY_ROUTER_H_
#define START_SERVE_CITY_ROUTER_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "roadnet/graph_registry.h"
#include "serve/index_interface.h"
#include "serve/stream_pipeline.h"

namespace start::serve {

/// \brief Multi-city serving front end: routes streaming ingestion, ANN
/// queries, and travel-time estimates to the right city's graph plane and
/// serving lane, so one process serves any number of cities.
///
/// The graph side (RoadNetwork + CsrGraph + ChEngine) comes from a
/// roadnet::GraphRegistry; the serving side (frozen encoder, ANN index,
/// streaming pipeline) is opened per city with OpenCity(). A lane's
/// pipeline map-matches against its own city's network, so trajectories
/// from different cities never mix.
///
/// Thread-safety: OpenCity/Push/Query/TravelTimeSeconds/Flush/stats may be
/// called concurrently from any number of threads. Push/Query on one city
/// proceed while another city is being opened.
class CityRouter {
 public:
  /// Serving dependencies of one city. The lane shares ownership of
  /// `encoder` and `index`; the encoder must have been trained/loaded
  /// against the city's own road network.
  struct CityConfig {
    std::shared_ptr<const FrozenEncoder> encoder;
    std::shared_ptr<IndexInterface> index;
    StreamConfig stream;
  };

  /// `registry` must outlive the router.
  explicit CityRouter(const roadnet::GraphRegistry* registry);
  ~CityRouter();

  CityRouter(const CityRouter&) = delete;
  CityRouter& operator=(const CityRouter&) = delete;

  /// Opens a serving lane for a city already present in the registry.
  /// kNotFound if the registry has no such city, kAlreadyExists if a lane is
  /// already open, kInvalidArgument on null encoder/index.
  common::Status OpenCity(const std::string& city, CityConfig config);

  /// Routes one GPS trajectory into `city`'s streaming pipeline.
  common::Status Push(std::string_view city, StreamItem item);

  /// k-nearest-neighbour query against `city`'s index.
  common::Result<std::vector<Neighbor>> Query(std::string_view city,
                                              const std::vector<float>& query,
                                              int64_t k) const;

  /// Exact free-flow travel time (seconds) between two road segments of
  /// `city`, answered by the city's contraction hierarchy. kNotFound for an
  /// unknown city or unreachable pair, kOutOfRange for bad segment ids.
  common::Result<double> TravelTimeSeconds(std::string_view city,
                                           int64_t from_segment,
                                           int64_t to_segment) const;

  /// Blocks until every accepted item of `city` is ingested.
  common::Status Flush(std::string_view city);

  /// Pipeline counters of one city's lane.
  common::Result<PipelineStats> Stats(std::string_view city) const;

  /// Cities with an open serving lane, sorted.
  std::vector<std::string> Cities() const;

 private:
  struct Lane {
    std::shared_ptr<const roadnet::CityGraph> graph;
    CityConfig config;
    std::unique_ptr<StreamPipeline> pipeline;
    // Reusable CH query contexts (O(|V|) each); guarded by ctx_mu.
    std::mutex ctx_mu;
    std::vector<roadnet::ChEngine::QueryContext> contexts;
  };

  std::shared_ptr<Lane> GetLane(std::string_view city) const;

  const roadnet::GraphRegistry* registry_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<Lane>, std::less<>> lanes_;
};

}  // namespace start::serve

#endif  // START_SERVE_CITY_ROUTER_H_
