#ifndef START_ROADNET_CSR_GRAPH_H_
#define START_ROADNET_CSR_GRAPH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "roadnet/road_network.h"

namespace start::roadnet {

/// \brief Integer path cost in fixed-point "cost units" (milliseconds of
/// travel time at the default scale; see CsrGraphOptions::cost_scale).
///
/// Integer addition is exact, so a contraction-hierarchy distance is
/// *identical* to the Dijkstra distance over the same weights. The cost
/// model, the quantizer and the hook contract are documented once, in
/// src/roadnet/README.md, "Why integer costs".
using Cost = int64_t;

/// Unreachable sentinel. Far below INT64_MAX so relaxations cannot overflow.
constexpr Cost kInfCost = std::numeric_limits<int64_t>::max() / 4;

/// Per-segment traversal cost in seconds. Must be positive.
using SegmentWeightFn = std::function<double(int64_t segment)>;

/// Per-call arc-cost hook for CsrDijkstra: sees the arc (tail -> head) and
/// its stored weight and returns the Cost to relax it with (positive, from
/// CsrGraph::SecondsToCost), or kInfCost to skip it.
using ArcCostFn = std::function<Cost(int32_t tail, int32_t head, Cost weight)>;

struct CsrGraphOptions {
  /// Fixed-point scale: a segment weight of `w` seconds becomes
  /// llround(w * cost_scale) cost units. 1000.0 == millisecond resolution.
  double cost_scale = 1000.0;
};

/// A path over CSR node ids plus its total cost (source node cost included;
/// see src/roadnet/README.md, "Why integer costs").
struct CsrPath {
  std::vector<int32_t> nodes;
  Cost cost = 0;
};

/// \brief Immutable, cache-friendly CSR lowering of a RoadNetwork for the
/// shortest-path plane.
///
/// Differences from the adjacency RoadNetwork itself keeps:
///  - nodes are renumbered by descending total degree (ties by ascending
///    segment id — a stable, deterministic order), so the hubs every search
///    touches share cache lines; the old<->new id maps are kept;
///  - heads are int32 and weights are pre-quantized integer Costs, so one
///    arc is 12 bytes instead of a 8-byte id plus a weight-function call;
///  - both out- and in-adjacency are materialized (the in-side drives
///    contraction and backward searches).
///
/// Cost model: arc (u -> v) carries quantized weight(v) and queries add
/// node_cost(src) once, so a path pays every segment once, source included
/// (src/roadnet/README.md, "Why integer costs").
class CsrGraph {
 public:
  /// Lowers a finalized network under the given per-segment weight
  /// (seconds). Weights must be positive.
  static CsrGraph FromNetwork(const RoadNetwork& net,
                              const SegmentWeightFn& weight,
                              const CsrGraphOptions& options = {});

  /// Convenience: free-flow travel-time metric (the detour / ETA metric).
  static CsrGraph FromNetworkFreeFlow(const RoadNetwork& net,
                                      const CsrGraphOptions& options = {});

  int32_t num_nodes() const { return num_nodes_; }
  int64_t num_arcs() const { return static_cast<int64_t>(out_heads_.size()); }

  /// Old -> new: CSR node id of a segment.
  int32_t ToNode(int64_t segment) const {
    return to_node_[static_cast<size_t>(segment)];
  }
  /// New -> old: segment id of a CSR node.
  int64_t ToSegment(int32_t node) const {
    return to_segment_[static_cast<size_t>(node)];
  }
  /// Translates a CSR path back to segment ids (old numbering).
  std::vector<int64_t> ToSegments(const std::vector<int32_t>& nodes) const;

  /// Quantized weight of the node itself (paid once when a path starts).
  Cost node_cost(int32_t node) const {
    return node_cost_[static_cast<size_t>(node)];
  }

  double CostToSeconds(Cost c) const {
    return static_cast<double>(c) / options_.cost_scale;
  }
  /// The plane's one quantizer: llround(seconds * cost_scale), at least 1.
  /// FromNetwork prices stored weights with it; ArcCostFn hooks must too.
  Cost SecondsToCost(double seconds) const;
  const CsrGraphOptions& options() const { return options_; }

  // Raw CSR spans (hot-loop iteration; heads are sorted per tail).
  const int64_t* out_offsets() const { return out_offsets_.data(); }
  const int32_t* out_heads() const { return out_heads_.data(); }
  const Cost* out_weights() const { return out_weights_.data(); }
  const int64_t* in_offsets() const { return in_offsets_.data(); }
  const int32_t* in_tails() const { return in_tails_.data(); }
  const Cost* in_weights() const { return in_weights_.data(); }

  int64_t OutDegree(int32_t v) const {
    return out_offsets_[static_cast<size_t>(v) + 1] -
           out_offsets_[static_cast<size_t>(v)];
  }
  int64_t InDegree(int32_t v) const {
    return in_offsets_[static_cast<size_t>(v) + 1] -
           in_offsets_[static_cast<size_t>(v)];
  }

 private:
  CsrGraph() = default;

  int32_t num_nodes_ = 0;
  CsrGraphOptions options_;
  std::vector<int32_t> to_node_;    ///< segment id -> CSR node.
  std::vector<int64_t> to_segment_; ///< CSR node -> segment id.
  std::vector<Cost> node_cost_;
  std::vector<int64_t> out_offsets_;
  std::vector<int32_t> out_heads_;
  std::vector<Cost> out_weights_;
  std::vector<int64_t> in_offsets_;
  std::vector<int32_t> in_tails_;
  std::vector<Cost> in_weights_;
};

/// \brief Exact point-to-point Dijkstra over a CsrGraph with a persistent
/// workspace: timestamp-versioned distance labels mean queries after the
/// first are allocation-free and pay only for the region actually searched.
///
/// This is the repo's only Dijkstra: the reference the contraction
/// hierarchy is tested (and gated) against, and — through an ArcCostFn
/// hook — the router for metrics that cannot be preprocessed (the trip
/// generator's per-trip weights, Yen's spur bans). Searches without a hook
/// read the stored weights directly. Not thread-safe; one instance per
/// thread.
class CsrDijkstra {
 public:
  explicit CsrDijkstra(const CsrGraph* graph);

  /// Cost of the cheapest s->t path (node_cost(s) included), kInfCost when
  /// unreachable. A non-empty `arc_cost` prices every relaxed arc; the
  /// source still pays node_cost(s).
  Cost Distance(int32_t src, int32_t dst, const ArcCostFn& arc_cost = {});

  /// Cheapest path; nullopt when unreachable.
  std::optional<CsrPath> Route(int32_t src, int32_t dst,
                               const ArcCostFn& arc_cost = {});

  const CsrGraph& graph() const { return *graph_; }

 private:
  /// Runs Dijkstra from src until dst is settled (or the reachable region
  /// is exhausted), pricing arcs with `arc_cost(tail, head, stored weight)`.
  template <typename ArcCost>
  void Run(int32_t src, int32_t dst, const ArcCost& arc_cost);
  void Reset();

  const CsrGraph* graph_;
  std::vector<Cost> dist_;
  std::vector<int32_t> parent_;
  std::vector<uint32_t> stamp_;
  uint32_t cur_stamp_ = 0;
  // Binary heap of (dist, node); lazily deleted stale entries.
  std::vector<std::pair<Cost, int32_t>> heap_;
};

/// \brief Yen's k shortest loopless paths [30] from src to dst (CSR node
/// ids): the reference detour search of Sec. IV-D4. Spur searches run on
/// one CsrDijkstra whose hook prices banned arcs and root nodes at kInfCost.
///
/// Ordering contract: sorted by (cost, lexicographic *segment-id* sequence),
/// so equal-cost paths come out in the same order on any platform and
/// under any CSR renumbering. The first entry is a shortest path.
std::vector<CsrPath> KShortestPaths(const CsrGraph& graph, int32_t src,
                                    int32_t dst, int64_t k);

}  // namespace start::roadnet

#endif  // START_ROADNET_CSR_GRAPH_H_
