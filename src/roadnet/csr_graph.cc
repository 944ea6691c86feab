#include "roadnet/csr_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "common/check.h"

namespace start::roadnet {

CsrGraph CsrGraph::FromNetwork(const RoadNetwork& net,
                               const SegmentWeightFn& weight,
                               const CsrGraphOptions& options) {
  START_CHECK(net.finalized());
  START_CHECK_GT(options.cost_scale, 0.0);
  const int64_t v = net.num_segments();
  START_CHECK_MSG(v < (int64_t{1} << 31), "CsrGraph is int32-indexed");

  CsrGraph g;
  g.options_ = options;
  g.num_nodes_ = static_cast<int32_t>(v);

  // Degree-ordered renumbering: hubs first (descending in+out degree),
  // ties by ascending segment id — stable and deterministic.
  std::vector<int64_t> order(static_cast<size_t>(v));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int64_t da = net.OutDegree(a) + net.InDegree(a);
    const int64_t db = net.OutDegree(b) + net.InDegree(b);
    if (da != db) return da > db;
    return a < b;
  });
  g.to_segment_ = std::move(order);
  g.to_node_.assign(static_cast<size_t>(v), -1);
  for (int32_t n = 0; n < g.num_nodes_; ++n) {
    g.to_node_[static_cast<size_t>(g.to_segment_[static_cast<size_t>(n)])] = n;
  }

  // Quantized node costs (in new numbering).
  g.node_cost_.resize(static_cast<size_t>(v));
  for (int32_t n = 0; n < g.num_nodes_; ++n) {
    g.node_cost_[static_cast<size_t>(n)] =
        g.SecondsToCost(weight(g.to_segment_[static_cast<size_t>(n)]));
  }

  // Out-CSR in the new numbering; heads sorted ascending per tail.
  g.out_offsets_.assign(static_cast<size_t>(v) + 1, 0);
  for (int32_t n = 0; n < g.num_nodes_; ++n) {
    g.out_offsets_[static_cast<size_t>(n) + 1] =
        net.OutDegree(g.to_segment_[static_cast<size_t>(n)]);
  }
  for (int64_t i = 0; i < v; ++i) {
    g.out_offsets_[static_cast<size_t>(i) + 1] +=
        g.out_offsets_[static_cast<size_t>(i)];
  }
  const int64_t e = g.out_offsets_[static_cast<size_t>(v)];
  g.out_heads_.resize(static_cast<size_t>(e));
  g.out_weights_.resize(static_cast<size_t>(e));
  for (int32_t n = 0; n < g.num_nodes_; ++n) {
    int64_t cursor = g.out_offsets_[static_cast<size_t>(n)];
    for (const int64_t to : net.OutSpan(g.to_segment_[static_cast<size_t>(n)])) {
      g.out_heads_[static_cast<size_t>(cursor)] =
          g.to_node_[static_cast<size_t>(to)];
      ++cursor;
    }
    // Heads were appended in old-id order; re-sort in the new numbering so
    // hot loops see monotone targets.
    std::sort(g.out_heads_.begin() + g.out_offsets_[static_cast<size_t>(n)],
              g.out_heads_.begin() + cursor);
    for (int64_t k = g.out_offsets_[static_cast<size_t>(n)]; k < cursor; ++k) {
      g.out_weights_[static_cast<size_t>(k)] =
          g.node_cost_[static_cast<size_t>(g.out_heads_[static_cast<size_t>(k)])];
    }
  }

  // In-CSR (tails of arcs arriving at each node), derived from the out side.
  g.in_offsets_.assign(static_cast<size_t>(v) + 1, 0);
  for (const int32_t head : g.out_heads_) {
    ++g.in_offsets_[static_cast<size_t>(head) + 1];
  }
  for (int64_t i = 0; i < v; ++i) {
    g.in_offsets_[static_cast<size_t>(i) + 1] +=
        g.in_offsets_[static_cast<size_t>(i)];
  }
  g.in_tails_.resize(static_cast<size_t>(e));
  g.in_weights_.resize(static_cast<size_t>(e));
  {
    std::vector<int64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (int32_t n = 0; n < g.num_nodes_; ++n) {
      for (int64_t k = g.out_offsets_[static_cast<size_t>(n)];
           k < g.out_offsets_[static_cast<size_t>(n) + 1]; ++k) {
        const int32_t head = g.out_heads_[static_cast<size_t>(k)];
        const int64_t at = cursor[static_cast<size_t>(head)]++;
        g.in_tails_[static_cast<size_t>(at)] = n;
        g.in_weights_[static_cast<size_t>(at)] =
            g.out_weights_[static_cast<size_t>(k)];
      }
    }
  }
  return g;
}

CsrGraph CsrGraph::FromNetworkFreeFlow(const RoadNetwork& net,
                                       const CsrGraphOptions& options) {
  return FromNetwork(
      net, [&net](int64_t s) { return net.FreeFlowTravelTime(s); }, options);
}

Cost CsrGraph::SecondsToCost(double seconds) const {
  START_CHECK_MSG(seconds > 0.0, "non-positive segment weight " << seconds);
  return std::max<Cost>(
      1, static_cast<Cost>(std::llround(seconds * options_.cost_scale)));
}

std::vector<int64_t> CsrGraph::ToSegments(
    const std::vector<int32_t>& nodes) const {
  std::vector<int64_t> out;
  out.reserve(nodes.size());
  for (const int32_t n : nodes) out.push_back(ToSegment(n));
  return out;
}

// ---------------------------------------------------------------------------
// CsrDijkstra
// ---------------------------------------------------------------------------

CsrDijkstra::CsrDijkstra(const CsrGraph* graph) : graph_(graph) {
  START_CHECK(graph != nullptr);
  const size_t v = static_cast<size_t>(graph->num_nodes());
  dist_.assign(v, kInfCost);
  parent_.assign(v, -1);
  stamp_.assign(v, 0);
}

void CsrDijkstra::Reset() {
  ++cur_stamp_;
  if (cur_stamp_ == 0) {  // stamp wraparound: hard-clear once per 2^32 queries
    std::fill(stamp_.begin(), stamp_.end(), 0);
    cur_stamp_ = 1;
  }
  heap_.clear();
}

template <typename ArcCost>
void CsrDijkstra::Run(int32_t src, int32_t dst, const ArcCost& arc_cost) {
  const int64_t* offsets = graph_->out_offsets();
  const int32_t* heads = graph_->out_heads();
  const Cost* weights = graph_->out_weights();

  auto label = [&](int32_t v) -> Cost& {
    if (stamp_[static_cast<size_t>(v)] != cur_stamp_) {
      stamp_[static_cast<size_t>(v)] = cur_stamp_;
      dist_[static_cast<size_t>(v)] = kInfCost;
      parent_[static_cast<size_t>(v)] = -1;
    }
    return dist_[static_cast<size_t>(v)];
  };

  label(src) = graph_->node_cost(src);
  heap_.emplace_back(graph_->node_cost(src), src);
  std::push_heap(heap_.begin(), heap_.end(),
                 std::greater<std::pair<Cost, int32_t>>());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(),
                  std::greater<std::pair<Cost, int32_t>>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > label(u)) continue;  // stale entry
    if (u == dst) return;
    for (int64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const int32_t nb = heads[k];
      // A skipped arc costs kInfCost, so nd > kInfCost and never relaxes.
      const Cost nd = d + arc_cost(u, nb, weights[k]);
      Cost& dnb = label(nb);
      if (nd < dnb) {
        dnb = nd;
        parent_[static_cast<size_t>(nb)] = u;
        heap_.emplace_back(nd, nb);
        std::push_heap(heap_.begin(), heap_.end(),
                       std::greater<std::pair<Cost, int32_t>>());
      }
    }
  }
}

Cost CsrDijkstra::Distance(int32_t src, int32_t dst,
                           const ArcCostFn& arc_cost) {
  Reset();
  if (arc_cost) {
    Run(src, dst, arc_cost);
  } else {
    Run(src, dst, [](int32_t, int32_t, Cost w) { return w; });
  }
  if (stamp_[static_cast<size_t>(dst)] != cur_stamp_) return kInfCost;
  return dist_[static_cast<size_t>(dst)];
}

std::optional<CsrPath> CsrDijkstra::Route(int32_t src, int32_t dst,
                                          const ArcCostFn& arc_cost) {
  const Cost d = Distance(src, dst, arc_cost);
  if (d >= kInfCost) return std::nullopt;
  CsrPath path;
  path.cost = d;
  for (int32_t cur = dst; cur != -1; cur = parent_[static_cast<size_t>(cur)]) {
    path.nodes.push_back(cur);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

std::vector<CsrPath> KShortestPaths(const CsrGraph& graph, int32_t src,
                                    int32_t dst, int64_t k) {
  START_CHECK_GT(k, 0);
  // (cost, lexicographic segment-id sequence): the ordering contract.
  auto less = [&graph](const CsrPath& a, const CsrPath& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return std::lexicographical_compare(
        a.nodes.begin(), a.nodes.end(), b.nodes.begin(), b.nodes.end(),
        [&graph](int32_t x, int32_t y) {
          return graph.ToSegment(x) < graph.ToSegment(y);
        });
  };
  CsrDijkstra dijkstra(&graph);
  std::vector<CsrPath> found;
  auto first = dijkstra.Route(src, dst);
  if (!first.has_value()) return found;
  found.push_back(std::move(*first));

  // Spur bans: the root prefix's nodes and the next arc of every found path
  // that shares the root.
  std::vector<uint8_t> banned_node(static_cast<size_t>(graph.num_nodes()), 0);
  std::set<std::pair<int32_t, int32_t>> banned_arcs;
  const ArcCostFn spur_cost = [&](int32_t tail, int32_t head, Cost w) {
    return banned_node[static_cast<size_t>(head)] ||
                   banned_arcs.count({tail, head}) > 0
               ? kInfCost
               : w;
  };
  std::set<CsrPath, decltype(less)> candidates(less);
  while (static_cast<int64_t>(found.size()) < k) {
    const std::vector<int32_t>& last = found.back().nodes;
    // Spur from every prefix last[0..i] of the previous k-shortest path.
    Cost root_cost = 0;  // cost of last[0..i-1]
    for (size_t i = 0; i + 1 < last.size(); ++i) {
      banned_arcs.clear();
      for (const CsrPath& p : found) {
        if (p.nodes.size() > i + 1 &&
            std::equal(last.begin(), last.begin() + i + 1, p.nodes.begin())) {
          banned_arcs.insert({p.nodes[i], p.nodes[i + 1]});
        }
      }
      auto spur = dijkstra.Route(last[i], dst, spur_cost);
      if (spur.has_value()) {
        CsrPath total;
        total.nodes.assign(last.begin(), last.begin() + i);
        total.nodes.insert(total.nodes.end(), spur->nodes.begin(),
                           spur->nodes.end());
        total.cost = root_cost + spur->cost;
        candidates.insert(std::move(total));
      }
      root_cost += graph.node_cost(last[i]);
      banned_node[static_cast<size_t>(last[i])] = 1;
    }
    for (const int32_t v : last) banned_node[static_cast<size_t>(v)] = 0;
    // Pop the cheapest candidate not already found.
    bool appended = false;
    while (!candidates.empty() && !appended) {
      CsrPath best = std::move(candidates.extract(candidates.begin()).value());
      appended = std::none_of(
          found.begin(), found.end(),
          [&](const CsrPath& p) { return p.nodes == best.nodes; });
      if (appended) found.push_back(std::move(best));
    }
    if (!appended) break;
  }
  // Yen discovers paths in near-cost order but may emit equal-cost paths in
  // a discovery-dependent order; the final sort makes the output canonical.
  std::sort(found.begin(), found.end(), less);
  return found;
}

}  // namespace start::roadnet
