#ifndef START_ROADNET_CH_ENGINE_H_
#define START_ROADNET_CH_ENGINE_H_

#include <cstdint>
#include <vector>

#include "roadnet/csr_graph.h"

namespace start::roadnet {

struct ChOptions {
  /// Seed mixed into the contraction-order tie-break. Two builds over the
  /// same CsrGraph with the same seed produce bit-identical hierarchies
  /// (same ranks, same shortcut arena).
  uint64_t seed = 0x5354415254ULL;  // "START"

  /// Settled-node cap per witness search. Smaller caps make preprocessing
  /// faster but admit more (redundant) shortcuts; correctness is unaffected
  /// because a missed witness only ever *adds* arcs, never drops one. The
  /// cost bound usually terminates a search well before this cap; the cap
  /// only bounds the tail on dense late-contraction overlays.
  int64_t witness_settle_limit = 256;
};

/// \brief Contraction-hierarchy engine over an immutable CsrGraph.
///
/// Preprocessing contracts nodes in a deterministic seeded order driven by a
/// lazy priority queue over 2*edge_difference + contracted_neighbors
/// (ties broken by a seeded hash, then node id). Contracting node v inserts a
/// shortcut arc (u, x) whenever the capped witness search cannot certify a
/// path u -> x avoiding v that is no longer than w(u,v) + w(v,x). Every arc —
/// original or shortcut — lives in one flat arena; shortcuts remember the two
/// constituent arcs (skip1/skip2), so path unpacking is a branch-free
/// recursion with no map lookups.
///
/// The one query, AlternativeRoutes, runs two exhaustive upward searches
/// (forward from s over arcs into higher-ranked nodes, backward from t over
/// reversed such arcs) and proposes every node both settle as a via node.
/// Because costs are integer (see roadnet::Cost), its leading path costs
/// *exactly* what CsrDijkstra finds over the same graph — the tests assert
/// equality, not approximate parity.
///
/// The engine itself is immutable after Build; all query state lives in an
/// explicit QueryContext, so any number of threads may query one engine
/// concurrently, each with its own context.
class ChEngine {
 public:
  /// Per-thread query workspace (timestamp-versioned labels). It holds every
  /// array that scales with the graph, so after the first query no per-call
  /// allocation does. Obtain via MakeContext().
  class QueryContext {
   public:
    QueryContext() = default;

   private:
    friend class ChEngine;
    void Ensure(int32_t num_nodes);
    void Reset();

    std::vector<Cost> dist_f_, dist_b_;
    std::vector<int32_t> parent_f_, parent_b_;  ///< Arena arc ids, -1 at root.
    std::vector<uint32_t> stamp_f_, stamp_b_;
    uint32_t cur_stamp_ = 0;
    std::vector<std::pair<Cost, int32_t>> heap_;
    std::vector<int32_t> settled_;  ///< Scratch: nodes settled by a search.
    /// Scratch: nodes of the candidate path being checked for simplicity;
    /// all zero between checks (cleared through the nodes it marked).
    std::vector<uint8_t> seen_;
  };

  /// Builds the hierarchy. `graph` must outlive the engine.
  static ChEngine Build(const CsrGraph* graph, const ChOptions& options = {});

  QueryContext MakeContext() const;

  /// \brief Up to `max_alternatives` distinct simple s->t paths via the
  /// via-node method: every node settled by both upward searches proposes the
  /// path s -> via -> t. Results are sorted by cost (ties by via rank) and
  /// deduplicated; the first entry is always an exact shortest path, whose
  /// cost (node_cost(src) included) equals CsrDijkstra::Distance. Returns an
  /// empty vector when t is unreachable. No per-call allocation scales with
  /// the graph: the only allocations are the candidate paths (path-sized)
  /// and the via-candidate list.
  std::vector<CsrPath> AlternativeRoutes(int32_t src, int32_t dst,
                                         int64_t max_alternatives,
                                         QueryContext* ctx) const;

  int32_t num_nodes() const { return num_nodes_; }
  /// Shortcut arcs added by preprocessing (arena size minus original arcs).
  int64_t num_shortcuts() const {
    return static_cast<int64_t>(arc_tail_.size()) - num_original_arcs_;
  }
  /// Contraction rank of a node (0 = contracted first).
  int32_t Rank(int32_t node) const { return rank_[static_cast<size_t>(node)]; }

 private:
  ChEngine() = default;

  /// Seeds the arena with the graph's arcs in CSR order, self-loops skipped.
  void AddOriginalArcs();

  /// Builds the up_/down_ search graphs from rank_ + the arc arena.
  void BuildSearchGraphs();

  /// Upward search from `src` on the forward (`forward=true`, arcs to higher
  /// rank) or backward (reversed arcs from higher rank) side. Fills the
  /// corresponding dist/parent labels of `ctx` for every settled node and,
  /// when `settled` is non-null, appends each settled node to it. Runs to
  /// exhaustion — required by the via-node algorithm (AlternativeRoutes),
  /// which consumes every upward label. Labels, heap entries and `settled`
  /// are in rank space (see BuildSearchGraphs); `src` is a node id.
  void UpwardSearch(int32_t src, bool forward, Cost seed_cost,
                    QueryContext* ctx, std::vector<int32_t>* settled) const;

  /// Appends the fully unpacked node sequence of arena arc `arc` to `out`
  /// (tail inclusive, head exclusive).
  void UnpackArc(int32_t arc, std::vector<int32_t>* out) const;

  /// Reconstructs the s->via (forward) or via->t (backward) node path from
  /// the parent labels in `ctx`. `via` is a rank; the result holds node ids.
  std::vector<int32_t> UnpackUpwardPath(int32_t via, bool forward,
                                        const QueryContext& ctx) const;

  const CsrGraph* graph_ = nullptr;
  int32_t num_nodes_ = 0;
  int64_t num_original_arcs_ = 0;

  std::vector<int32_t> rank_;   ///< node -> contraction rank.
  std::vector<int32_t> order_;  ///< rank -> node (inverse of rank_).

  // Arc arena. Arcs [0, num_original_arcs_) mirror the graph's arcs;
  // the rest are shortcuts. skip1/skip2 are arena ids of the two
  // constituent arcs (-1/-1 for original arcs).
  std::vector<int32_t> arc_tail_, arc_head_;
  std::vector<Cost> arc_weight_;
  std::vector<int32_t> arc_skip1_, arc_skip2_;

  // Upward search graphs (arena arc ids, grouped per node).
  // up_: arcs (v -> w) with Rank(w) > Rank(v), grouped by v — forward side.
  // down_: arcs (u -> v) with Rank(u) > Rank(v), grouped by v — backward side
  // (traversed v -> u).
  std::vector<int64_t> up_offsets_, down_offsets_;
  std::vector<int32_t> up_arcs_, down_arcs_;
  // Flattened copies of the rows above — (node, weight) streams so the hot
  // query loops touch contiguous memory instead of chasing arena ids.
  // up_nodes_[k] is the head of up_arcs_[k]; down_nodes_[k] the tail of
  // down_arcs_[k] (the node the backward traversal reaches).
  std::vector<int32_t> up_nodes_, down_nodes_;
  std::vector<Cost> up_weights_, down_weights_;
};

}  // namespace start::roadnet

#endif  // START_ROADNET_CH_ENGINE_H_
