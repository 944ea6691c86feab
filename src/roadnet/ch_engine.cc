#include "roadnet/ch_engine.h"

#include <algorithm>
#include <queue>
#include <tuple>

#include "common/check.h"

namespace start::roadnet {

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One arc of the mutable overlay graph maintained during contraction.
/// `arc` indexes the arena entry currently realizing this (tail, head) pair
/// (updated in place when a cheaper shortcut supersedes it).
struct OverlayArc {
  int32_t nb = -1;
  Cost w = kInfCost;
  int32_t arc = -1;
};

/// \brief Contraction-time state: the overlay graph over uncontracted nodes
/// plus the capped witness-search workspace. Lives only inside Build().
class Contractor {
 public:
  /// Builds the overlay from the arena, which holds exactly the original
  /// arcs (see ChEngine::AddOriginalArcs).
  Contractor(int32_t n, const ChOptions& options,
             std::vector<int32_t>* arc_tail, std::vector<int32_t>* arc_head,
             std::vector<Cost>* arc_weight, std::vector<int32_t>* arc_skip1,
             std::vector<int32_t>* arc_skip2)
      : options_(options),
        arc_tail_(arc_tail),
        arc_head_(arc_head),
        arc_weight_(arc_weight),
        arc_skip1_(arc_skip1),
        arc_skip2_(arc_skip2) {
    out_.resize(static_cast<size_t>(n));
    in_.resize(static_cast<size_t>(n));
    contracted_.assign(static_cast<size_t>(n), 0);
    contracted_neighbors_.assign(static_cast<size_t>(n), 0);
    depth_.assign(static_cast<size_t>(n), 0);
    wdist_.assign(static_cast<size_t>(n), kInfCost);
    wstamp_.assign(static_cast<size_t>(n), 0);
    for (size_t a = 0; a < arc_tail_->size(); ++a) {
      const int32_t t = (*arc_tail_)[a];
      const int32_t h = (*arc_head_)[a];
      const Cost w = (*arc_weight_)[a];
      out_[static_cast<size_t>(t)].push_back({h, w, static_cast<int32_t>(a)});
      in_[static_cast<size_t>(h)].push_back({t, w, static_cast<int32_t>(a)});
    }
  }

  bool contracted(int32_t v) const {
    return contracted_[static_cast<size_t>(v)] != 0;
  }

  /// 2 * edge_difference + contracted_neighbors + hierarchy_depth. The depth
  /// term (longest chain of already-contracted neighbors below v) is what
  /// keeps the order nested-dissection-like on grid networks: without it the
  /// greedy edge-difference order contracts dense frontiers late and the top
  /// of the hierarchy degenerates into a near-clique of shortcuts.
  int64_t Priority(int32_t v) {
    const int64_t removed =
        static_cast<int64_t>(out_[static_cast<size_t>(v)].size()) +
        static_cast<int64_t>(in_[static_cast<size_t>(v)].size());
    const int64_t shortcuts = ProcessShortcuts(v, /*apply=*/false);
    return 2 * (shortcuts - removed) +
           contracted_neighbors_[static_cast<size_t>(v)] +
           depth_[static_cast<size_t>(v)];
  }

  /// Contracts `v`: inserts the required shortcuts, bumps the
  /// contracted-neighbors term of every surviving neighbor, and detaches `v`
  /// from the overlay. The detach keeps the invariant that adjacency lists
  /// only ever hold *live* nodes — without it every later scan and witness
  /// search wades through dead arcs, contraction degrades quadratically, and
  /// the truncated witness searches flood the hierarchy with shortcuts.
  void Contract(int32_t v) {
    ProcessShortcuts(v, /*apply=*/true);
    contracted_[static_cast<size_t>(v)] = 1;
    const int64_t below = depth_[static_cast<size_t>(v)] + 1;
    for (const OverlayArc& a : out_[static_cast<size_t>(v)]) {
      if (contracted(a.nb)) continue;
      ++contracted_neighbors_[static_cast<size_t>(a.nb)];
      depth_[static_cast<size_t>(a.nb)] =
          std::max(depth_[static_cast<size_t>(a.nb)], below);
      EraseArcTo(&in_[static_cast<size_t>(a.nb)], v);
    }
    for (const OverlayArc& a : in_[static_cast<size_t>(v)]) {
      if (contracted(a.nb)) continue;
      ++contracted_neighbors_[static_cast<size_t>(a.nb)];
      depth_[static_cast<size_t>(a.nb)] =
          std::max(depth_[static_cast<size_t>(a.nb)], below);
      EraseArcTo(&out_[static_cast<size_t>(a.nb)], v);
    }
    out_[static_cast<size_t>(v)] = {};
    in_[static_cast<size_t>(v)] = {};
  }

 private:
  /// Removes the (unique) overlay arc toward `nb`, swap-and-pop.
  static void EraseArcTo(std::vector<OverlayArc>* arcs, int32_t nb) {
    for (size_t i = 0; i < arcs->size(); ++i) {
      if ((*arcs)[i].nb == nb) {
        (*arcs)[i] = arcs->back();
        arcs->pop_back();
        return;
      }
    }
  }

  /// Counts (and with `apply`, materializes) the shortcuts contraction of
  /// `v` requires. A shortcut (u, x) is needed unless a capped witness
  /// search certifies a u->x path avoiding v of cost <= w(u,v) + w(v,x);
  /// a search truncated by the cap conservatively adds the shortcut.
  int64_t ProcessShortcuts(int32_t v, bool apply) {
    // Snapshot the live out-arcs of v (targets of potential shortcuts).
    targets_.clear();
    Cost max_wvx = 0;
    for (const OverlayArc& a : out_[static_cast<size_t>(v)]) {
      if (contracted(a.nb)) continue;
      targets_.push_back(a);
      max_wvx = std::max(max_wvx, a.w);
    }
    if (targets_.empty()) return 0;
    int64_t count = 0;
    for (const OverlayArc& ia : in_[static_cast<size_t>(v)]) {
      if (contracted(ia.nb) || ia.nb == v) continue;
      const int32_t u = ia.nb;
      WitnessSearch(u, v, ia.w + max_wvx);
      for (const OverlayArc& oa : targets_) {
        const int32_t x = oa.nb;
        if (x == u) continue;
        const Cost direct = ia.w + oa.w;
        if (wstamp_[static_cast<size_t>(x)] == wcur_ &&
            wdist_[static_cast<size_t>(x)] <= direct) {
          continue;  // witnessed
        }
        ++count;
        if (apply) AddShortcut(u, x, direct, ia.arc, oa.arc);
      }
    }
    return count;
  }

  /// Dijkstra from `u` over uncontracted overlay nodes, skipping `banned`,
  /// stopping after options_.witness_settle_limit settles or when the next
  /// label exceeds `bound`.
  void WitnessSearch(int32_t u, int32_t banned, Cost bound) {
    ++wcur_;
    if (wcur_ == 0) {
      std::fill(wstamp_.begin(), wstamp_.end(), 0);
      wcur_ = 1;
    }
    wheap_.clear();
    wdist_[static_cast<size_t>(u)] = 0;
    wstamp_[static_cast<size_t>(u)] = wcur_;
    wheap_.emplace_back(0, u);
    int64_t settled = 0;
    while (!wheap_.empty()) {
      std::pop_heap(wheap_.begin(), wheap_.end(),
                    std::greater<std::pair<Cost, int32_t>>());
      const auto [d, node] = wheap_.back();
      wheap_.pop_back();
      if (wstamp_[static_cast<size_t>(node)] != wcur_ ||
          d > wdist_[static_cast<size_t>(node)]) {
        continue;
      }
      if (d > bound || ++settled > options_.witness_settle_limit) return;
      for (const OverlayArc& a : out_[static_cast<size_t>(node)]) {
        if (a.nb == banned || contracted(a.nb)) continue;
        const Cost nd = d + a.w;
        if (wstamp_[static_cast<size_t>(a.nb)] != wcur_ ||
            nd < wdist_[static_cast<size_t>(a.nb)]) {
          wstamp_[static_cast<size_t>(a.nb)] = wcur_;
          wdist_[static_cast<size_t>(a.nb)] = nd;
          wheap_.emplace_back(nd, a.nb);
          std::push_heap(wheap_.begin(), wheap_.end(),
                         std::greater<std::pair<Cost, int32_t>>());
        }
      }
    }
  }

  void AddShortcut(int32_t u, int32_t x, Cost w, int32_t skip1,
                   int32_t skip2) {
    // A cheaper overlay arc u->x may already exist (added after the witness
    // cap truncated the search) — then the shortcut is redundant.
    OverlayArc* existing = nullptr;
    for (OverlayArc& a : out_[static_cast<size_t>(u)]) {
      if (a.nb == x) {
        existing = &a;
        break;
      }
    }
    if (existing != nullptr && existing->w <= w) return;
    const int32_t arc = static_cast<int32_t>(arc_tail_->size());
    arc_tail_->push_back(u);
    arc_head_->push_back(x);
    arc_weight_->push_back(w);
    arc_skip1_->push_back(skip1);
    arc_skip2_->push_back(skip2);
    if (existing != nullptr) {
      existing->w = w;
      existing->arc = arc;
      for (OverlayArc& a : in_[static_cast<size_t>(x)]) {
        if (a.nb == u) {
          a.w = w;
          a.arc = arc;
          break;
        }
      }
    } else {
      out_[static_cast<size_t>(u)].push_back({x, w, arc});
      in_[static_cast<size_t>(x)].push_back({u, w, arc});
    }
  }

  const ChOptions options_;
  std::vector<int32_t>* arc_tail_;
  std::vector<int32_t>* arc_head_;
  std::vector<Cost>* arc_weight_;
  std::vector<int32_t>* arc_skip1_;
  std::vector<int32_t>* arc_skip2_;

  std::vector<std::vector<OverlayArc>> out_, in_;
  std::vector<uint8_t> contracted_;
  std::vector<int64_t> contracted_neighbors_;
  std::vector<int64_t> depth_;  ///< Hierarchy depth below each live node.
  std::vector<OverlayArc> targets_;

  // Witness workspace (stamp-versioned).
  std::vector<Cost> wdist_;
  std::vector<uint32_t> wstamp_;
  uint32_t wcur_ = 0;
  std::vector<std::pair<Cost, int32_t>> wheap_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

ChEngine ChEngine::Build(const CsrGraph* graph, const ChOptions& options) {
  START_CHECK(graph != nullptr);
  ChEngine e;
  e.graph_ = graph;
  e.num_nodes_ = graph->num_nodes();
  const int32_t n = e.num_nodes_;
  e.rank_.assign(static_cast<size_t>(n), -1);

  e.AddOriginalArcs();
  Contractor c(n, options, &e.arc_tail_, &e.arc_head_, &e.arc_weight_,
               &e.arc_skip1_, &e.arc_skip2_);

  // Lazy min-heap over (priority, seeded hash, node). The hash term makes
  // the order deterministic for a given seed yet uncorrelated with node ids.
  using Key = std::tuple<int64_t, uint64_t, int32_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
  std::vector<uint64_t> tiebreak(static_cast<size_t>(n));
  for (int32_t v = 0; v < n; ++v) {
    tiebreak[static_cast<size_t>(v)] =
        Mix64(options.seed ^ static_cast<uint64_t>(v));
    heap.emplace(c.Priority(v), tiebreak[static_cast<size_t>(v)], v);
  }
  int32_t rank = 0;
  while (!heap.empty()) {
    const auto [prio, tb, v] = heap.top();
    heap.pop();
    if (c.contracted(v)) continue;
    const int64_t fresh = c.Priority(v);
    if (!heap.empty() &&
        Key(fresh, tb, v) > heap.top()) {  // stale — requeue and retry
      heap.emplace(fresh, tb, v);
      continue;
    }
    c.Contract(v);
    e.rank_[static_cast<size_t>(v)] = rank++;
  }
  START_CHECK_EQ(rank, n);
  e.BuildSearchGraphs();
  return e;
}

void ChEngine::AddOriginalArcs() {
  const int64_t* offsets = graph_->out_offsets();
  const int32_t* heads = graph_->out_heads();
  const Cost* weights = graph_->out_weights();
  for (int32_t v = 0; v < num_nodes_; ++v) {
    for (int64_t k = offsets[v]; k < offsets[v + 1]; ++k) {
      if (heads[k] == v) continue;  // self-loops never lie on a cheapest path
      arc_tail_.push_back(v);
      arc_head_.push_back(heads[k]);
      arc_weight_.push_back(weights[k]);
      arc_skip1_.push_back(-1);
      arc_skip2_.push_back(-1);
    }
  }
  num_original_arcs_ = static_cast<int64_t>(arc_tail_.size());
}

void ChEngine::BuildSearchGraphs() {
  const int32_t n = num_nodes_;
  const int64_t m = static_cast<int64_t>(arc_tail_.size());
  // The search graphs live in *rank space*: row r holds the upward arcs of
  // the node with contraction rank r, and the flattened endpoint streams
  // store ranks too. Queries spend nearly all their time near the top of
  // the hierarchy, so rank-contiguous ids concentrate the hot slices of the
  // label arrays and adjacency rows into a few cache lines.
  order_.assign(static_cast<size_t>(n), -1);
  for (int32_t v = 0; v < n; ++v) {
    order_[static_cast<size_t>(rank_[static_cast<size_t>(v)])] = v;
  }
  up_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  down_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t a = 0; a < m; ++a) {
    const int32_t t = arc_tail_[static_cast<size_t>(a)];
    const int32_t h = arc_head_[static_cast<size_t>(a)];
    if (t == h) continue;
    if (rank_[static_cast<size_t>(h)] > rank_[static_cast<size_t>(t)]) {
      ++up_offsets_[static_cast<size_t>(rank_[static_cast<size_t>(t)]) + 1];
    } else {
      ++down_offsets_[static_cast<size_t>(rank_[static_cast<size_t>(h)]) + 1];
    }
  }
  for (int32_t i = 0; i < n; ++i) {
    up_offsets_[static_cast<size_t>(i) + 1] +=
        up_offsets_[static_cast<size_t>(i)];
    down_offsets_[static_cast<size_t>(i) + 1] +=
        down_offsets_[static_cast<size_t>(i)];
  }
  up_arcs_.resize(static_cast<size_t>(up_offsets_[static_cast<size_t>(n)]));
  down_arcs_.resize(
      static_cast<size_t>(down_offsets_[static_cast<size_t>(n)]));
  std::vector<int64_t> ucur(up_offsets_.begin(), up_offsets_.end() - 1);
  std::vector<int64_t> dcur(down_offsets_.begin(), down_offsets_.end() - 1);
  for (int64_t a = 0; a < m; ++a) {
    const int32_t t = arc_tail_[static_cast<size_t>(a)];
    const int32_t h = arc_head_[static_cast<size_t>(a)];
    if (t == h) continue;
    if (rank_[static_cast<size_t>(h)] > rank_[static_cast<size_t>(t)]) {
      up_arcs_[static_cast<size_t>(
          ucur[static_cast<size_t>(rank_[static_cast<size_t>(t)])]++)] =
          static_cast<int32_t>(a);
    } else {
      down_arcs_[static_cast<size_t>(
          dcur[static_cast<size_t>(rank_[static_cast<size_t>(h)])]++)] =
          static_cast<int32_t>(a);
    }
  }

  // The arena keeps every shortcut ever admitted, including ones later
  // superseded by a cheaper parallel shortcut over the same (tail, head).
  // Superseded arcs can never lie on a cheapest path, so drop them from the
  // search graphs: sort each row by (endpoint, weight, arc id) and keep the
  // lightest arc per endpoint. Purely a query-side compaction — the arena
  // (and num_shortcuts()) is unchanged.
  const auto compact = [&](std::vector<int64_t>& offsets,
                           std::vector<int32_t>& arcs, bool by_head) {
    const std::vector<int32_t>& other_of = by_head ? arc_head_ : arc_tail_;
    size_t w = 0;
    int64_t row_begin = 0;
    for (int32_t v = 0; v < n; ++v) {
      const int64_t b = row_begin, e = offsets[static_cast<size_t>(v) + 1];
      row_begin = e;
      std::sort(arcs.begin() + b, arcs.begin() + e,
                [&](int32_t x, int32_t y) {
                  const int32_t ox = other_of[static_cast<size_t>(x)];
                  const int32_t oy = other_of[static_cast<size_t>(y)];
                  if (ox != oy) return ox < oy;
                  if (arc_weight_[static_cast<size_t>(x)] !=
                      arc_weight_[static_cast<size_t>(y)]) {
                    return arc_weight_[static_cast<size_t>(x)] <
                           arc_weight_[static_cast<size_t>(y)];
                  }
                  return x < y;
                });
      int32_t prev = -1;
      for (int64_t k = b; k < e; ++k) {
        const int32_t a = arcs[static_cast<size_t>(k)];
        const int32_t other = other_of[static_cast<size_t>(a)];
        if (other == prev) continue;
        prev = other;
        arcs[w++] = a;
      }
      offsets[static_cast<size_t>(v) + 1] = static_cast<int64_t>(w);
    }
    arcs.resize(w);
  };
  compact(up_offsets_, up_arcs_, /*by_head=*/true);
  compact(down_offsets_, down_arcs_, /*by_head=*/false);

  // Flatten the rows into parallel (node, weight) arrays: relaxation then
  // reads two contiguous streams instead of chasing arena ids — on the dense
  // top-of-hierarchy rows this halves the cache misses per settled node.
  up_nodes_.resize(up_arcs_.size());
  up_weights_.resize(up_arcs_.size());
  for (size_t k = 0; k < up_arcs_.size(); ++k) {
    up_nodes_[k] =
        rank_[static_cast<size_t>(arc_head_[static_cast<size_t>(up_arcs_[k])])];
    up_weights_[k] = arc_weight_[static_cast<size_t>(up_arcs_[k])];
  }
  down_nodes_.resize(down_arcs_.size());
  down_weights_.resize(down_arcs_.size());
  for (size_t k = 0; k < down_arcs_.size(); ++k) {
    down_nodes_[k] =
        rank_[static_cast<size_t>(arc_tail_[static_cast<size_t>(down_arcs_[k])])];
    down_weights_[k] = arc_weight_[static_cast<size_t>(down_arcs_[k])];
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void ChEngine::QueryContext::Ensure(int32_t num_nodes) {
  const size_t n = static_cast<size_t>(num_nodes);
  if (dist_f_.size() >= n) return;
  dist_f_.assign(n, kInfCost);
  dist_b_.assign(n, kInfCost);
  parent_f_.assign(n, -1);
  parent_b_.assign(n, -1);
  stamp_f_.assign(n, 0);
  stamp_b_.assign(n, 0);
  seen_.assign(n, 0);
  cur_stamp_ = 0;
}

void ChEngine::QueryContext::Reset() {
  ++cur_stamp_;
  if (cur_stamp_ == 0) {
    std::fill(stamp_f_.begin(), stamp_f_.end(), 0);
    std::fill(stamp_b_.begin(), stamp_b_.end(), 0);
    cur_stamp_ = 1;
  }
}

ChEngine::QueryContext ChEngine::MakeContext() const {
  QueryContext ctx;
  ctx.Ensure(num_nodes_);
  return ctx;
}

void ChEngine::UpwardSearch(int32_t src, bool forward, Cost seed_cost,
                            QueryContext* ctx,
                            std::vector<int32_t>* settled) const {
  std::vector<Cost>& dist = forward ? ctx->dist_f_ : ctx->dist_b_;
  std::vector<int32_t>& parent = forward ? ctx->parent_f_ : ctx->parent_b_;
  std::vector<uint32_t>& stamp = forward ? ctx->stamp_f_ : ctx->stamp_b_;
  const std::vector<int64_t>& offsets = forward ? up_offsets_ : down_offsets_;
  const std::vector<int32_t>& arcs = forward ? up_arcs_ : down_arcs_;
  const std::vector<int32_t>& nodes = forward ? up_nodes_ : down_nodes_;
  const std::vector<Cost>& weights = forward ? up_weights_ : down_weights_;
  const uint32_t cur = ctx->cur_stamp_;

  auto label = [&](int32_t v) -> Cost& {
    if (stamp[static_cast<size_t>(v)] != cur) {
      stamp[static_cast<size_t>(v)] = cur;
      dist[static_cast<size_t>(v)] = kInfCost;
      parent[static_cast<size_t>(v)] = -1;
    }
    return dist[static_cast<size_t>(v)];
  };

  // Labels, heap entries and `settled` output are all in rank space.
  const int32_t rsrc = rank_[static_cast<size_t>(src)];
  ctx->heap_.clear();
  label(rsrc) = seed_cost;
  ctx->heap_.emplace_back(seed_cost, rsrc);
  while (!ctx->heap_.empty()) {
    std::pop_heap(ctx->heap_.begin(), ctx->heap_.end(),
                  std::greater<std::pair<Cost, int32_t>>());
    const auto [d, u] = ctx->heap_.back();
    ctx->heap_.pop_back();
    if (d > label(u)) continue;
    if (settled != nullptr) settled->push_back(u);
    for (int64_t k = offsets[static_cast<size_t>(u)];
         k < offsets[static_cast<size_t>(u) + 1]; ++k) {
      const int32_t a = arcs[static_cast<size_t>(k)];
      const int32_t next = nodes[static_cast<size_t>(k)];
      const Cost nd = d + weights[static_cast<size_t>(k)];
      Cost& dn = label(next);
      if (nd < dn) {
        dn = nd;
        parent[static_cast<size_t>(next)] = a;
        ctx->heap_.emplace_back(nd, next);
        std::push_heap(ctx->heap_.begin(), ctx->heap_.end(),
                       std::greater<std::pair<Cost, int32_t>>());
      }
    }
  }
}

std::vector<int32_t> ChEngine::UnpackUpwardPath(int32_t via, bool forward,
                                                const QueryContext& ctx) const {
  std::vector<int32_t> arcs;
  if (forward) {
    // parent_f_[rank(v)] is the arc (u -> v) the forward search arrived on;
    // walk back to the source, then expand in source -> via order.
    for (int32_t cur = via;
         ctx.parent_f_[static_cast<size_t>(cur)] != -1;) {
      const int32_t a = ctx.parent_f_[static_cast<size_t>(cur)];
      arcs.push_back(a);
      cur = rank_[static_cast<size_t>(arc_tail_[static_cast<size_t>(a)])];
    }
    std::reverse(arcs.begin(), arcs.end());
  } else {
    // parent_b_[rank(u)] is the arc (u -> v) the backward search traversed
    // v -> u; following heads walks via -> target, already in path order.
    for (int32_t cur = via;
         ctx.parent_b_[static_cast<size_t>(cur)] != -1;) {
      const int32_t a = ctx.parent_b_[static_cast<size_t>(cur)];
      arcs.push_back(a);
      cur = rank_[static_cast<size_t>(arc_head_[static_cast<size_t>(a)])];
    }
  }
  std::vector<int32_t> nodes;
  int32_t last = order_[static_cast<size_t>(via)];
  for (const int32_t a : arcs) {
    UnpackArc(a, &nodes);  // appends [tail .. head)
    last = arc_head_[static_cast<size_t>(a)];
  }
  nodes.push_back(last);
  return nodes;
}

void ChEngine::UnpackArc(int32_t arc, std::vector<int32_t>* out) const {
  if (arc_skip1_[static_cast<size_t>(arc)] < 0) {
    out->push_back(arc_tail_[static_cast<size_t>(arc)]);
    return;
  }
  UnpackArc(arc_skip1_[static_cast<size_t>(arc)], out);
  UnpackArc(arc_skip2_[static_cast<size_t>(arc)], out);
}

std::vector<CsrPath> ChEngine::AlternativeRoutes(int32_t src, int32_t dst,
                                                 int64_t max_alternatives,
                                                 QueryContext* ctx) const {
  std::vector<CsrPath> results;
  if (max_alternatives <= 0) return results;
  ctx->Ensure(num_nodes_);
  ctx->Reset();
  ctx->settled_.clear();
  UpwardSearch(src, /*forward=*/true, graph_->node_cost(src), ctx,
               &ctx->settled_);
  UpwardSearch(dst, /*forward=*/false, 0, ctx, nullptr);

  std::vector<std::pair<Cost, int32_t>> candidates;  // (total, via)
  for (const int32_t v : ctx->settled_) {
    if (ctx->stamp_b_[static_cast<size_t>(v)] != ctx->cur_stamp_) continue;
    candidates.emplace_back(ctx->dist_f_[static_cast<size_t>(v)] +
                                ctx->dist_b_[static_cast<size_t>(v)],
                            v);
  }
  std::sort(candidates.begin(), candidates.end());

  std::vector<uint8_t>& seen = ctx->seen_;
  for (const auto& [total, via] : candidates) {
    if (static_cast<int64_t>(results.size()) >= max_alternatives) break;
    CsrPath path;
    path.cost = total;
    path.nodes = UnpackUpwardPath(via, /*forward=*/true, *ctx);
    const std::vector<int32_t> tail =
        UnpackUpwardPath(via, /*forward=*/false, *ctx);
    path.nodes.insert(path.nodes.end(), tail.begin() + 1, tail.end());
    // Reject non-simple paths (the two halves may overlap away from `via`).
    bool simple = true;
    for (const int32_t node : path.nodes) {
      if (seen[static_cast<size_t>(node)]) {
        simple = false;
        break;
      }
      seen[static_cast<size_t>(node)] = 1;
    }
    for (const int32_t node : path.nodes) seen[static_cast<size_t>(node)] = 0;
    if (!simple) continue;
    bool duplicate = false;
    for (const CsrPath& r : results) {
      if (r.nodes == path.nodes) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) results.push_back(std::move(path));
  }
  return results;
}

}  // namespace start::roadnet
