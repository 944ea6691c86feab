#ifndef START_SERVE_HNSW_INDEX_H_
#define START_SERVE_HNSW_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/index_interface.h"

namespace start::serve {

/// Knobs of the HNSW graph. Recall and cost both rise with every knob;
/// `ef_search` is the query-time recall/latency dial, the rest shape the
/// graph; all are fixed when the index is built.
struct HnswConfig {
  int64_t M = 16;                ///< Max links per node above level 0 (level 0 keeps 2M).
  int64_t ef_construction = 128; ///< Candidate-pool width while inserting.
  int64_t ef_search = 64;        ///< Floor of the level-0 candidate pool per Query.
  uint64_t seed = 0x5eed;        ///< Level-sampling stream: fixed seed + same insertion order => identical graph.
  /// Floor of the live-ratio ef inflation clamp, in (0, 1]. Query divides
  /// its candidate pool by max(min_live_ratio, 1 - DeadFraction()), so the
  /// default caps inflation at 4x; indexes expected to exceed 75% tombstones
  /// before compaction kicks in should lower this (recall silently drops
  /// once DeadFraction() passes 1 - min_live_ratio otherwise).
  double min_live_ratio = 0.25;
};

/// \brief Approximate sublinear Top-K: a hierarchical navigable small-world
/// graph (Malkov & Yashunin) behind the same IndexInterface as the exact
/// EmbeddingIndex, which stays the ground-truth oracle.
///
/// Layout: nodes live in append-only fixed-size blocks (rows, level-0
/// adjacency at a fixed 2M stride, id/level/tombstone words), upper-level
/// adjacency in an append-only int32 arena — flat storage, no per-node heap
/// allocations. Slots are never reused, so slot order is insertion order
/// and exact score ties rank the earlier-inserted entry first, matching the
/// exact index. Distance is -cosine via the shared SIMD dot microkernel
/// (tensor::internal::DotF32) over L2-normalized rows.
///
/// Concurrency: queries never block and run concurrently with writers.
/// Writers are serialized among themselves (insert mutex); neighbor lists
/// are guarded by a sharded per-node lock table that both the construction
/// path (link rewrites, backlink pruning) and the search path (list copy)
/// take one node at a time; the entry point/max level is published
/// atomically after a node is fully written, and node data is made visible
/// to readers through those same lock/atomic release-acquire edges. Remove
/// tombstones the node: it leaves the graph (still traversable) but is
/// excluded from results; compaction is a follow-up.
///
/// Determinism: levels come from a per-index seeded RNG consumed in
/// insertion order, and construction search is deterministic, so two builds
/// over the same insertion order produce bitwise-identical neighbor lists
/// (asserted in tests/hnsw_index_test.cc).
class HnswIndex : public IndexInterface {
 public:
  explicit HnswIndex(int64_t dim, const HnswConfig& config = {});
  ~HnswIndex() override;

  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  int64_t dim() const override { return dim_; }
  int64_t size() const override {
    return live_.load(std::memory_order_acquire);
  }
  bool Contains(int64_t id) const override;

  using IndexInterface::Add;
  common::Status Add(int64_t id, const float* embedding,
                     int64_t dim) override;
  common::Status AddBatch(const std::vector<int64_t>& ids,
                          const std::vector<float>& rows) override;

  /// Tombstones the id: excluded from every future result, erased from
  /// Contains/size; its graph node keeps routing traffic until compaction.
  common::Status Remove(int64_t id) override;

  using IndexInterface::Query;
  common::Result<std::vector<Neighbor>> Query(const float* query, int64_t dim,
                                              int64_t k) const override;

  const HnswConfig& config() const { return config_; }

  /// Recall/latency dial: the level-0 candidate pool per Query is
  /// max(ef_search, k).
  int64_t ef_search() const { return ef_search_; }

  /// Current top level of the graph (-1 while empty).
  int64_t max_level() const;
  /// Total slots ever inserted, tombstones included.
  int64_t num_slots() const {
    return slot_count_.load(std::memory_order_acquire);
  }

  /// Fraction of slots that are tombstones, in [0, 1] (0 while empty).
  /// Query inflates its candidate pool by the live fraction so heavy churn
  /// does not shrink result sets; serving loops watch this to decide when a
  /// rebuild/compaction is worth it.
  double DeadFraction() const {
    const int64_t slots = num_slots();
    if (slots <= 0) return 0.0;
    const int64_t dead = slots - size();
    if (dead <= 0) return 0.0;  // the two atomics can be read mid-insert
    return static_cast<double>(dead) / static_cast<double>(slots);
  }

  /// Deep copy with tombstones dropped: live nodes are re-inserted in slot
  /// (= insertion) order into a fresh index with the same config, so the
  /// result is bitwise-identical to a from-scratch build over only the live
  /// rows (same seeded level stream, same insertion order; asserted in
  /// tests/hnsw_index_test.cc). Safe to run while readers query this index;
  /// a Remove racing the copy may or may not be reflected.
  common::Result<std::unique_ptr<HnswIndex>> CompactedCopy() const;

  /// Persists the full graph — rows, adjacency, tombstones, entry point,
  /// and the level-RNG cursor — to `path` in the versioned STTN container,
  /// so a serving restart can skip the O(N log N) build. Writers are
  /// excluded for the duration (Save takes the insert mutex); concurrent
  /// queries are fine, but a racing Remove may be missed.
  common::Status Save(const std::string& path) const;

  /// Rebuilds an index from a Save() artifact. Every structural field is
  /// validated at the Status boundary (counts vs caps, neighbor slots in
  /// range, levels, entry point, live accounting); truncation and bit flips
  /// are caught by the container's per-record CRC. The level-RNG cursor is
  /// restored, so inserting after Load continues the exact stream a
  /// never-saved index would have drawn (bitwise parity, tested).
  static common::Result<std::unique_ptr<HnswIndex>> Load(
      const std::string& path);

  /// Introspection for the reproducibility tests and tooling: `id`'s
  /// neighbor ids at `level` in stored order (empty when the id is unknown
  /// or the node does not reach that level), and its sampled level (-1 when
  /// unknown). Neighbor ids are the ids recorded at link time; a removed
  /// neighbor keeps its old id here.
  std::vector<int64_t> GetNeighbors(int64_t id, int64_t level) const;
  int64_t NodeLevel(int64_t id) const;

  /// One search candidate (public so the comparator helpers can name it).
  struct Cand {
    float dist = 0.0f;  ///< -cosine: smaller is closer.
    int64_t slot = 0;
  };

 protected:
  int64_t EvalQueryDepth() const override;

 private:
  struct Block;
  struct Scratch;

  static constexpr int kLinkShards = 256;

  // Storage accessors (slot must be published / reachable).
  Block* BlockOf(int64_t slot) const;
  const float* RowPtr(int64_t slot) const;
  int32_t* LinkListPtr(int64_t slot, int64_t level) const;
  int64_t IdAt(int64_t slot) const;
  int32_t LevelAt(int64_t slot) const;
  bool IsDead(int64_t slot) const;
  std::mutex& LinkMutex(int64_t slot) const {
    return link_mu_[static_cast<size_t>(slot) & (kLinkShards - 1)];
  }

  float Dist(const float* query, int64_t slot) const;
  int32_t SampleLevel();

  /// Copies `slot`'s neighbor list at `level` under its shard lock.
  void CopyNeighbors(int64_t slot, int64_t level,
                     std::vector<int32_t>* out) const;
  /// Greedy ef=1 descent step at one level; updates *dist.
  int64_t GreedyStep(const float* query, int64_t entry, float* dist,
                     int64_t level, Scratch* s) const;
  /// Beam search at one level: fills s->result with up to ef candidates.
  void SearchLayer(const float* query, int64_t entry, float entry_dist,
                   int64_t level, int64_t ef, Scratch* s) const;
  /// Heuristic selection (keep a candidate only if it is closer to the
  /// query than to every already-kept one) from `sorted` (ascending).
  void SelectNeighbors(const std::vector<Cand>& sorted, int64_t m,
                       std::vector<Cand>* out) const;
  /// Links `new_slot` into `nb`'s list at `level`, pruning to `cap`.
  void ConnectBack(int64_t nb, int64_t new_slot, float dist, int64_t level,
                   int64_t cap);
  /// Core insert; requires insert_mu_ held and `nrow` normalized.
  common::Status InsertNormalized(int64_t id, const float* nrow);

  std::unique_ptr<Scratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<Scratch> s) const;

  const int64_t dim_;
  const HnswConfig config_;
  const int64_t max_m0_;      ///< Level-0 link cap: 2M.
  const double level_mult_;   ///< 1 / ln(M).
  const int64_t ef_search_;

  /// Serializes writers end-to-end (slot assignment, RNG draws, arena
  /// bumps, graph wiring). Readers never take it.
  mutable std::mutex insert_mu_;
  common::Rng level_rng_;     ///< Guarded by insert_mu_.

  // Append-only node blocks; the pointer table is fixed-size so readers
  // index it without locks (block pointers are published with release).
  std::unique_ptr<std::atomic<Block*>[]> blocks_;
  int64_t num_blocks_ = 0;    ///< Writer-only, under insert_mu_.
  std::atomic<int64_t> slot_count_{0};

  // Upper-level adjacency arena: append-only int32 chunks, bump-allocated
  // under insert_mu_; spans never straddle a chunk.
  std::unique_ptr<std::atomic<int32_t*>[]> upper_chunks_;
  int64_t num_upper_chunks_ = 0;  ///< Writer-only, under insert_mu_.
  int64_t upper_used_ = 0;        ///< Writer-only, under insert_mu_.

  /// Packed (slot << 8 | level) entry point; kNoEntry while empty.
  std::atomic<uint64_t> entry_;
  std::atomic<int64_t> live_{0};

  mutable std::shared_mutex ids_mu_;
  std::unordered_map<int64_t, int64_t> id_to_slot_;

  mutable std::array<std::mutex, kLinkShards> link_mu_;

  mutable std::mutex pool_mu_;
  mutable std::vector<std::unique_ptr<Scratch>> pool_;
};

}  // namespace start::serve

#endif  // START_SERVE_HNSW_INDEX_H_
