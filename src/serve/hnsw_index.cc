#include "serve/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "tensor/kernels.h"
#include "tensor/serialize.h"

namespace start::serve {

namespace {

// Block geometry: 2048 nodes per block, a fixed 16K-entry pointer table
// (~128 KB per index) bounding capacity at ~33M nodes. Tombstoned slots are
// never reused, so slot order stays insertion order.
constexpr int64_t kBlockRowsLog2 = 11;
constexpr int64_t kBlockRows = int64_t{1} << kBlockRowsLog2;
constexpr int64_t kMaxBlocks = int64_t{1} << 14;

// Upper-level adjacency arena: 64K-int chunks (spans never straddle one).
constexpr int64_t kUpperChunkLog2 = 16;
constexpr int64_t kUpperChunkInts = int64_t{1} << kUpperChunkLog2;
constexpr int64_t kMaxUpperChunks = int64_t{1} << 14;

constexpr int32_t kMaxLevel = 24;
constexpr uint64_t kNoEntry = ~uint64_t{0};

uint64_t PackEntry(int64_t slot, int32_t level) {
  return (static_cast<uint64_t>(slot) << 8) | static_cast<uint64_t>(level);
}
int64_t EntrySlot(uint64_t e) { return static_cast<int64_t>(e >> 8); }
int32_t EntryLevel(uint64_t e) { return static_cast<int32_t>(e & 0xff); }

/// Strict (dist, slot) order: ties rank the earlier-inserted slot closer,
/// matching the exact index's tie-break.
bool CloserThan(const HnswIndex::Cand&, const HnswIndex::Cand&);

}  // namespace

/// One append-only block of node storage. Rows and the level-0 adjacency
/// live at fixed strides; upper-level adjacency is an arena offset.
struct HnswIndex::Block {
  Block(int64_t dim, int64_t max_m0)
      : rows(new float[static_cast<size_t>(kBlockRows * dim)]),
        links0(new int32_t[static_cast<size_t>(kBlockRows * (max_m0 + 1))]),
        levels(new int32_t[static_cast<size_t>(kBlockRows)]),
        upper_offsets(new int64_t[static_cast<size_t>(kBlockRows)]),
        ids(new int64_t[static_cast<size_t>(kBlockRows)]),
        dead(new std::atomic<uint8_t>[static_cast<size_t>(kBlockRows)]) {}

  std::unique_ptr<float[]> rows;
  std::unique_ptr<int32_t[]> links0;  ///< [count, slots...] at stride 2M+1.
  std::unique_ptr<int32_t[]> levels;
  std::unique_ptr<int64_t[]> upper_offsets;  ///< -1 for level-0-only nodes.
  std::unique_ptr<int64_t[]> ids;
  std::unique_ptr<std::atomic<uint8_t>[]> dead;
};

/// Pooled per-search state: the tag-based visited list plus the candidate
/// min-heap / result max-heap buffers, so steady-state queries allocate
/// nothing (vectors keep their capacity across pool round-trips).
struct HnswIndex::Scratch {
  std::vector<uint32_t> tags;
  uint32_t tag = 0;
  std::vector<Cand> cand;    ///< Min-heap: best expansion frontier first.
  std::vector<Cand> result;  ///< Max-heap bounded by ef: worst kept on top.
  std::vector<int32_t> neighbors;
  std::vector<float> qnorm;

  void BeginVisit(int64_t hint) {
    if (++tag == 0) {  // tag wrapped: invalidate everything once
      std::fill(tags.begin(), tags.end(), 0u);
      tag = 1;
    }
    if (static_cast<int64_t>(tags.size()) < hint) {
      tags.resize(static_cast<size_t>(hint), 0u);
    }
  }
  /// Marks and reports prior visitation; grows for slots published after
  /// BeginVisit (writers may link new nodes mid-search).
  bool TestAndMark(int64_t slot) {
    if (static_cast<int64_t>(tags.size()) <= slot) {
      tags.resize(static_cast<size_t>(slot) + 1024, 0u);
    }
    if (tags[static_cast<size_t>(slot)] == tag) return true;
    tags[static_cast<size_t>(slot)] = tag;
    return false;
  }
};

namespace {

bool CloserThan(const HnswIndex::Cand& a, const HnswIndex::Cand& b) {
  return a.dist < b.dist || (a.dist == b.dist && a.slot < b.slot);
}

/// Heap comparator for the expansion frontier: std heaps keep the comp-max
/// on top, so "worse than" ordering surfaces the best candidate.
bool WorseThan(const HnswIndex::Cand& a, const HnswIndex::Cand& b) {
  return CloserThan(b, a);
}

}  // namespace

HnswIndex::HnswIndex(int64_t dim, const HnswConfig& config)
    : dim_(dim),
      config_(config),
      max_m0_(2 * config.M),
      level_mult_(1.0 / std::log(static_cast<double>(config.M))),
      ef_search_(std::max<int64_t>(config.ef_search, 1)),
      level_rng_(config.seed),
      blocks_(new std::atomic<Block*>[static_cast<size_t>(kMaxBlocks)]),
      upper_chunks_(
          new std::atomic<int32_t*>[static_cast<size_t>(kMaxUpperChunks)]),
      entry_(kNoEntry) {
  START_CHECK_GT(dim, 0);
  START_CHECK_GE(config.M, 2);
  START_CHECK_GE(config.ef_construction, 1);
  START_CHECK_GT(config.min_live_ratio, 0.0);
  START_CHECK_LE(config.min_live_ratio, 1.0);
  for (int64_t i = 0; i < kMaxBlocks; ++i) {
    blocks_[static_cast<size_t>(i)].store(nullptr,
                                          std::memory_order_relaxed);
  }
  for (int64_t i = 0; i < kMaxUpperChunks; ++i) {
    upper_chunks_[static_cast<size_t>(i)].store(nullptr,
                                                std::memory_order_relaxed);
  }
}

HnswIndex::~HnswIndex() {
  for (int64_t i = 0; i < num_blocks_; ++i) {
    delete blocks_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  for (int64_t i = 0; i < num_upper_chunks_; ++i) {
    delete[] upper_chunks_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
  }
}

HnswIndex::Block* HnswIndex::BlockOf(int64_t slot) const {
  return blocks_[static_cast<size_t>(slot >> kBlockRowsLog2)].load(
      std::memory_order_acquire);
}

const float* HnswIndex::RowPtr(int64_t slot) const {
  return BlockOf(slot)->rows.get() + (slot & (kBlockRows - 1)) * dim_;
}

int32_t* HnswIndex::LinkListPtr(int64_t slot, int64_t level) const {
  Block* b = BlockOf(slot);
  const int64_t in = slot & (kBlockRows - 1);
  if (level == 0) return b->links0.get() + in * (max_m0_ + 1);
  const int64_t offset =
      b->upper_offsets[in] + (level - 1) * (config_.M + 1);
  int32_t* chunk = upper_chunks_[static_cast<size_t>(offset >> kUpperChunkLog2)]
                       .load(std::memory_order_acquire);
  return chunk + (offset & (kUpperChunkInts - 1));
}

int64_t HnswIndex::IdAt(int64_t slot) const {
  return BlockOf(slot)->ids[slot & (kBlockRows - 1)];
}

int32_t HnswIndex::LevelAt(int64_t slot) const {
  return BlockOf(slot)->levels[slot & (kBlockRows - 1)];
}

bool HnswIndex::IsDead(int64_t slot) const {
  return BlockOf(slot)->dead[slot & (kBlockRows - 1)].load(
             std::memory_order_acquire) != 0;
}

float HnswIndex::Dist(const float* query, int64_t slot) const {
  return -tensor::internal::DotF32(query, RowPtr(slot), dim_);
}

int32_t HnswIndex::SampleLevel() {
  double u = level_rng_.Uniform();
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  const double level = -std::log(u) * level_mult_;
  return std::min(static_cast<int32_t>(level), kMaxLevel);
}

void HnswIndex::CopyNeighbors(int64_t slot, int64_t level,
                              std::vector<int32_t>* out) const {
  std::lock_guard<std::mutex> guard(LinkMutex(slot));
  const int32_t* list = LinkListPtr(slot, level);
  out->assign(list + 1, list + 1 + list[0]);
}

int64_t HnswIndex::GreedyStep(const float* query, int64_t entry, float* dist,
                              int64_t level, Scratch* s) const {
  int64_t cur = entry;
  float curd = *dist;
  bool improved = true;
  while (improved) {
    improved = false;
    CopyNeighbors(cur, level, &s->neighbors);
    for (const int32_t nb : s->neighbors) {
      const float d = Dist(query, nb);
      if (d < curd) {
        curd = d;
        cur = nb;
        improved = true;
      }
    }
  }
  *dist = curd;
  return cur;
}

void HnswIndex::SearchLayer(const float* query, int64_t entry,
                            float entry_dist, int64_t level, int64_t ef,
                            Scratch* s) const {
  s->BeginVisit(slot_count_.load(std::memory_order_acquire));
  s->cand.clear();
  s->result.clear();
  (void)s->TestAndMark(entry);
  s->cand.push_back({entry_dist, entry});
  s->result.push_back({entry_dist, entry});
  while (!s->cand.empty()) {
    std::pop_heap(s->cand.begin(), s->cand.end(), WorseThan);
    const Cand c = s->cand.back();
    s->cand.pop_back();
    // result.front() is the worst kept candidate; once the pool is full and
    // the closest frontier node cannot beat it, no reachable node can.
    if (static_cast<int64_t>(s->result.size()) >= ef &&
        !CloserThan(c, s->result.front())) {
      break;
    }
    CopyNeighbors(c.slot, level, &s->neighbors);
    for (const int32_t nb : s->neighbors) {
      if (s->TestAndMark(nb)) continue;
      const Cand cand{Dist(query, nb), nb};
      if (static_cast<int64_t>(s->result.size()) < ef ||
          CloserThan(cand, s->result.front())) {
        s->cand.push_back(cand);
        std::push_heap(s->cand.begin(), s->cand.end(), WorseThan);
        s->result.push_back(cand);
        std::push_heap(s->result.begin(), s->result.end(), CloserThan);
        if (static_cast<int64_t>(s->result.size()) > ef) {
          std::pop_heap(s->result.begin(), s->result.end(), CloserThan);
          s->result.pop_back();
        }
      }
    }
  }
}

void HnswIndex::SelectNeighbors(const std::vector<Cand>& sorted, int64_t m,
                                std::vector<Cand>* out) const {
  // Malkov & Yashunin Alg. 4: keep a candidate only if it is closer to the
  // query than to every already-kept neighbor — spends the link budget on
  // diverse directions instead of one tight cluster.
  out->clear();
  for (const Cand& c : sorted) {
    if (static_cast<int64_t>(out->size()) >= m) break;
    bool keep = true;
    for (const Cand& sel : *out) {
      if (Dist(RowPtr(sel.slot), c.slot) < c.dist) {
        keep = false;
        break;
      }
    }
    if (keep) out->push_back(c);
  }
}

void HnswIndex::ConnectBack(int64_t nb, int64_t new_slot, float dist,
                            int64_t level, int64_t cap) {
  std::lock_guard<std::mutex> guard(LinkMutex(nb));
  int32_t* list = LinkListPtr(nb, level);
  const int32_t count = list[0];
  if (count < cap) {
    list[1 + count] = static_cast<int32_t>(new_slot);
    list[0] = count + 1;
    return;
  }
  // Full: re-select among existing links + the newcomer, by distance to nb.
  const float* nb_row = RowPtr(nb);
  std::vector<Cand> cands;
  cands.reserve(static_cast<size_t>(count) + 1);
  cands.push_back({dist, new_slot});
  for (int32_t i = 0; i < count; ++i) {
    const int64_t s = list[1 + i];
    cands.push_back({Dist(nb_row, s), s});
  }
  std::sort(cands.begin(), cands.end(), CloserThan);
  std::vector<Cand> selected;
  SelectNeighbors(cands, cap, &selected);
  list[0] = static_cast<int32_t>(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    list[1 + i] = static_cast<int32_t>(selected[i].slot);
  }
}

common::Status HnswIndex::InsertNormalized(int64_t id, const float* nrow) {
  {
    std::shared_lock<std::shared_mutex> read(ids_mu_);
    if (id_to_slot_.count(id) > 0) {
      return common::Status::AlreadyExists("id " + std::to_string(id) +
                                           " already indexed");
    }
  }
  const int64_t slot = slot_count_.load(std::memory_order_relaxed);
  if (slot >= kMaxBlocks * kBlockRows) {
    return common::Status::Internal("HNSW index capacity exhausted");
  }
  const int32_t level = SampleLevel();

  if ((slot >> kBlockRowsLog2) >= num_blocks_) {
    auto* block = new Block(dim_, max_m0_);
    blocks_[static_cast<size_t>(num_blocks_)].store(
        block, std::memory_order_release);
    ++num_blocks_;
  }
  Block* b = blocks_[static_cast<size_t>(slot >> kBlockRowsLog2)].load(
      std::memory_order_relaxed);
  const int64_t in = slot & (kBlockRows - 1);
  std::memcpy(b->rows.get() + in * dim_, nrow,
              static_cast<size_t>(dim_) * sizeof(float));
  b->ids[in] = id;
  b->levels[in] = level;
  b->dead[in].store(0, std::memory_order_relaxed);
  b->links0.get()[in * (max_m0_ + 1)] = 0;
  int64_t upper_offset = -1;
  if (level > 0) {
    const int64_t span = level * (config_.M + 1);
    if ((upper_used_ & (kUpperChunkInts - 1)) + span > kUpperChunkInts) {
      upper_used_ = (upper_used_ | (kUpperChunkInts - 1)) + 1;  // next chunk
    }
    const int64_t chunk_idx = upper_used_ >> kUpperChunkLog2;
    if (chunk_idx >= kMaxUpperChunks) {
      return common::Status::Internal("HNSW upper-link arena exhausted");
    }
    if (chunk_idx >= num_upper_chunks_) {
      upper_chunks_[static_cast<size_t>(chunk_idx)].store(
          new int32_t[static_cast<size_t>(kUpperChunkInts)],
          std::memory_order_release);
      ++num_upper_chunks_;
    }
    upper_offset = upper_used_;
    upper_used_ += span;
    int32_t* chunk =
        upper_chunks_[static_cast<size_t>(chunk_idx)].load(
            std::memory_order_relaxed);
    for (int32_t l = 0; l < level; ++l) {
      chunk[(upper_offset & (kUpperChunkInts - 1)) + l * (config_.M + 1)] = 0;
    }
  }
  b->upper_offsets[in] = upper_offset;

  const uint64_t e = entry_.load(std::memory_order_acquire);
  if (e == kNoEntry) {
    slot_count_.store(slot + 1, std::memory_order_release);
    entry_.store(PackEntry(slot, level), std::memory_order_release);
  } else {
    int64_t cur = EntrySlot(e);
    const int32_t entry_level = EntryLevel(e);
    std::unique_ptr<Scratch> s = AcquireScratch();
    float curd = Dist(nrow, cur);
    for (int32_t l = entry_level; l > level; --l) {
      cur = GreedyStep(nrow, cur, &curd, l, s.get());
    }
    // Three phases so readers never meet a half-wired node: (1) search every
    // level and pick neighbors — the new node is unreachable throughout, so
    // concurrent queries see only the old graph; (2) write the node's own
    // lists at every level; (3) only then add backlinks, which is the moment
    // the node becomes reachable — by then all of its lists exist, so a
    // reader descending onto it cannot dead-end in an empty level-0 list.
    const int32_t top = std::min(level, entry_level);
    std::vector<std::vector<Cand>> selected(static_cast<size_t>(top) + 1);
    for (int32_t l = top; l >= 0; --l) {
      SearchLayer(nrow, cur, curd, l, config_.ef_construction, s.get());
      std::sort(s->result.begin(), s->result.end(), CloserThan);
      SelectNeighbors(s->result, config_.M, &selected[static_cast<size_t>(l)]);
      // Entry for the next level down: the best candidate found here.
      cur = s->result.front().slot;
      curd = s->result.front().dist;
    }
    {
      std::lock_guard<std::mutex> guard(LinkMutex(slot));
      for (int32_t l = top; l >= 0; --l) {
        const auto& sel = selected[static_cast<size_t>(l)];
        int32_t* list = LinkListPtr(slot, l);
        list[0] = static_cast<int32_t>(sel.size());
        for (size_t i = 0; i < sel.size(); ++i) {
          list[1 + i] = static_cast<int32_t>(sel[i].slot);
        }
      }
    }
    for (int32_t l = top; l >= 0; --l) {
      const int64_t cap = l == 0 ? max_m0_ : config_.M;
      for (const Cand& sel : selected[static_cast<size_t>(l)]) {
        ConnectBack(sel.slot, slot, sel.dist, l, cap);
      }
    }
    ReleaseScratch(std::move(s));
    slot_count_.store(slot + 1, std::memory_order_release);
    if (level > entry_level) {
      entry_.store(PackEntry(slot, level), std::memory_order_release);
    }
  }
  {
    std::unique_lock<std::shared_mutex> write(ids_mu_);
    id_to_slot_.emplace(id, slot);
  }
  live_.fetch_add(1, std::memory_order_release);
  return common::Status::OK();
}

common::Status HnswIndex::Add(int64_t id, const float* embedding,
                              int64_t dim) {
  if (dim != dim_) {
    return common::Status::InvalidArgument(
        "embedding dim " + std::to_string(dim) + " vs index dim " +
        std::to_string(dim_));
  }
  std::vector<float> nrow(static_cast<size_t>(dim_));
  if (!internal::NormalizeInto(embedding, dim_, nrow.data())) {
    return common::Status::InvalidArgument(
        "zero-norm embedding for id " + std::to_string(id) +
        " (cosine similarity undefined)");
  }
  std::lock_guard<std::mutex> write(insert_mu_);
  return InsertNormalized(id, nrow.data());
}

common::Status HnswIndex::AddBatch(const std::vector<int64_t>& ids,
                                   const std::vector<float>& rows) {
  const int64_t n = static_cast<int64_t>(ids.size());
  if (static_cast<int64_t>(rows.size()) != n * dim_) {
    return common::Status::InvalidArgument(
        "AddBatch rows have " + std::to_string(rows.size()) +
        " floats; expected ids * dim = " + std::to_string(n * dim_));
  }
  // As in EmbeddingIndex::AddBatch, the normalize pass and batch-duplicate
  // check run before any lock, so validation failures mutate nothing.
  std::vector<float> normalized(rows.size());
  for (int64_t i = 0; i < n; ++i) {
    if (!internal::NormalizeInto(rows.data() + i * dim_, dim_,
                                 normalized.data() + i * dim_)) {
      return common::Status::InvalidArgument(
          "zero-norm embedding for id " + std::to_string(ids[i]) +
          " (cosine similarity undefined)");
    }
  }
  std::unordered_set<int64_t> batch_ids;
  for (const int64_t id : ids) {
    if (!batch_ids.insert(id).second) {
      return common::Status::AlreadyExists("id " + std::to_string(id) +
                                           " duplicated within the batch");
    }
  }
  std::lock_guard<std::mutex> write(insert_mu_);
  {
    std::shared_lock<std::shared_mutex> read(ids_mu_);
    for (const int64_t id : ids) {
      if (id_to_slot_.count(id) > 0) {
        return common::Status::AlreadyExists("id " + std::to_string(id) +
                                             " already indexed");
      }
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const auto status = InsertNormalized(ids[i], normalized.data() + i * dim_);
    if (!status.ok()) return status;  // only capacity exhaustion can hit
  }
  return common::Status::OK();
}

common::Status HnswIndex::Remove(int64_t id) {
  int64_t slot = -1;
  {
    std::unique_lock<std::shared_mutex> write(ids_mu_);
    const auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) {
      return common::Status::NotFound("id " + std::to_string(id) +
                                      " not indexed");
    }
    slot = it->second;
    id_to_slot_.erase(it);
  }
  BlockOf(slot)->dead[slot & (kBlockRows - 1)].store(
      1, std::memory_order_release);
  live_.fetch_sub(1, std::memory_order_release);
  return common::Status::OK();
}

bool HnswIndex::Contains(int64_t id) const {
  std::shared_lock<std::shared_mutex> read(ids_mu_);
  return id_to_slot_.count(id) > 0;
}

common::Result<std::vector<Neighbor>> HnswIndex::Query(const float* query,
                                                       int64_t dim,
                                                       int64_t k) const {
  if (dim != dim_) {
    return common::Status::InvalidArgument(
        "query dim " + std::to_string(dim) + " vs index dim " +
        std::to_string(dim_));
  }
  if (k <= 0) {
    return common::Status::InvalidArgument("k must be positive");
  }
  std::unique_ptr<Scratch> s = AcquireScratch();
  s->qnorm.resize(static_cast<size_t>(dim_));
  if (!internal::NormalizeInto(query, dim_, s->qnorm.data())) {
    ReleaseScratch(std::move(s));
    return common::Status::InvalidArgument("zero-norm query");
  }
  const uint64_t e = entry_.load(std::memory_order_acquire);
  if (e == kNoEntry) {
    ReleaseScratch(std::move(s));
    return std::vector<Neighbor>{};
  }
  const float* q = s->qnorm.data();
  int64_t cur = EntrySlot(e);
  float curd = Dist(q, cur);
  for (int32_t l = EntryLevel(e); l >= 1; --l) {
    cur = GreedyStep(q, cur, &curd, l, s.get());
  }
  // Tombstones occupy candidate-pool slots but never surface, so under
  // churn a fixed ef would return fewer than k live results. Inflate the
  // pool by the live fraction, floored at config.min_live_ratio (the
  // default caps inflation at 4x for adversarial churn).
  const double live_ratio =
      std::max(config_.min_live_ratio, 1.0 - DeadFraction());
  const int64_t ef = static_cast<int64_t>(
      std::ceil(static_cast<double>(std::max<int64_t>(ef_search(), k)) /
                live_ratio));
  SearchLayer(q, cur, curd, /*level=*/0, ef, s.get());
  std::sort(s->result.begin(), s->result.end(), CloserThan);
  std::vector<Neighbor> out;
  out.reserve(static_cast<size_t>(std::min<int64_t>(
      k, static_cast<int64_t>(s->result.size()))));
  for (const Cand& c : s->result) {
    if (static_cast<int64_t>(out.size()) >= k) break;
    if (IsDead(c.slot)) continue;  // tombstones route but never surface
    out.push_back(Neighbor{IdAt(c.slot), -c.dist});
  }
  ReleaseScratch(std::move(s));
  return out;
}

common::Result<std::unique_ptr<HnswIndex>> HnswIndex::CompactedCopy() const {
  auto out = std::make_unique<HnswIndex>(dim_, config_);
  const int64_t slots = slot_count_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> write(out->insert_mu_);
  for (int64_t slot = 0; slot < slots; ++slot) {
    if (IsDead(slot)) continue;
    // Rows are stored normalized, so InsertNormalized reuses the exact bits
    // the original Add produced — the rebuilt graph is bitwise-identical to
    // a fresh build over the surviving rows.
    START_RETURN_IF_ERROR(out->InsertNormalized(IdAt(slot), RowPtr(slot)));
  }
  return out;
}

namespace {
/// Container meta_tag marking an HNSW graph artifact, so a model checkpoint
/// handed to Load (or vice versa) is rejected by tag, not by field chaos.
constexpr uint64_t kHnswMetaTag = 0x484e535731ULL;  // "HNSW1"
}  // namespace

common::Status HnswIndex::Save(const std::string& path) const {
  std::lock_guard<std::mutex> write(insert_mu_);
  const int64_t slots = slot_count_.load(std::memory_order_acquire);
  tensor::RecordBundle bundle;
  bundle.ints["shape"] = {dim_,       config_.M, config_.ef_construction,
                          ef_search(), slots,    size()};
  bundle.doubles["min_live_ratio"] = {config_.min_live_ratio};
  bundle.uints["seed"] = {config_.seed};
  bundle.uints["entry"] = {entry_.load(std::memory_order_acquire)};
  bundle.uints["rng"] = level_rng_.GetState();
  if (slots > 0) {
    std::vector<float> rows(static_cast<size_t>(slots * dim_));
    auto& ids = bundle.ints["ids"];
    auto& levels = bundle.ints32["levels"];
    auto& dead = bundle.ints32["dead"];
    auto& links0 = bundle.ints32["links0"];
    auto& upper = bundle.ints32["upper"];
    ids.reserve(static_cast<size_t>(slots));
    levels.reserve(static_cast<size_t>(slots));
    dead.reserve(static_cast<size_t>(slots));
    links0.reserve(static_cast<size_t>(slots * (max_m0_ + 1)));
    // Link lists are written at their fixed on-disk stride with the unused
    // tail zero-filled (the in-memory tail past list[0] is uninitialized),
    // so identical graphs serialize to identical bytes.
    const auto append_list = [](std::vector<int32_t>* dst,
                                const int32_t* list, int64_t cap) {
      const int32_t count = list[0];
      dst->push_back(count);
      dst->insert(dst->end(), list + 1, list + 1 + count);
      dst->insert(dst->end(), static_cast<size_t>(cap - count), 0);
    };
    for (int64_t slot = 0; slot < slots; ++slot) {
      std::memcpy(rows.data() + slot * dim_, RowPtr(slot),
                  static_cast<size_t>(dim_) * sizeof(float));
      ids.push_back(IdAt(slot));
      const int32_t level = LevelAt(slot);
      levels.push_back(level);
      dead.push_back(IsDead(slot) ? 1 : 0);
      append_list(&links0, LinkListPtr(slot, 0), max_m0_);
      for (int32_t l = 1; l <= level; ++l) {
        append_list(&upper, LinkListPtr(slot, l), config_.M);
      }
    }
    bundle.tensors.emplace(
        "rows", tensor::Tensor::FromVector(tensor::Shape({slots, dim_}),
                                           std::move(rows)));
  }
  return tensor::SaveBundle(path, kHnswMetaTag, bundle);
}

common::Result<std::unique_ptr<HnswIndex>> HnswIndex::Load(
    const std::string& path) {
  START_ASSIGN_OR_RETURN(tensor::LoadedBundle loaded,
                         tensor::LoadBundle(path));
  if (loaded.meta_tag != kHnswMetaTag) {
    return common::Status::InvalidArgument(
        path + " is not an HNSW index artifact (meta tag mismatch)");
  }
  const tensor::RecordBundle& rec = loaded.records;
  const auto bad = [&path](const std::string& what) {
    return common::Status::InvalidArgument("corrupt HNSW artifact " + path +
                                           ": " + what);
  };
  const auto shape_it = rec.ints.find("shape");
  if (shape_it == rec.ints.end() || shape_it->second.size() != 6) {
    return bad("missing shape record");
  }
  const std::vector<int64_t>& shape = shape_it->second;
  const int64_t dim = shape[0];
  const int64_t slots = shape[4];
  const int64_t live = shape[5];
  if (dim <= 0 || shape[1] < 2 || shape[2] < 1 || shape[3] < 1 || slots < 0 ||
      slots > kMaxBlocks * kBlockRows || live < 0 || live > slots) {
    return bad("implausible shape fields");
  }
  const auto mlr_it = rec.doubles.find("min_live_ratio");
  const auto seed_it = rec.uints.find("seed");
  const auto entry_it = rec.uints.find("entry");
  const auto rng_it = rec.uints.find("rng");
  if (mlr_it == rec.doubles.end() || mlr_it->second.size() != 1 ||
      seed_it == rec.uints.end() || seed_it->second.size() != 1 ||
      entry_it == rec.uints.end() || entry_it->second.size() != 1 ||
      rng_it == rec.uints.end() || rng_it->second.size() != 6) {
    return bad("missing config records");
  }
  HnswConfig config;
  config.M = shape[1];
  config.ef_construction = shape[2];
  config.ef_search = shape[3];
  config.seed = seed_it->second[0];
  config.min_live_ratio = mlr_it->second[0];
  if (!(config.min_live_ratio > 0.0) || config.min_live_ratio > 1.0) {
    return bad("min_live_ratio out of range");
  }
  auto out = std::make_unique<HnswIndex>(dim, config);
  out->level_rng_.SetState(rng_it->second);
  const uint64_t entry = entry_it->second[0];
  if (slots == 0) {
    if (entry != kNoEntry) return bad("entry point without nodes");
    return out;
  }
  const auto rows_it = rec.tensors.find("rows");
  const auto ids_it = rec.ints.find("ids");
  const auto levels_it = rec.ints32.find("levels");
  const auto dead_it = rec.ints32.find("dead");
  const auto links0_it = rec.ints32.find("links0");
  const auto upper_it = rec.ints32.find("upper");
  if (rows_it == rec.tensors.end() || ids_it == rec.ints.end() ||
      levels_it == rec.ints32.end() || dead_it == rec.ints32.end() ||
      links0_it == rec.ints32.end() || upper_it == rec.ints32.end()) {
    return bad("missing node records");
  }
  const tensor::Tensor& rows = rows_it->second;
  const std::vector<int64_t>& ids = ids_it->second;
  const std::vector<int32_t>& levels = levels_it->second;
  const std::vector<int32_t>& dead = dead_it->second;
  const std::vector<int32_t>& links0 = links0_it->second;
  const std::vector<int32_t>& upper = upper_it->second;
  const int64_t max_m0 = 2 * config.M;
  if (rows.ndim() != 2 || rows.dim(0) != slots || rows.dim(1) != dim ||
      static_cast<int64_t>(ids.size()) != slots ||
      static_cast<int64_t>(levels.size()) != slots ||
      static_cast<int64_t>(dead.size()) != slots ||
      static_cast<int64_t>(links0.size()) != slots * (max_m0 + 1)) {
    return bad("node record sizes disagree with shape");
  }
  // Copies `cap + 1` ints of one on-disk link list into `dst` after
  // validating the count and every neighbor slot (forward references are
  // legal: backlinks point at later-inserted nodes).
  const auto load_list = [slots](const int32_t* src, int64_t cap,
                                 int32_t* dst) {
    const int32_t count = src[0];
    if (count < 0 || count > cap) return false;
    for (int32_t i = 0; i < count; ++i) {
      if (src[1 + i] < 0 || src[1 + i] >= slots) return false;
    }
    std::memcpy(dst, src, static_cast<size_t>(cap + 1) * sizeof(int32_t));
    return true;
  };
  int64_t upper_cursor = 0;
  int64_t live_seen = 0;
  for (int64_t slot = 0; slot < slots; ++slot) {
    const int32_t level = levels[static_cast<size_t>(slot)];
    const int32_t dead_flag = dead[static_cast<size_t>(slot)];
    if (level < 0 || level > kMaxLevel) return bad("node level out of range");
    if (dead_flag != 0 && dead_flag != 1) return bad("non-boolean dead flag");
    if ((slot >> kBlockRowsLog2) >= out->num_blocks_) {
      auto* block = new Block(dim, max_m0);
      out->blocks_[static_cast<size_t>(out->num_blocks_)].store(
          block, std::memory_order_release);
      ++out->num_blocks_;
    }
    Block* b = out->blocks_[static_cast<size_t>(slot >> kBlockRowsLog2)].load(
        std::memory_order_relaxed);
    const int64_t in = slot & (kBlockRows - 1);
    std::memcpy(b->rows.get() + in * dim, rows.data() + slot * dim,
                static_cast<size_t>(dim) * sizeof(float));
    b->ids[in] = ids[static_cast<size_t>(slot)];
    b->levels[in] = level;
    b->dead[in].store(dead_flag, std::memory_order_relaxed);
    if (!load_list(links0.data() + slot * (max_m0 + 1), max_m0,
                   b->links0.get() + in * (max_m0 + 1))) {
      return bad("invalid level-0 link list");
    }
    int64_t upper_offset = -1;
    if (level > 0) {
      const int64_t span = level * (config.M + 1);
      if (upper_cursor + span > static_cast<int64_t>(upper.size())) {
        return bad("truncated upper adjacency");
      }
      // Re-run the arena bump allocation (including the chunk-straddle
      // skip) exactly as InsertNormalized did in slot order, so offsets —
      // and therefore post-load inserts — match the never-saved index.
      if ((out->upper_used_ & (kUpperChunkInts - 1)) + span >
          kUpperChunkInts) {
        out->upper_used_ = (out->upper_used_ | (kUpperChunkInts - 1)) + 1;
      }
      const int64_t chunk_idx = out->upper_used_ >> kUpperChunkLog2;
      if (chunk_idx >= kMaxUpperChunks) {
        return bad("upper-link arena exhausted");
      }
      if (chunk_idx >= out->num_upper_chunks_) {
        out->upper_chunks_[static_cast<size_t>(chunk_idx)].store(
            new int32_t[static_cast<size_t>(kUpperChunkInts)],
            std::memory_order_release);
        ++out->num_upper_chunks_;
      }
      upper_offset = out->upper_used_;
      out->upper_used_ += span;
      int32_t* chunk = out->upper_chunks_[static_cast<size_t>(chunk_idx)]
                           .load(std::memory_order_relaxed);
      for (int32_t l = 0; l < level; ++l) {
        if (!load_list(
                upper.data() + upper_cursor + l * (config.M + 1), config.M,
                chunk + (upper_offset & (kUpperChunkInts - 1)) +
                    l * (config.M + 1))) {
          return bad("invalid upper link list");
        }
      }
      upper_cursor += span;
    }
    b->upper_offsets[in] = upper_offset;
    if (dead_flag == 0) {
      if (!out->id_to_slot_.emplace(ids[static_cast<size_t>(slot)], slot)
               .second) {
        return bad("duplicate live id");
      }
      ++live_seen;
    }
  }
  if (upper_cursor != static_cast<int64_t>(upper.size())) {
    return bad("trailing upper adjacency");
  }
  if (live_seen != live) return bad("live count disagrees with tombstones");
  if (entry == kNoEntry) return bad("no entry point with nodes present");
  const int64_t entry_slot = EntrySlot(entry);
  if (entry_slot < 0 || entry_slot >= slots ||
      levels[static_cast<size_t>(entry_slot)] != EntryLevel(entry)) {
    return bad("entry point out of range");
  }
  out->entry_.store(entry, std::memory_order_release);
  out->live_.store(live, std::memory_order_release);
  out->slot_count_.store(slots, std::memory_order_release);
  return out;
}

int64_t HnswIndex::max_level() const {
  const uint64_t e = entry_.load(std::memory_order_acquire);
  return e == kNoEntry ? -1 : EntryLevel(e);
}

int64_t HnswIndex::EvalQueryDepth() const {
  return std::max<int64_t>(ef_search(), 64);
}

std::vector<int64_t> HnswIndex::GetNeighbors(int64_t id,
                                             int64_t level) const {
  int64_t slot = -1;
  {
    std::shared_lock<std::shared_mutex> read(ids_mu_);
    const auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) return {};
    slot = it->second;
  }
  if (level < 0 || level > LevelAt(slot)) return {};
  std::vector<int32_t> slots;
  CopyNeighbors(slot, level, &slots);
  std::vector<int64_t> out;
  out.reserve(slots.size());
  for (const int32_t s : slots) out.push_back(IdAt(s));
  return out;
}

int64_t HnswIndex::NodeLevel(int64_t id) const {
  std::shared_lock<std::shared_mutex> read(ids_mu_);
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return -1;
  return LevelAt(it->second);
}

std::unique_ptr<HnswIndex::Scratch> HnswIndex::AcquireScratch() const {
  std::lock_guard<std::mutex> guard(pool_mu_);
  if (!pool_.empty()) {
    std::unique_ptr<Scratch> s = std::move(pool_.back());
    pool_.pop_back();
    return s;
  }
  return std::make_unique<Scratch>();
}

void HnswIndex::ReleaseScratch(std::unique_ptr<Scratch> s) const {
  std::lock_guard<std::mutex> guard(pool_mu_);
  pool_.push_back(std::move(s));
}

}  // namespace start::serve
