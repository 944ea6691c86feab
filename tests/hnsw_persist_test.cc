// HnswIndex Save/Load persistence contract: a loaded graph is bitwise the
// graph that was saved (links, levels, tombstones, entry point), inserting
// after Load continues the exact seeded level stream of a never-saved index,
// every structural field is validated at the Status boundary (truncation /
// bit-flip / crafted-header fuzz never crashes), and the committed golden
// fixture pins the on-disk format against silent breaks.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

#include "common/rng.h"
#include "common/status.h"
#include "serve/hnsw_index.h"
#include "serve/index_interface.h"
#include "tensor/serialize.h"
#include "testing.h"

namespace start {
namespace {

using serve::HnswConfig;
using serve::HnswIndex;
using serve::Neighbor;

std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

std::vector<float> RandomRows(common::Rng* rng, int64_t n, int64_t dim) {
  std::vector<float> rows(static_cast<size_t>(n * dim));
  for (auto& v : rows) v = static_cast<float>(rng->Normal());
  return rows;
}

/// Asserts the two graphs are structurally identical for every id in
/// [0, n): same levels and the same neighbor lists in stored order.
void ExpectGraphsEqual(const HnswIndex& a, const HnswIndex& b, int64_t n) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.max_level(), b.max_level());
  for (int64_t id = 0; id < n; ++id) {
    ASSERT_EQ(a.NodeLevel(id), b.NodeLevel(id)) << "id " << id;
    for (int64_t level = 0; level <= a.NodeLevel(id); ++level) {
      ASSERT_EQ(a.GetNeighbors(id, level), b.GetNeighbors(id, level))
          << "id " << id << " level " << level;
    }
  }
}

/// The committed golden fixture's build recipe — duplicated in
/// tools/make_golden_fixtures.cc; keep the two in sync. Rows come from
/// Rng::Uniform (pure arithmetic, bit-exact everywhere).
std::unique_ptr<HnswIndex> BuildGoldenHnsw() {
  HnswConfig config;
  config.M = 4;
  config.ef_construction = 16;
  config.ef_search = 8;
  config.seed = 0xA11CE;
  auto index = std::make_unique<HnswIndex>(6, config);
  common::Rng rng(99);
  for (int64_t id = 0; id < 24; ++id) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    EXPECT_TRUE(index->Add(id, row).ok());
  }
  for (int64_t id = 2; id < 24; id += 5) {
    EXPECT_TRUE(index->Remove(id).ok());
  }
  return index;
}

TEST(HnswPersistTest, SaveLoadRoundTripsGraphAndTombstonesBitwise) {
  const int64_t n = 300, dim = 16;
  common::Rng rng = testutil::TestRng(31);
  const std::vector<float> rows = RandomRows(&rng, n, dim);
  HnswConfig config;
  config.seed = 4242;
  config.ef_search = 48;
  config.min_live_ratio = 0.125;
  HnswIndex built(dim, config);
  for (int64_t id = 0; id < n; ++id) {
    ASSERT_TRUE(built.Add(id, rows.data() + id * dim, dim).ok());
  }
  for (int64_t id = 0; id < n; id += 4) {
    ASSERT_TRUE(built.Remove(id).ok());
  }
  const std::string path = TempPath("roundtrip.hnsw");
  ASSERT_TRUE(built.Save(path).ok());

  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().M, config.M);
  EXPECT_EQ((*loaded)->config().seed, config.seed);
  EXPECT_EQ((*loaded)->ef_search(), 48);
  EXPECT_DOUBLE_EQ((*loaded)->config().min_live_ratio, 0.125);
  EXPECT_DOUBLE_EQ((*loaded)->DeadFraction(), built.DeadFraction());
  ExpectGraphsEqual(built, **loaded, n);
  for (int64_t id = 0; id < n; ++id) {
    EXPECT_EQ((*loaded)->Contains(id), id % 4 != 0) << id;
  }
  // Query parity: identical ids AND identical score bits, including the
  // tombstone exclusion path.
  for (int64_t q = 0; q < 25; ++q) {
    std::vector<float> query(static_cast<size_t>(dim));
    for (auto& v : query) v = static_cast<float>(rng.Normal());
    const auto want = built.Query(query, 10);
    const auto got = (*loaded)->Query(query, 10);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*want)[i].id, (*got)[i].id) << "query " << q << " pos " << i;
      EXPECT_EQ((*want)[i].score, (*got)[i].score);
    }
  }
}

TEST(HnswPersistTest, InsertAfterLoadContinuesTheExactRngStream) {
  // The level RNG cursor is part of the artifact: save -> load -> insert
  // must be bitwise identical to never having saved at all.
  const int64_t n = 200, extra = 100, dim = 12;
  common::Rng rng = testutil::TestRng(33);
  const std::vector<float> rows = RandomRows(&rng, n + extra, dim);
  HnswConfig config;
  config.seed = 555;
  HnswIndex never_saved(dim, config);
  for (int64_t id = 0; id < n; ++id) {
    ASSERT_TRUE(never_saved.Add(id, rows.data() + id * dim, dim).ok());
  }
  const std::string path = TempPath("resume.hnsw");
  ASSERT_TRUE(never_saved.Save(path).ok());
  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int64_t id = n; id < n + extra; ++id) {
    ASSERT_TRUE(never_saved.Add(id, rows.data() + id * dim, dim).ok());
    ASSERT_TRUE((*loaded)->Add(id, rows.data() + id * dim, dim).ok());
  }
  ExpectGraphsEqual(never_saved, **loaded, n + extra);
}

TEST(HnswPersistTest, EmptyIndexRoundTrips) {
  HnswIndex empty(8);
  const std::string path = TempPath("empty.hnsw");
  ASSERT_TRUE(empty.Save(path).ok());
  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 0);
  EXPECT_EQ((*loaded)->num_slots(), 0);
  const std::vector<float> q = {1, 0, 0, 0, 0, 0, 0, 0};
  const auto result = (*loaded)->Query(q, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  // Inserts into the loaded empty index still track the seed stream.
  HnswIndex fresh(8);
  common::Rng rng = testutil::TestRng(35);
  const std::vector<float> rows = RandomRows(&rng, 50, 8);
  for (int64_t id = 0; id < 50; ++id) {
    ASSERT_TRUE(fresh.Add(id, rows.data() + id * 8, 8).ok());
    ASSERT_TRUE((*loaded)->Add(id, rows.data() + id * 8, 8).ok());
  }
  ExpectGraphsEqual(fresh, **loaded, 50);
}

TEST(HnswPersistTest, ModelCheckpointRejectedByMetaTag) {
  // A well-formed container that is not an index artifact must be refused
  // by tag, before any structural parsing.
  const std::string path = TempPath("not_an_index.sttn");
  common::Rng rng = testutil::TestRng(37);
  std::map<std::string, tensor::Tensor> tensors;
  tensors.emplace("w", tensor::Tensor::Rand(tensor::Shape({3, 3}), &rng,
                                            -1, 1));
  ASSERT_TRUE(tensor::SaveTensors(path, tensors).ok());
  const auto result = HnswIndex::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("meta tag"), std::string::npos)
      << result.status().ToString();
}

TEST(HnswPersistTest, MissingFileIsIOError) {
  const auto result = HnswIndex::Load("/nonexistent/dir/index.hnsw");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIOError);
}

TEST(HnswPersistTest, TruncationFuzzAlwaysFailsCleanly) {
  common::Rng rng = testutil::TestRng(39);
  const std::vector<float> rows = RandomRows(&rng, 80, 8);
  HnswIndex built(8);
  for (int64_t id = 0; id < 80; ++id) {
    ASSERT_TRUE(built.Add(id, rows.data() + id * 8, 8).ok());
  }
  ASSERT_TRUE(built.Remove(7).ok());
  const std::string full = TempPath("full.hnsw");
  ASSERT_TRUE(built.Save(full).ok());
  const std::vector<uint8_t> bytes = testutil::ReadFileBytes(full);
  ASSERT_GT(bytes.size(), 64u);
  const std::string cut = TempPath("cut.hnsw");
  // Sweep cut points across the whole artifact, hitting every record.
  for (size_t keep = 0; keep < bytes.size(); keep += 61) {
    testutil::WriteFileBytes(
        cut, std::vector<uint8_t>(bytes.begin(),
                                  bytes.begin() +
                                      static_cast<ptrdiff_t>(keep)));
    const auto result = HnswIndex::Load(cut);
    ASSERT_FALSE(result.ok()) << "truncated to " << keep << " bytes loaded";
    EXPECT_TRUE(result.status().code() == common::StatusCode::kIOError ||
                result.status().code() ==
                    common::StatusCode::kInvalidArgument)
        << "keep=" << keep << ": " << result.status().ToString();
  }
}

TEST(HnswPersistTest, BitFlipFuzzIsRejected) {
  common::Rng rng = testutil::TestRng(41);
  const std::vector<float> rows = RandomRows(&rng, 60, 8);
  HnswIndex built(8);
  for (int64_t id = 0; id < 60; ++id) {
    ASSERT_TRUE(built.Add(id, rows.data() + id * 8, 8).ok());
  }
  const std::string full = TempPath("flip_base.hnsw");
  ASSERT_TRUE(built.Save(full).ok());
  const std::vector<uint8_t> bytes = testutil::ReadFileBytes(full);
  const std::string flipped = TempPath("flipped.hnsw");
  // A single flipped bit anywhere must be caught: the header fields by
  // magic/tag/count validation, every record byte by its CRC.
  for (size_t at = 0; at < bytes.size(); at += 97) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[at] ^= 0x10;
    testutil::WriteFileBytes(flipped, corrupt);
    const auto result = HnswIndex::Load(flipped);
    ASSERT_FALSE(result.ok()) << "bit flip at byte " << at << " loaded";
  }
}

/// Re-saves the golden-recipe index with `mutate` applied to its record
/// bundle, bypassing the writer's invariants — the loader alone must catch
/// the damage (the CRC is recomputed over the mutated payload, so these
/// exercise semantic validation, not the container checksum).
common::Status LoadMutated(
    const char* name,
    const std::function<void(tensor::LoadedBundle*)>& mutate) {
  const std::string base = TempPath("mutate_base.hnsw");
  EXPECT_TRUE(BuildGoldenHnsw()->Save(base).ok());
  auto bundle = tensor::LoadBundle(base);
  EXPECT_TRUE(bundle.ok());
  mutate(&*bundle);
  const std::string path = TempPath(name);
  EXPECT_TRUE(
      tensor::SaveBundle(path, bundle->meta_tag, bundle->records).ok());
  return HnswIndex::Load(path).status();
}

TEST(HnswPersistTest, StructuralValidationRejectsCraftedRecords) {
  struct Case {
    const char* what;
    std::function<void(tensor::LoadedBundle*)> mutate;
  };
  const std::vector<Case> cases = {
      {"entry slot out of range",
       [](tensor::LoadedBundle* b) { b->records.uints["entry"] = {1u << 20}; }},
      {"entry level disagrees with node level",
       [](tensor::LoadedBundle* b) { b->records.uints["entry"][0] += 1; }},
      {"node level above kMaxLevel",
       [](tensor::LoadedBundle* b) { b->records.ints32["levels"][0] = 30; }},
      {"negative node level",
       [](tensor::LoadedBundle* b) { b->records.ints32["levels"][3] = -1; }},
      {"non-boolean dead flag",
       [](tensor::LoadedBundle* b) { b->records.ints32["dead"][0] = 2; }},
      {"live count mismatch",
       [](tensor::LoadedBundle* b) { b->records.ints["shape"][5] -= 1; }},
      {"neighbor slot out of range",
       [](tensor::LoadedBundle* b) { b->records.ints32["links0"][1] = 999; }},
      {"negative neighbor slot",
       [](tensor::LoadedBundle* b) { b->records.ints32["links0"][1] = -2; }},
      {"link count above cap",
       [](tensor::LoadedBundle* b) { b->records.ints32["links0"][0] = 99; }},
      {"duplicate live ids",
       [](tensor::LoadedBundle* b) {
         b->records.ints["ids"][1] = b->records.ints["ids"][0];
       }},
      {"upper adjacency truncated",
       [](tensor::LoadedBundle* b) { b->records.ints32["upper"].pop_back(); }},
      {"rows shape mismatch",
       [](tensor::LoadedBundle* b) { b->records.ints["shape"][4] += 1; }},
      {"missing rng record",
       [](tensor::LoadedBundle* b) { b->records.uints.erase("rng"); }},
      {"implausible M",
       [](tensor::LoadedBundle* b) { b->records.ints["shape"][1] = 0; }},
      {"min_live_ratio out of range",
       [](tensor::LoadedBundle* b) {
         b->records.doubles["min_live_ratio"][0] = 2.0;
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const common::Status status = LoadMutated(c.what, c.mutate);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  }
  // Sanity: the unmutated recipe loads fine, so the rejections above are
  // the mutations' doing.
  EXPECT_TRUE(LoadMutated("identity.hnsw",
                          [](tensor::LoadedBundle*) {})
                  .ok());
}

TEST(HnswPersistTest, GoldenFixtureLoadsAndMatchesRecipe) {
  // tests/fixtures/hnsw_golden.sttn is committed; regenerate only on a
  // deliberate format break via tools/make_golden_fixtures (see its header
  // comment). A reader change that can no longer parse OLD artifacts fails
  // here even if its own writer/reader pair stays self-consistent.
  const std::string path = testutil::FixtureDir() + "/hnsw_golden.sttn";
  auto loaded = HnswIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::unique_ptr<HnswIndex> recipe = BuildGoldenHnsw();
  EXPECT_EQ((*loaded)->size(), recipe->size());
  EXPECT_EQ((*loaded)->num_slots(), 24);
  ExpectGraphsEqual(*recipe, **loaded, 24);
  for (int64_t id = 2; id < 24; id += 5) {
    EXPECT_FALSE((*loaded)->Contains(id)) << id;
  }
  // Every live row finds itself first at full score.
  common::Rng rng(99);
  for (int64_t id = 0; id < 24; ++id) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    if ((id - 2) % 5 == 0) continue;
    const auto top = (*loaded)->Query(row, 1);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 1u);
    EXPECT_EQ((*top)[0].id, id);
  }
}

}  // namespace
}  // namespace start
