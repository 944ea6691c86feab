// Serving-plane tests: FrozenEncoder artifact loading (including fuzzed /
// truncated / corrupt checkpoint files — the pure-Status boundary),
// equivalence with the eval-plane encoder, batch-composition invariance (the
// property micro-batch coalescing rests on), the EmbeddingService request
// path, and EmbeddingIndex add/remove/query semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "eval/tasks.h"
#include "core/start_encoder.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "serve/embedding_index.h"
#include "serve/embedding_service.h"
#include "serve/frozen_encoder.h"
#include "serve/index_interface.h"
#include "tensor/serialize.h"
#include "testing.h"
#include "traj/trip_generator.h"

namespace start {
namespace {

using testutil::ReadFileBytes;
using testutil::WriteFileBytes;

/// One scratch directory per test binary, removed at exit (the suite-level
/// artifact below outlives individual tests).
std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_ = new roadnet::RoadNetwork(roadnet::BuildSyntheticCity(
        {.grid_width = 6, .grid_height = 6, .seed = 3}));
    traffic_ = new traj::TrafficModel(city_, {});
    traj::TripGenerator::Config config;
    config.num_drivers = 6;
    config.num_days = 6;
    config.trips_per_driver_day = 3.0;
    config.seed = 44;
    traj::TripGenerator gen(traffic_, config);
    data::DatasetConfig ds;
    ds.min_length = 5;
    ds.min_user_trajectories = 2;
    corpus_ = new std::vector<traj::Trajectory>(
        data::TrajDataset::FromCorpus(*city_, gen.Generate(), ds).All());
    ASSERT_GE(corpus_->size(), 16u);
    transfer_ = new roadnet::TransferProbability(
        roadnet::TransferProbability::FromTrajectories(*city_, [] {
          std::vector<std::vector<int64_t>> seqs;
          for (const auto& t : *corpus_) seqs.push_back(t.roads);
          return seqs;
        }()));
    config_ = new core::StartConfig(TinyConfig());
    common::Rng rng(7);
    model_ = new core::StartModel(*config_, city_, transfer_, &rng);
    checkpoint_path_ = new std::string(TempPath("serve_model.sttn"));
    ASSERT_TRUE(core::SaveModelCheckpoint(*checkpoint_path_, *model_,
                                          core::HashStartConfig(*config_))
                    .ok());
  }

  static void TearDownTestSuite() {
    delete checkpoint_path_;
    delete model_;
    delete config_;
    delete transfer_;
    delete corpus_;
    delete traffic_;
    delete city_;
    checkpoint_path_ = nullptr;
    model_ = nullptr;
    config_ = nullptr;
    transfer_ = nullptr;
    corpus_ = nullptr;
    traffic_ = nullptr;
    city_ = nullptr;
  }

  static core::StartConfig TinyConfig() {
    core::StartConfig config;
    config.d = 16;
    config.gat_layers = 2;
    config.gat_heads = {4, 1};
    config.encoder_layers = 2;
    config.encoder_heads = 2;
    config.max_len = 96;
    return config;
  }

  static std::unique_ptr<serve::FrozenEncoder> LoadFrozen() {
    auto result = serve::FrozenEncoder::Load(*checkpoint_path_, *config_,
                                             city_, transfer_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static std::unique_ptr<serve::FrozenEncoder> LoadFrozenInt8() {
    serve::FrozenEncoderOptions options;
    options.precision = serve::Precision::kInt8;
    auto result = serve::FrozenEncoder::Load(*checkpoint_path_, *config_,
                                             city_, transfer_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  /// Per-trajectory cosine between two [n, d] embedding matrices.
  static std::vector<double> RowCosines(const std::vector<float>& a,
                                        const std::vector<float>& b,
                                        int64_t d) {
    EXPECT_EQ(a.size(), b.size());
    std::vector<double> out;
    for (size_t row = 0; row + d <= a.size(); row += d) {
      double dot = 0, na = 0, nb = 0;
      for (int64_t j = 0; j < d; ++j) {
        dot += static_cast<double>(a[row + j]) * b[row + j];
        na += static_cast<double>(a[row + j]) * a[row + j];
        nb += static_cast<double>(b[row + j]) * b[row + j];
      }
      out.push_back(dot / (std::sqrt(na) * std::sqrt(nb) + 1e-30));
    }
    return out;
  }

  static roadnet::RoadNetwork* city_;
  static traj::TrafficModel* traffic_;
  static std::vector<traj::Trajectory>* corpus_;
  static roadnet::TransferProbability* transfer_;
  static core::StartConfig* config_;
  static core::StartModel* model_;
  static std::string* checkpoint_path_;
};

roadnet::RoadNetwork* ServeTest::city_ = nullptr;
traj::TrafficModel* ServeTest::traffic_ = nullptr;
std::vector<traj::Trajectory>* ServeTest::corpus_ = nullptr;
roadnet::TransferProbability* ServeTest::transfer_ = nullptr;
core::StartConfig* ServeTest::config_ = nullptr;
core::StartModel* ServeTest::model_ = nullptr;
std::string* ServeTest::checkpoint_path_ = nullptr;

TEST_F(ServeTest, FrozenEncoderMatchesEvalEncoderBitwise) {
  const auto frozen = LoadFrozen();
  core::StartEncoder eval_encoder(model_);
  // kDepartureOnly is the mode the ETA task embeds with.
  for (const auto mode :
       {eval::EncodeMode::kFull, eval::EncodeMode::kDepartureOnly}) {
    const auto expected = eval_encoder.EmbedAll(*corpus_, mode);
    const auto got = frozen->EmbedAll(*corpus_, mode);
    ASSERT_EQ(expected.size(), got.size());
    EXPECT_EQ(std::memcmp(expected.data(), got.data(),
                          expected.size() * sizeof(float)),
              0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(ServeTest, FrozenEncoderHasNoGradState) {
  const auto frozen = LoadFrozen();
  // The frozen snapshot records no autograd state even when the calling
  // thread is in grad mode (the default here).
  const std::vector<const traj::Trajectory*> batch = {&(*corpus_)[0]};
  const tensor::Tensor reps =
      frozen->EncodeBatch(batch, eval::EncodeMode::kFull);
  EXPECT_FALSE(reps.requires_grad());
  EXPECT_FALSE(reps.has_grad());
}

TEST_F(ServeTest, EncodingIsInvariantToBatchComposition) {
  // The property EmbeddingService coalescing rests on: a trajectory's row is
  // bitwise identical whether encoded alone or padded into a mixed batch.
  const auto frozen = LoadFrozen();
  ASSERT_GE(corpus_->size(), 4u);
  std::vector<const traj::Trajectory*> mixed;
  for (size_t i = 0; i < 4; ++i) mixed.push_back(&(*corpus_)[i]);
  const tensor::Tensor batched =
      frozen->EncodeBatch(mixed, eval::EncodeMode::kFull);
  for (size_t i = 0; i < mixed.size(); ++i) {
    const tensor::Tensor alone =
        frozen->EncodeBatch({mixed[i]}, eval::EncodeMode::kFull);
    EXPECT_EQ(std::memcmp(batched.data() + i * frozen->dim(), alone.data(),
                          static_cast<size_t>(frozen->dim()) * sizeof(float)),
              0)
        << "row " << i << " differs between mixed batch and solo encode";
  }
}

TEST_F(ServeTest, ValidateScreensBadRequests) {
  const auto frozen = LoadFrozen();
  traj::Trajectory empty;
  EXPECT_FALSE(frozen->Validate(empty).ok());

  traj::Trajectory too_long = (*corpus_)[0];
  too_long.roads.assign(static_cast<size_t>(frozen->max_len() + 1), 0);
  too_long.timestamps.assign(too_long.roads.size(), 0);
  EXPECT_FALSE(frozen->Validate(too_long).ok());

  traj::Trajectory bad_road = (*corpus_)[0];
  bad_road.roads[0] = city_->num_segments() + 7;
  EXPECT_FALSE(frozen->Validate(bad_road).ok());

  EXPECT_TRUE(frozen->Validate((*corpus_)[0]).ok());
}

TEST_F(ServeTest, LoadRejectsMissingFile) {
  const auto result = serve::FrozenEncoder::Load(
      TempPath("no_such_checkpoint.sttn"), *config_, city_, transfer_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ServeTest, LoadRejectsWrongArchitecture) {
  core::StartConfig wider = *config_;
  wider.d = 32;
  wider.gat_heads = {4, 1};
  const auto result =
      serve::FrozenEncoder::Load(*checkpoint_path_, wider, city_, transfer_);
  EXPECT_FALSE(result.ok());  // per-tensor shape mismatch
}

TEST_F(ServeTest, LoadSurvivesTruncatedAndCorruptFiles) {
  // Fuzz-ish sweep over the artifact boundary: every truncation prefix and a
  // deterministic set of byte corruptions must come back as a Status — never
  // a crash or a CHECK abort.
  const std::vector<uint8_t> good = ReadFileBytes(*checkpoint_path_);
  ASSERT_GT(good.size(), 64u);
  const std::string path = TempPath("serve_fuzz.sttn");

  // Truncations: dense near the header, sampled through the payload.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < 64; ++i) cuts.push_back(i);
  for (size_t i = 64; i < good.size(); i += good.size() / 97 + 1) {
    cuts.push_back(i);
  }
  for (const size_t cut : cuts) {
    WriteFileBytes(path,
                   std::vector<uint8_t>(good.begin(), good.begin() + cut));
    const auto result =
        serve::FrozenEncoder::Load(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " loaded";
  }

  // Byte corruptions across the whole file. Flips inside the header or any
  // record must be rejected (magic/version/size checks or CRC). Payload bit
  // flips are CRC-caught, so corruption never silently loads. Bytes 8..15
  // are exempt: they hold the advisory config hash, which by design loads
  // with a warning (shapes are checked per tensor).
  common::Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = good;
    size_t at = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(bad.size())));
    if (at >= 8 && at < 16) at += 8;
    bad[at] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
    WriteFileBytes(path, bad);
    const auto result =
        serve::FrozenEncoder::Load(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << "byte flip at " << at << " loaded";
  }

  // Pure garbage of various sizes.
  for (const size_t n : {0u, 1u, 7u, 64u, 4096u}) {
    std::vector<uint8_t> garbage(n);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    WriteFileBytes(path, garbage);
    const auto result =
        serve::FrozenEncoder::Load(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << "garbage of " << n << " bytes loaded";
  }
}

TEST_F(ServeTest, ServiceMatchesDirectEncodes) {
  const auto frozen = LoadFrozen();
  serve::ServiceConfig sc;
  sc.num_workers = 2;
  sc.batch_deadline_us = 100;
  serve::EmbeddingService service(frozen.get(), sc);

  const size_t n = std::min<size_t>(corpus_->size(), 16);
  std::vector<std::future<serve::EmbeddingRow>> futures;
  for (size_t i = 0; i < n; ++i) {
    auto result = service.Encode((*corpus_)[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    futures.push_back(std::move(result).value());
  }
  for (size_t i = 0; i < n; ++i) {
    const serve::EmbeddingRow row = futures[i].get();
    const tensor::Tensor direct =
        frozen->EncodeBatch({&(*corpus_)[i]}, eval::EncodeMode::kFull);
    ASSERT_EQ(row.dim(), frozen->dim());
    EXPECT_EQ(std::memcmp(row.data(), direct.data(),
                          static_cast<size_t>(row.dim()) * sizeof(float)),
              0)
        << "request " << i;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(n));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GT(stats.padding_efficiency(), 0.0);
}

TEST_F(ServeTest, ServiceRejectsInvalidRequestsSynchronously) {
  const auto frozen = LoadFrozen();
  serve::EmbeddingService service(frozen.get());
  traj::Trajectory empty;
  EXPECT_FALSE(service.Encode(empty).ok());
  const auto sync = service.EncodeSync((*corpus_)[0]);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(static_cast<int64_t>(sync.value().size()), frozen->dim());
}

TEST_F(ServeTest, EmbeddingRowsShareBatchStorageZeroCopy) {
  const auto frozen = LoadFrozen();
  serve::ServiceConfig sc;
  sc.batch_deadline_us = 20000;  // generous window: coalesce all four
  serve::EmbeddingService service(frozen.get(), sc);
  // Four copies of one trajectory share a length bucket: one batch.
  std::vector<std::future<serve::EmbeddingRow>> futures;
  for (size_t i = 0; i < 4; ++i) {
    auto result = service.Encode((*corpus_)[0]);
    ASSERT_TRUE(result.ok());
    futures.push_back(std::move(result).value());
  }
  std::vector<serve::EmbeddingRow> rows;
  for (auto& f : futures) rows.push_back(f.get());
  if (service.stats().batches == 1) {
    // All rows alias one dense [4, d] buffer: consecutive row pointers.
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].data(), rows[0].data() + i * rows[0].dim());
    }
  }
}

TEST_F(ServeTest, LinearProbeLeavesEncoderFrozen) {
  // The finetune_encoder=false task path embeds the split once through the
  // no-grad inference surface and trains only the head: encoder parameters
  // must come out bitwise untouched and the probe must still fit.
  core::StartEncoder encoder(model_);
  std::vector<std::vector<float>> before;
  for (const auto& p : model_->Parameters()) {
    const tensor::Tensor dense = p.is_contiguous() ? p : p.Detach();
    before.emplace_back(dense.data(), dense.data() + dense.numel());
  }
  const size_t split = corpus_->size() / 2;
  const std::vector<traj::Trajectory> train(corpus_->begin(),
                                            corpus_->begin() + split);
  const std::vector<traj::Trajectory> test(corpus_->begin() + split,
                                           corpus_->end());
  eval::TaskConfig task;
  task.epochs = 2;
  task.batch_size = 8;
  task.finetune_encoder = false;
  const auto result = eval::FinetuneEta(&encoder, train, test, task);
  EXPECT_TRUE(std::isfinite(result.metrics.mae));
  EXPECT_EQ(result.pred_minutes.size(), test.size());
  const auto params = model_->Parameters();
  ASSERT_EQ(params.size(), before.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const tensor::Tensor dense =
        params[i].is_contiguous() ? params[i] : params[i].Detach();
    EXPECT_EQ(std::memcmp(dense.data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "parameter " << i << " mutated by the linear probe";
  }
}

TEST_F(ServeTest, TasksShareTheirPreconditions) {
  // Both tasks refuse an empty split and a one-trajectory train split (no
  // batch would run: the head would stay at its random init), and
  // classification refuses a test label outside [0, num_classes) before any
  // training step runs.
  core::StartEncoder encoder(model_);
  const std::vector<traj::Trajectory> train(corpus_->begin(),
                                            corpus_->begin() + 4);
  const std::vector<traj::Trajectory> test(corpus_->begin() + 4,
                                           corpus_->begin() + 6);
  const std::vector<traj::Trajectory> none;
  const std::vector<traj::Trajectory> one(corpus_->begin(),
                                          corpus_->begin() + 1);
  const eval::TaskConfig task;
  const eval::LabelFn zero = [](const traj::Trajectory&) -> int64_t {
    return 0;
  };
  EXPECT_DEATH(eval::FinetuneEta(&encoder, none, test, task), "!train.empty");
  EXPECT_DEATH(eval::FinetuneEta(&encoder, train, none, task), "!test.empty");
  EXPECT_DEATH(eval::FinetuneClassification(&encoder, none, test, zero, 2, 1,
                                            task),
               "!train.empty");
  EXPECT_DEATH(eval::FinetuneClassification(&encoder, train, none, zero, 2, 1,
                                            task),
               "!test.empty");
  EXPECT_DEATH(eval::FinetuneEta(&encoder, one, test, task),
               "at least 2 items, got 1");
  EXPECT_DEATH(eval::FinetuneClassification(&encoder, one, test, zero, 2, 1,
                                            task),
               "at least 2 items, got 1");
  const eval::LabelFn two_on_test = [&](const traj::Trajectory& t) {
    return &t == &test[1] ? int64_t{2} : int64_t{0};
  };
  EXPECT_DEATH(eval::FinetuneClassification(&encoder, train, test,
                                            two_on_test, 2, 1, task),
               "label 2 of trajectory 1 outside");
}

// ---------------------------------------------------------------------------
// Int8 quantized serving: error budget, determinism, snapshot artifacts.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, QuantizedEncoderStaysWithinCosineBudget) {
  const auto f32 = LoadFrozen();
  const auto q = LoadFrozenInt8();
  EXPECT_EQ(q->precision(), serve::Precision::kInt8);
  // Every stage-2 projection Linear quantizes: wq/wk/wv/wo + fc1/fc2 per
  // encoder layer, and nothing else (GAT, heads, norms stay f32).
  EXPECT_EQ(q->quantized_layer_count(), 6 * config_->encoder_layers);
  EXPECT_EQ(f32->quantized_layer_count(), 0);

  const auto ref = f32->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const auto got = q->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const auto cosines = RowCosines(ref, got, f32->dim());
  ASSERT_EQ(cosines.size(), corpus_->size());
  for (size_t i = 0; i < cosines.size(); ++i) {
    // The serving error budget (documented in ARCHITECTURE.md): per-
    // embedding cosine vs the f32 reference stays >= 0.999.
    EXPECT_GE(cosines[i], 0.999) << "trajectory " << i;
  }
}

TEST_F(ServeTest, QuantizedKnnPrecisionAgainstExactF32Index) {
  const auto f32 = LoadFrozen();
  const auto q = LoadFrozenInt8();
  const auto ref = f32->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const auto got = q->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const int64_t n = static_cast<int64_t>(corpus_->size());
  ASSERT_GE(n, 10);
  serve::EmbeddingIndex index(f32->dim());
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  ASSERT_TRUE(index.AddBatch(ids, ref).ok());
  const auto precision = serve::KnnPrecision(index, ref, got, n, /*k=*/10);
  ASSERT_TRUE(precision.ok()) << precision.status().ToString();
  // Downstream error budget: quantized queries recover >= 90% of the f32
  // exact top-10.
  EXPECT_GE(*precision, 0.9);
}

TEST_F(ServeTest, QuantizationIsBitwiseDeterministic) {
  // Two independent quantizations of the same checkpoint embed bitwise
  // identically, and two snapshot saves produce byte-identical artifacts.
  const auto q1 = LoadFrozenInt8();
  const auto q2 = LoadFrozenInt8();
  const auto e1 = q1->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const auto e2 = q2->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  ASSERT_EQ(e1.size(), e2.size());
  EXPECT_EQ(std::memcmp(e1.data(), e2.data(), e1.size() * sizeof(float)), 0);

  const std::string snap1 = TempPath("snap_det1.sttn");
  const std::string snap2 = TempPath("snap_det2.sttn");
  ASSERT_TRUE(q1->SaveSnapshot(snap1).ok());
  ASSERT_TRUE(q2->SaveSnapshot(snap2).ok());
  EXPECT_EQ(ReadFileBytes(snap1), ReadFileBytes(snap2));
}

TEST_F(ServeTest, SnapshotRoundTripServesWithinBudget) {
  const auto f32 = LoadFrozen();
  const auto q = LoadFrozenInt8();
  const std::string snap = TempPath("snap_roundtrip.sttn");
  ASSERT_TRUE(q->SaveSnapshot(snap).ok());
  // The serving artifact is substantially smaller than the training
  // checkpoint (int8 weights, f16 table, no GAT / MLM head).
  EXPECT_LT(ReadFileBytes(snap).size(),
            ReadFileBytes(*checkpoint_path_).size() / 2);

  auto loaded =
      serve::FrozenEncoder::LoadSnapshot(snap, *config_, city_, transfer_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->precision(), serve::Precision::kInt8);
  EXPECT_EQ((*loaded)->quantized_layer_count(), q->quantized_layer_count());

  // quantize -> save -> load -> embed is bitwise reproducible across runs.
  auto loaded2 =
      serve::FrozenEncoder::LoadSnapshot(snap, *config_, city_, transfer_);
  ASSERT_TRUE(loaded2.ok());
  const auto a = (*loaded)->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  const auto b = (*loaded2)->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);

  // The f16 ext_table adds error on top of int8, but the end-to-end budget
  // still holds against the f32 reference.
  const auto ref = f32->EmbedAll(*corpus_, eval::EncodeMode::kFull);
  for (const double c : RowCosines(ref, a, f32->dim())) {
    EXPECT_GE(c, 0.999);
  }
}

TEST_F(ServeTest, LoadSnapshotRejectsPlainCheckpointAndWrongArch) {
  // A plain model checkpoint is not a snapshot: clean error, no crash.
  const auto as_snapshot = serve::FrozenEncoder::LoadSnapshot(
      *checkpoint_path_, *config_, city_, transfer_);
  EXPECT_FALSE(as_snapshot.ok());

  const auto q = LoadFrozenInt8();
  const std::string snap = TempPath("snap_arch.sttn");
  ASSERT_TRUE(q->SaveSnapshot(snap).ok());
  core::StartConfig wider = *config_;
  wider.d = 32;
  const auto wrong =
      serve::FrozenEncoder::LoadSnapshot(snap, wider, city_, transfer_);
  EXPECT_FALSE(wrong.ok());  // config-hash mismatch
  // And the snapshot cannot be loaded through the checkpoint path either.
  const auto as_checkpoint =
      serve::FrozenEncoder::Load(snap, *config_, city_, transfer_);
  EXPECT_FALSE(as_checkpoint.ok());
}

TEST_F(ServeTest, LoadSnapshotSurvivesTruncatedAndCorruptFiles) {
  // The load-path fuzz sweep of LoadSurvivesTruncatedAndCorruptFiles,
  // repeated against the new int8/f16 record types. No exemption window
  // here: the snapshot's meta tag is checked strictly, so every single-byte
  // flip must be rejected (by magic/version/shape checks, the config hash,
  // or a record CRC) — never crash, never load silently.
  const auto q = LoadFrozenInt8();
  const std::string good_path = TempPath("snap_fuzz_good.sttn");
  ASSERT_TRUE(q->SaveSnapshot(good_path).ok());
  const std::vector<uint8_t> good = ReadFileBytes(good_path);
  ASSERT_GT(good.size(), 64u);
  const std::string path = TempPath("snap_fuzz.sttn");

  std::vector<size_t> cuts;
  for (size_t i = 0; i < 64; ++i) cuts.push_back(i);
  for (size_t i = 64; i < good.size(); i += good.size() / 97 + 1) {
    cuts.push_back(i);
  }
  for (const size_t cut : cuts) {
    WriteFileBytes(path,
                   std::vector<uint8_t>(good.begin(), good.begin() + cut));
    const auto result =
        serve::FrozenEncoder::LoadSnapshot(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " loaded";
  }

  common::Rng rng(4321);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(bad.size())));
    bad[at] ^= static_cast<uint8_t>(1 + rng.UniformInt(255));
    WriteFileBytes(path, bad);
    const auto result =
        serve::FrozenEncoder::LoadSnapshot(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << "byte flip at " << at << " loaded";
  }
}

TEST_F(ServeTest, LoadSnapshotRejectsCraftedQuantizedRecords) {
  // Structurally valid containers (correct CRCs) whose quantized records are
  // semantically poisoned: NaN/inf scales, truncated scale arrays, shape
  // mismatches. The reader or LoadSnapshot must reject each with a clean
  // Status.
  const auto q = LoadFrozenInt8();
  const std::string good_path = TempPath("snap_craft_good.sttn");
  ASSERT_TRUE(q->SaveSnapshot(good_path).ok());
  auto loaded = tensor::LoadBundle(good_path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(loaded->records.qtensors.empty());
  const std::string first_q = loaded->records.qtensors.begin()->first;
  const std::string path = TempPath("snap_craft.sttn");

  const auto expect_rejected = [&](const char* what,
                                   const tensor::LoadedBundle& bundle) {
    SCOPED_TRACE(what);
    ASSERT_TRUE(
        tensor::SaveBundle(path, bundle.meta_tag, bundle.records).ok());
    const auto result =
        serve::FrozenEncoder::LoadSnapshot(path, *config_, city_, transfer_);
    EXPECT_FALSE(result.ok()) << what << " loaded";
  };

  {
    tensor::LoadedBundle bad = *loaded;
    bad.records.qtensors[first_q].scales[0] =
        std::numeric_limits<float>::quiet_NaN();
    expect_rejected("NaN scale", bad);
  }
  {
    tensor::LoadedBundle bad = *loaded;
    bad.records.qtensors[first_q].scales.back() =
        std::numeric_limits<float>::infinity();
    expect_rejected("inf scale", bad);
  }
  {
    tensor::LoadedBundle bad = *loaded;
    bad.records.qtensors[first_q].scales[0] = -0.25f;
    expect_rejected("negative scale", bad);
  }
  {
    // Shape mismatch: a tiny 1x1 record under a real layer path.
    tensor::LoadedBundle bad = *loaded;
    tensor::QuantizedTensor tiny;
    tiny.rows = 1;
    tiny.cols = 1;
    tiny.scales = {0.5f};
    tiny.data = {7};
    bad.records.qtensors[first_q] = tiny;
    expect_rejected("shape mismatch", bad);
  }
  {
    // Truncated scale array: drop the last scale and the last row of codes
    // so the record stays self-consistent (rows-1) but no longer matches
    // the layer.
    tensor::LoadedBundle bad = *loaded;
    tensor::QuantizedTensor& t = bad.records.qtensors[first_q];
    t.rows -= 1;
    t.scales.pop_back();
    t.data.resize(static_cast<size_t>(t.rows * t.cols));
    expect_rejected("truncated scale array", bad);
  }
  {
    // A quantized record under a path that is not a Linear.
    tensor::LoadedBundle bad = *loaded;
    bad.records.qtensors["minute_embedding"] =
        loaded->records.qtensors.at(first_q);
    expect_rejected("non-Linear target", bad);
  }
  {
    // Missing ext_table.
    tensor::LoadedBundle bad = *loaded;
    bad.records.halfs.erase("ext_table");
    expect_rejected("missing ext_table", bad);
  }
}

// ---------------------------------------------------------------------------
// EmbeddingIndex
// ---------------------------------------------------------------------------

TEST(EmbeddingIndexTest, QueryRanksByCosineSimilarity) {
  serve::EmbeddingIndex index(2);
  ASSERT_TRUE(index.Add(10, {1.0f, 0.0f}).ok());
  ASSERT_TRUE(index.Add(20, {0.0f, 1.0f}).ok());
  ASSERT_TRUE(index.Add(30, {1.0f, 1.0f}).ok());
  EXPECT_EQ(index.size(), 3);

  const auto result = index.Query({2.0f, 0.1f}, 2);  // closest to +x
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].id, 10);
  EXPECT_EQ((*result)[1].id, 30);
  EXPECT_GT((*result)[0].score, (*result)[1].score);
  // Normalization: magnitude does not matter.
  const auto scaled = index.Query({200.0f, 10.0f}, 2);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ((*scaled)[0].id, 10);
  EXPECT_FLOAT_EQ((*scaled)[0].score, (*result)[0].score);
}

TEST(EmbeddingIndexTest, ExactTiesBreakTowardEarlierInsertion) {
  serve::EmbeddingIndex index(2);
  // Two identical embeddings under different ids: a perfect tie.
  ASSERT_TRUE(index.Add(7, {3.0f, 4.0f}).ok());
  ASSERT_TRUE(index.Add(5, {3.0f, 4.0f}).ok());
  ASSERT_TRUE(index.Add(1, {-4.0f, 3.0f}).ok());
  const auto result = index.Query({3.0f, 4.0f}, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ((*result)[0].id, 7);  // inserted before id 5
  EXPECT_EQ((*result)[1].id, 5);
  EXPECT_EQ((*result)[2].id, 1);
}

TEST(EmbeddingIndexTest, AddRemoveContainsLifecycle) {
  serve::EmbeddingIndex index(3);
  ASSERT_TRUE(index.Add(1, {1, 0, 0}).ok());
  ASSERT_TRUE(index.Add(2, {0, 1, 0}).ok());
  ASSERT_TRUE(index.Add(3, {0, 0, 1}).ok());
  EXPECT_TRUE(index.Add(2, {1, 1, 1}).code() ==
              common::StatusCode::kAlreadyExists);
  EXPECT_TRUE(index.Contains(2));
  ASSERT_TRUE(index.Remove(2).ok());
  EXPECT_FALSE(index.Contains(2));
  EXPECT_EQ(index.size(), 2);
  EXPECT_TRUE(index.Remove(2).code() == common::StatusCode::kNotFound);
  // Removed entries stop matching; survivors still do (swap-with-last).
  const auto result = index.Query({0, 0, 1}, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].id, 3);
}

TEST(EmbeddingIndexTest, RejectsMalformedInput) {
  serve::EmbeddingIndex index(4);
  EXPECT_FALSE(index.Add(1, {1.0f, 2.0f}).ok());        // wrong dim
  EXPECT_FALSE(index.Add(1, {0, 0, 0, 0}).ok());        // zero norm
  ASSERT_TRUE(index.Add(1, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(index.Query({1.0f, 2.0f}, 1).ok());      // wrong dim
  EXPECT_FALSE(index.Query({0, 0, 0, 0}, 1).ok());      // zero norm
  EXPECT_FALSE(index.Query({1, 2, 3, 4}, 0).ok());      // bad k
  const auto result = index.Query({1, 2, 3, 4}, 10);    // k > size: clamped
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(EmbeddingIndexTest, AddBatchIsAtomic) {
  serve::EmbeddingIndex index(2);
  ASSERT_TRUE(index.Add(5, {1, 0}).ok());
  // Second row collides with id 5: nothing from the batch may land.
  EXPECT_FALSE(index.AddBatch({9, 5}, {1, 0, 0, 1}).ok());
  EXPECT_FALSE(index.Contains(9));
  EXPECT_EQ(index.size(), 1);
  // Zero row mid-batch: same story.
  EXPECT_FALSE(index.AddBatch({11, 12}, {1, 0, 0, 0}).ok());
  EXPECT_FALSE(index.Contains(11));
  // Duplicate ids inside one batch would desynchronise the slot/id maps.
  EXPECT_FALSE(index.AddBatch({13, 13}, {1, 0, 0, 1}).ok());
  EXPECT_FALSE(index.Contains(13));
  EXPECT_EQ(index.size(), 1);
}

TEST(EmbeddingIndexTest, EvaluateMostSimilarSelfRetrieval) {
  common::Rng rng(9);
  const int64_t n = 20, d = 8;
  serve::EmbeddingIndex index(d);
  std::vector<float> rows(static_cast<size_t>(n * d));
  for (auto& v : rows) v = static_cast<float>(rng.Normal());
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(100 + i);
  ASSERT_TRUE(index.AddBatch(ids, rows).ok());
  // Querying with the database rows themselves: every query's ground truth
  // is its own id, so MR = 1 and HR@1 = 1.
  const auto metrics = index.EvaluateMostSimilar(rows, n, ids);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_DOUBLE_EQ(metrics->mean_rank, 1.0);
  EXPECT_DOUBLE_EQ(metrics->hr_at_1, 1.0);
  const auto missing = index.EvaluateMostSimilar(rows, n, {});
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace start
