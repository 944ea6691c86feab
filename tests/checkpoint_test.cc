// Property tests for the versioned checkpoint subsystem: typed-record
// round-trips (including non-contiguous views exported dense), corruption /
// truncation / version-mismatch rejection via per-record CRCs, config-hash
// behaviour, and full model + optimizer state round-trips.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/start_model.h"
#include "nn/optimizer.h"
#include "roadnet/synthetic_city.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "testing.h"

namespace start {
namespace {

using core::LoadModelCheckpoint;
using core::LoadTrainingCheckpoint;
using core::SaveModelCheckpoint;
using core::SaveTrainingCheckpoint;
using tensor::LoadBundle;
using tensor::RecordBundle;
using tensor::SaveBundle;
using tensor::Shape;
using tensor::Tensor;
using testutil::ReadFileBytes;
using testutil::WriteFileBytes;

/// One scratch directory per test binary, removed at exit.
std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

void ExpectTensorsBitwiseEqual(const Tensor& a, const Tensor& b) {
  testutil::ExpectTensorBitwiseEqual(a, b);
}

TEST(CheckpointBundleTest, TypedRecordsRoundTripBitwise) {
  common::Rng rng(7);
  RecordBundle bundle;
  bundle.tensors.emplace("w", Tensor::Rand(Shape({3, 5}), &rng, -1, 1));
  bundle.tensors.emplace("b", Tensor::Rand(Shape({5}), &rng, -1, 1));
  bundle.doubles["loss"] = {0.1, -2.5, 3.14159265358979};
  bundle.ints["steps"] = {-7, 0, 1LL << 40};
  bundle.uints["rng"] = {0xdeadbeefULL, ~0ULL};
  const std::string path = TempPath("bundle_roundtrip.sttn");
  ASSERT_TRUE(SaveBundle(path, 0x1234abcdULL, bundle).ok());

  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta_tag, 0x1234abcdULL);
  ASSERT_EQ(loaded->records.tensors.size(), 2u);
  for (const auto& [name, t] : bundle.tensors) {
    ExpectTensorsBitwiseEqual(t, loaded->records.tensors.at(name));
  }
  EXPECT_EQ(loaded->records.doubles.at("loss"), bundle.doubles.at("loss"));
  EXPECT_EQ(loaded->records.ints.at("steps"), bundle.ints.at("steps"));
  EXPECT_EQ(loaded->records.uints.at("rng"), bundle.uints.at("rng"));
}

TEST(CheckpointBundleTest, NonContiguousViewIsExportedDense) {
  common::Rng rng(11);
  const Tensor base = Tensor::Rand(Shape({4, 6}), &rng, -1, 1);
  const Tensor view = tensor::Transpose(base);  // [6, 4], strided
  ASSERT_FALSE(view.is_contiguous());
  RecordBundle bundle;
  bundle.tensors.emplace("t", view);
  const std::string path = TempPath("bundle_view.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());

  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Tensor& t = loaded->records.tensors.at("t");
  EXPECT_TRUE(t.is_contiguous());
  ASSERT_EQ(t.shape(), view.shape());
  for (int64_t i = 0; i < view.dim(0); ++i) {
    for (int64_t j = 0; j < view.dim(1); ++j) {
      EXPECT_EQ(t.at({i, j}), view.at({i, j}));
    }
  }
}

TEST(CheckpointBundleTest, CorruptedPayloadIsRejectedByCrc) {
  common::Rng rng(13);
  RecordBundle bundle;
  bundle.tensors.emplace("w", Tensor::Rand(Shape({8, 8}), &rng, -1, 1));
  const std::string path = TempPath("bundle_corrupt.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());

  auto bytes = ReadFileBytes(path);
  // Flip one bit in the tensor payload (well past the 24-byte header and the
  // record's name/dims, well before the trailing CRC).
  bytes[bytes.size() - 40] ^= 0x01;
  WriteFileBytes(path, bytes);

  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("CRC"), std::string::npos)
      << result.status().ToString();
}

TEST(CheckpointBundleTest, TruncatedFileIsRejected) {
  common::Rng rng(17);
  RecordBundle bundle;
  bundle.tensors.emplace("w", Tensor::Rand(Shape({16, 16}), &rng, -1, 1));
  bundle.doubles["d"] = {1.0, 2.0};
  const std::string path = TempPath("bundle_trunc.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());

  const auto bytes = ReadFileBytes(path);
  // Every truncation point must fail cleanly: mid-header, mid-record,
  // mid-CRC. (An empty file trips the magic check.)
  for (const size_t keep :
       {size_t{2}, size_t{10}, size_t{30}, bytes.size() / 2,
        bytes.size() - 2}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    WriteFileBytes(path, cut);
    const auto result = LoadBundle(path);
    EXPECT_FALSE(result.ok()) << "truncation at " << keep << " was accepted";
  }
}

TEST(CheckpointBundleTest, FutureVersionIsRejected) {
  common::Rng rng(19);
  RecordBundle bundle;
  bundle.tensors.emplace("w", Tensor::Rand(Shape({2, 2}), &rng, -1, 1));
  const std::string path = TempPath("bundle_version.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());

  auto bytes = ReadFileBytes(path);
  const uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));  // version field
  WriteFileBytes(path, bytes);

  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(CheckpointBundleTest, LegacyV1FileStillLoads) {
  // Hand-written v1 layout: magic, version=1, count, then
  // name_len/name/ndim/dims/f32 data — no meta tag, no CRC.
  const std::string path = TempPath("legacy_v1.sttn");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = 1;
  const uint64_t count = 1;
  const uint32_t name_len = 3;
  const uint32_t ndim = 2;
  const int64_t dims[2] = {2, 2};
  const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  std::fwrite("STTN", 1, 4, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(&name_len, sizeof(name_len), 1, f);
  std::fwrite("old", 1, 3, f);
  std::fwrite(&ndim, sizeof(ndim), 1, f);
  std::fwrite(dims, sizeof(int64_t), 2, f);
  std::fwrite(data, sizeof(float), 4, f);
  std::fclose(f);

  auto loaded = tensor::LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Tensor& t = loaded->at("old");
  ASSERT_EQ(t.shape(), Shape({2, 2}));
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

// ---- Model / optimizer round-trips over a real StartModel -----------------

class ModelCheckpointTest : public ::testing::Test {
 protected:
  ModelCheckpointTest()
      : net_(roadnet::BuildSyntheticCity(
            {.grid_width = 3, .grid_height = 3})) {}

  core::StartConfig TinyConfig() const {
    core::StartConfig config;
    config.d = 8;
    config.gat_layers = 1;
    config.gat_heads = {2};
    config.encoder_layers = 1;
    config.encoder_heads = 2;
    config.max_len = 32;
    return config;
  }

  core::StartModel MakeModel(uint64_t seed) const {
    common::Rng rng(seed);
    return core::StartModel(TinyConfig(), &net_, nullptr, &rng);
  }

  roadnet::RoadNetwork net_;
};

TEST_F(ModelCheckpointTest, EveryParameterRoundTripsBitwise) {
  const auto a = MakeModel(1);
  const std::string path = TempPath("model_roundtrip.sttn");
  const uint64_t hash = core::HashStartConfig(TinyConfig());
  ASSERT_TRUE(SaveModelCheckpoint(path, a, hash).ok());

  auto b = MakeModel(2);  // different init; every value must be overwritten
  ASSERT_TRUE(LoadModelCheckpoint(path, &b, hash).ok());
  const auto named_a = a.NamedParameters();
  const auto named_b = b.NamedParameters();
  ASSERT_EQ(named_a.size(), named_b.size());
  ASSERT_GT(named_a.size(), 10u);  // a real model, not a stub
  for (size_t i = 0; i < named_a.size(); ++i) {
    EXPECT_EQ(named_a[i].first, named_b[i].first);
    ExpectTensorsBitwiseEqual(named_a[i].second, named_b[i].second);
  }
}

TEST_F(ModelCheckpointTest, ConfigHashMismatchStillLoadsWithWarning) {
  const auto a = MakeModel(3);
  const std::string path = TempPath("model_hash_mismatch.sttn");
  ASSERT_TRUE(SaveModelCheckpoint(path, a, /*config_hash=*/111).ok());

  // A different expected hash logs a warning but must not fail the load:
  // shapes are validated per tensor, and cross-config warm-starts (e.g. an
  // ablation variant) are legitimate as long as shapes line up.
  auto b = MakeModel(4);
  ASSERT_TRUE(LoadModelCheckpoint(path, &b, /*expected=*/222).ok());
  ExpectTensorsBitwiseEqual(a.NamedParameters()[0].second,
                            b.NamedParameters()[0].second);
}

TEST_F(ModelCheckpointTest, TrainingCheckpointRestoresOptimizerSlots) {
  auto model = MakeModel(5);
  nn::AdamW opt(model.Parameters(), 1e-3);
  // Drive a couple of updates so the moment buffers are non-trivial.
  for (int iter = 0; iter < 3; ++iter) {
    model.ZeroGrad();
    tensor::Mean(model.ComputeRoadReps()).Backward();
    opt.Step();
  }
  core::TrainerState state;
  state.next_step = 17;
  state.adam_step = opt.step_count();
  state.plan_hash = 42;
  state.loss_sum = {1.5, 0.0};
  state.mask_sum = {0.5, 0.0};
  state.con_sum = {1.0, 0.0};
  state.batch_count = {9, 0};
  const std::string path = TempPath("training_roundtrip.sttn");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, model, opt, state, 1).ok());

  auto restored_model = MakeModel(6);
  nn::AdamW restored_opt(restored_model.Parameters(), 1e-3);
  auto loaded = LoadTrainingCheckpoint(path, &restored_model, &restored_opt,
                                       1, /*expected_plan_hash=*/42);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_step, 17);
  EXPECT_EQ(loaded->adam_step, 3);
  EXPECT_EQ(restored_opt.step_count(), 3);
  EXPECT_EQ(loaded->loss_sum, state.loss_sum);
  EXPECT_EQ(loaded->batch_count, state.batch_count);
  ASSERT_EQ(restored_opt.moment1().size(), opt.moment1().size());
  for (size_t i = 0; i < opt.moment1().size(); ++i) {
    EXPECT_EQ(restored_opt.moment1()[i], opt.moment1()[i]) << "m slot " << i;
    EXPECT_EQ(restored_opt.moment2()[i], opt.moment2()[i]) << "v slot " << i;
  }
}

TEST_F(ModelCheckpointTest, PlanMismatchRefusesResumeBeforeMutating) {
  auto model = MakeModel(7);
  nn::AdamW opt(model.Parameters(), 1e-3);
  core::TrainerState state;
  state.plan_hash = 42;
  state.loss_sum = {0.0};
  state.mask_sum = {0.0};
  state.con_sum = {0.0};
  state.batch_count = {0};
  const std::string path = TempPath("training_plan_mismatch.sttn");
  ASSERT_TRUE(SaveTrainingCheckpoint(path, model, opt, state, 1).ok());

  auto fresh = MakeModel(8);
  const std::vector<float> before(
      fresh.NamedParameters()[0].second.data(),
      fresh.NamedParameters()[0].second.data() +
          fresh.NamedParameters()[0].second.numel());
  nn::AdamW fresh_opt(fresh.Parameters(), 1e-3);
  auto loaded =
      LoadTrainingCheckpoint(path, &fresh, &fresh_opt, 1, /*plan=*/99);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(),
            common::StatusCode::kFailedPrecondition);
  // The refused resume must leave the caller's fresh state untouched.
  // (Tensor handles share storage, so copying the handle out of the
  // temporary NamedParameters() vector is safe.)
  const Tensor p = fresh.NamedParameters()[0].second;
  EXPECT_EQ(std::memcmp(before.data(), p.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST_F(ModelCheckpointTest, ModelOnlyCheckpointCannotResumeTraining) {
  auto model = MakeModel(9);
  const std::string path = TempPath("model_only.sttn");
  ASSERT_TRUE(SaveModelCheckpoint(path, model, 1).ok());
  nn::AdamW opt(model.Parameters(), 1e-3);
  const auto loaded = LoadTrainingCheckpoint(path, &model, &opt, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(),
            common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace start
