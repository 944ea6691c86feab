#include "tensor/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "tensor/tensor.h"
#include "testing.h"

namespace start::tensor {
namespace {

/// One scratch directory per test binary, removed at exit.
std::string TempPath(const char* name) {
  static testutil::TempDir dir;
  return dir.File(name);
}

TEST(SerializeTest, RoundTripPreservesDataAndShapes) {
  common::Rng rng(1);
  std::map<std::string, Tensor> tensors;
  tensors.emplace("a", Tensor::Rand(Shape({3, 4}), &rng, -1, 1));
  tensors.emplace("b.weight", Tensor::Rand(Shape({7}), &rng, -1, 1));
  tensors.emplace("c.bias", Tensor::Rand(Shape({2, 2, 2}), &rng, -1, 1));
  const std::string path = TempPath("roundtrip.sttn");
  ASSERT_TRUE(SaveTensors(path, tensors).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 3u);
  for (const auto& [name, t] : tensors) {
    const auto it = loaded->find(name);
    ASSERT_NE(it, loaded->end()) << name;
    ASSERT_EQ(it->second.shape(), t.shape());
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_EQ(it->second.data()[i], t.data()[i]);
    }
  }
}

TEST(SerializeTest, MissingFileIsIOError) {
  const auto result = LoadTensors("/nonexistent/path/x.sttn");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIOError);
}

TEST(SerializeTest, CorruptMagicIsInvalidArgument) {
  const std::string path = TempPath("corrupt.sttn");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("JUNKJUNKJUNKJUNKJUNK", 1, 20, f);
  std::fclose(f);
  const auto result = LoadTensors(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, EmptyMapRoundTrips) {
  const std::string path = TempPath("empty.sttn");
  ASSERT_TRUE(SaveTensors(path, {}).ok());
  const auto result = LoadTensors(path);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

// ---------------------------------------------------------------------------
// Low-precision record kinds (int8 + f16).
// ---------------------------------------------------------------------------

TEST(SerializeTest, QuantizedTensorRoundTripsBitwise) {
  common::Rng rng(11);
  QuantizedTensor q;
  q.rows = 5;
  q.cols = 37;
  q.scales.resize(static_cast<size_t>(q.rows));
  q.data.resize(static_cast<size_t>(q.rows * q.cols));
  for (auto& s : q.scales) s = static_cast<float>(rng.Uniform(0.0, 0.1));
  for (auto& v : q.data) {
    v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  }
  RecordBundle bundle;
  bundle.qtensors.emplace("enc.wq", q);
  const std::string path = TempPath("quantized.sttn");
  ASSERT_TRUE(SaveBundle(path, 42, bundle).ok());
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta_tag, 42u);
  ASSERT_EQ(loaded->records.qtensors.size(), 1u);
  const QuantizedTensor& got = loaded->records.qtensors.at("enc.wq");
  EXPECT_EQ(got.rows, q.rows);
  EXPECT_EQ(got.cols, q.cols);
  EXPECT_EQ(got.data, q.data);
  testutil::ExpectFloatsBitwiseEqual(got.scales, q.scales, "scales");
}

TEST(SerializeTest, InconsistentQuantizedTensorRejectedAtWrite) {
  QuantizedTensor q;
  q.rows = 2;
  q.cols = 3;
  q.scales = {0.5f};  // wrong: needs rows entries
  q.data.assign(6, 1);
  RecordBundle bundle;
  bundle.qtensors.emplace("bad", q);
  const auto status = SaveBundle(TempPath("badq.sttn"), 0, bundle);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, HalfTensorRoundTripsThroughF16) {
  common::Rng rng(12);
  const Tensor t = Tensor::Rand(Shape({6, 9}), &rng, -3, 3);
  RecordBundle bundle;
  bundle.halfs.emplace("table", t);
  const std::string path = TempPath("half.sttn");
  ASSERT_TRUE(SaveBundle(path, 7, bundle).ok());
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->records.halfs.size(), 1u);
  const Tensor& got = loaded->records.halfs.at("table");
  ASSERT_EQ(got.shape(), t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) {
    // The round trip is exactly one f32 -> f16 -> f32 conversion.
    EXPECT_EQ(got.data()[i], F16ToF32(F32ToF16(t.data()[i]))) << "at " << i;
    // f16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_NEAR(got.data()[i], t.data()[i],
                std::abs(t.data()[i]) * (1.0f / 2048) + 1e-6f);
  }
}

TEST(SerializeTest, F16ConversionProperties) {
  // Exactly representable values survive unchanged.
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2048.0f, -0.09375f,
                        65504.0f /* f16 max */}) {
    EXPECT_EQ(F16ToF32(F32ToF16(v)), v) << v;
  }
  // Signed zero, inf, overflow-to-inf, NaN.
  EXPECT_EQ(F32ToF16(-0.0f), 0x8000);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(F16ToF32(F32ToF16(inf)), inf);
  EXPECT_EQ(F16ToF32(F32ToF16(-inf)), -inf);
  EXPECT_EQ(F16ToF32(F32ToF16(1e30f)), inf) << "overflow saturates to inf";
  EXPECT_TRUE(std::isnan(F16ToF32(F32ToF16(std::nanf("")))));
  // Subnormal f16 range round-trips within one ulp (2^-24).
  EXPECT_NEAR(F16ToF32(F32ToF16(3e-7f)), 3e-7f, 6e-8f);
  // Tiny values flush toward zero rather than misparse.
  EXPECT_EQ(F16ToF32(F32ToF16(1e-30f)), 0.0f);
  // Round-to-nearest-even at the 10-bit boundary: 2049 is exactly halfway
  // between representable 2048 and 2050 -> even mantissa wins (2048).
  EXPECT_EQ(F16ToF32(F32ToF16(2049.0f)), 2048.0f);
  EXPECT_EQ(F16ToF32(F32ToF16(2051.0f)), 2052.0f);
}

/// Builds a structurally valid v2 file holding a single crafted int8 record
/// (with a correct CRC), so reader validation — not CRC — is what must
/// reject it.
std::string WriteCraftedInt8File(const char* filename, int64_t rows,
                                 int64_t cols, uint64_t scale_count,
                                 size_t scale_bytes, size_t code_bytes) {
  const std::string path = TempPath(filename);
  std::vector<uint8_t> rec;
  const auto append = [&rec](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    rec.insert(rec.end(), b, b + n);
  };
  const std::string name = "w";
  const uint32_t name_len = static_cast<uint32_t>(name.size());
  append(&name_len, sizeof(name_len));
  append(name.data(), name.size());
  const uint8_t kind = 4;  // kTensorI8
  append(&kind, sizeof(kind));
  append(&rows, sizeof(rows));
  append(&cols, sizeof(cols));
  append(&scale_count, sizeof(scale_count));
  const std::vector<uint8_t> zeros(std::max(scale_bytes, code_bytes), 0);
  append(zeros.data(), scale_bytes);
  append(zeros.data(), code_bytes);
  const uint32_t crc = common::Crc32(rec.data(), rec.size());

  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  const uint32_t version = 2;
  const uint64_t meta_tag = 0;
  const uint64_t count = 1;
  std::fwrite("STTN", 1, 4, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&meta_tag, sizeof(meta_tag), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(rec.data(), 1, rec.size(), f);
  std::fwrite(&crc, sizeof(crc), 1, f);
  std::fclose(f);
  return path;
}

TEST(SerializeTest, Int8RecordValidationRejectsCraftedHeaders) {
  struct Case {
    const char* what;
    std::string path;
  };
  const std::vector<Case> cases = {
      {"scale count != rows",
       WriteCraftedInt8File("q_scalemismatch.sttn", /*rows=*/4, /*cols=*/2,
                            /*scale_count=*/3, /*scale_bytes=*/12,
                            /*code_bytes=*/8)},
      {"negative rows",
       WriteCraftedInt8File("q_negrows.sttn", /*rows=*/-1, /*cols=*/2,
                            /*scale_count=*/1, /*scale_bytes=*/4,
                            /*code_bytes=*/2)},
      {"zero cols",
       WriteCraftedInt8File("q_zerocols.sttn", /*rows=*/1, /*cols=*/0,
                            /*scale_count=*/1, /*scale_bytes=*/4,
                            /*code_bytes=*/0)},
      {"payload larger than file",
       WriteCraftedInt8File("q_hugepayload.sttn", /*rows=*/1000000,
                            /*cols=*/1000000, /*scale_count=*/1000000,
                            /*scale_bytes=*/8, /*code_bytes=*/8)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const auto result = LoadBundle(c.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(SerializeTest, TruncatedInt8ScalesIsCleanError) {
  // Valid header claiming 4 scale floats + 8 codes, but the file ends after
  // 2 scale floats: the reader must report an error, never crash.
  const std::string path =
      WriteCraftedInt8File("q_truncscales.sttn", /*rows=*/4, /*cols=*/2,
                           /*scale_count=*/4, /*scale_bytes=*/16,
                           /*code_bytes=*/8);
  // Reopen and truncate mid-scales (header is 24 bytes; record starts with
  // 4+1+1 name/kind bytes then 24 header bytes, then scales).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), 24 + 6 + 24 + 8), 0);
  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  // Truncation may surface as IOError (short read) or InvalidArgument
  // (payload no longer fits) depending on where the cut lands; both are
  // clean Status failures.
  EXPECT_TRUE(result.status().code() == common::StatusCode::kIOError ||
              result.status().code() ==
                  common::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, MixedBundleWithAllKindsRoundTrips) {
  common::Rng rng(13);
  RecordBundle bundle;
  bundle.tensors.emplace("f32", Tensor::Rand(Shape({2, 3}), &rng, -1, 1));
  bundle.doubles.emplace("d", std::vector<double>{1.5, -2.5});
  bundle.ints.emplace("i", std::vector<int64_t>{-7, 9});
  bundle.uints.emplace("u", std::vector<uint64_t>{42});
  QuantizedTensor q;
  q.rows = 1;
  q.cols = 4;
  q.scales = {0.25f};
  q.data = {1, -2, 3, -4};
  bundle.qtensors.emplace("q", q);
  bundle.halfs.emplace("h", Tensor::Rand(Shape({5}), &rng, -1, 1));
  const std::string path = TempPath("mixed.sttn");
  ASSERT_TRUE(SaveBundle(path, 99, bundle).ok());
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.tensors.size(), 1u);
  EXPECT_EQ(loaded->records.doubles.at("d"), bundle.doubles.at("d"));
  EXPECT_EQ(loaded->records.ints.at("i"), bundle.ints.at("i"));
  EXPECT_EQ(loaded->records.uints.at("u"), bundle.uints.at("u"));
  EXPECT_EQ(loaded->records.qtensors.at("q").data, q.data);
  EXPECT_EQ(loaded->records.halfs.at("h").numel(), 5);
}

TEST(SerializeTest, Int32ArrayRoundTripsBitwise) {
  RecordBundle bundle;
  bundle.ints32.emplace(
      "links", std::vector<int32_t>{0, -1, 2147483647, -2147483648, 17});
  bundle.ints32.emplace("empty", std::vector<int32_t>{});
  const std::string path = TempPath("ints32.sttn");
  ASSERT_TRUE(SaveBundle(path, 5, bundle).ok());
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta_tag, 5u);
  ASSERT_EQ(loaded->records.ints32.size(), 2u);
  EXPECT_EQ(loaded->records.ints32.at("links"), bundle.ints32.at("links"));
  EXPECT_TRUE(loaded->records.ints32.at("empty").empty());
}

TEST(SerializeTest, TruncatedInt32ArrayIsCleanError) {
  RecordBundle bundle;
  bundle.ints32.emplace("links", std::vector<int32_t>(64, 7));
  const std::string path = TempPath("ints32_trunc.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());
  const std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
  // Cut mid-payload: the length word claims 64 entries the file lacks.
  testutil::WriteFileBytes(
      path, std::vector<uint8_t>(bytes.begin(),
                                 bytes.begin() + (bytes.size() - 100)));
  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == common::StatusCode::kIOError ||
              result.status().code() ==
                  common::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, CorruptInt32ArrayFailsCrc) {
  RecordBundle bundle;
  bundle.ints32.emplace("links", std::vector<int32_t>(16, 9));
  const std::string path = TempPath("ints32_crc.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());
  std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
  bytes[bytes.size() - 12] ^= 0x08;  // flip a payload bit behind the CRC
  testutil::WriteFileBytes(path, bytes);
  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, CorruptQuantizedRecordFailsCrc) {
  QuantizedTensor q;
  q.rows = 2;
  q.cols = 8;
  q.scales = {0.5f, 0.25f};
  q.data.assign(16, 3);
  RecordBundle bundle;
  bundle.qtensors.emplace("q", q);
  const std::string path = TempPath("qcrc.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, bundle).ok());
  std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
  bytes[bytes.size() - 8] ^= 0x40;  // flip a bit inside the code payload
  testutil::WriteFileBytes(path, bytes);
  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

/// One record of every kind, with a multi-dim tensor and an empty array, so
/// the sweeps below cut and flip inside every header and payload layout.
RecordBundle AllKindsBundle() {
  common::Rng rng(14);
  RecordBundle bundle;
  bundle.tensors.emplace("f32", Tensor::Rand(Shape({2, 3}), &rng, -1, 1));
  bundle.doubles.emplace("d", std::vector<double>{1.5, -2.5});
  bundle.ints.emplace("i", std::vector<int64_t>{-7, 9});
  bundle.uints.emplace("u", std::vector<uint64_t>{42});
  bundle.ints32.emplace("i32", std::vector<int32_t>{3, -4, 5});
  bundle.ints32.emplace("i32.empty", std::vector<int32_t>{});
  QuantizedTensor q;
  q.rows = 2;
  q.cols = 3;
  q.scales = {0.25f, 0.5f};
  q.data = {1, -2, 3, -4, 5, -6};
  bundle.qtensors.emplace("q", q);
  bundle.halfs.emplace("h", Tensor::Rand(Shape({5}), &rng, -1, 1));
  return bundle;
}

void ExpectCleanLoadError(const std::string& path, const std::string& what) {
  const auto result = LoadBundle(path);
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_TRUE(result.status().code() == common::StatusCode::kIOError ||
              result.status().code() == common::StatusCode::kInvalidArgument)
      << what << ": " << result.status().ToString();
}

// STTN v2 header: magic (4), version (4), meta_tag (8), record count (8).
constexpr size_t kMetaTagAt = 8;
constexpr size_t kHeaderBytes = 24;

TEST(SerializeTest, TruncationAtEveryByteIsCleanError) {
  const std::string path = TempPath("sweep_trunc.sttn");
  ASSERT_TRUE(SaveBundle(path, 77, AllKindsBundle()).ok());
  const std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
  ASSERT_TRUE(LoadBundle(path).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    testutil::WriteFileBytes(
        path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    ExpectCleanLoadError(path, "cut at " + std::to_string(cut));
  }
}

TEST(SerializeTest, BitFlipAtEveryBitIsCleanError) {
  const std::string path = TempPath("sweep_flip.sttn");
  ASSERT_TRUE(SaveBundle(path, 77, AllKindsBundle()).ok());
  const std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
  for (size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[at] ^= static_cast<uint8_t>(1u << bit);
      testutil::WriteFileBytes(path, flipped);
      const std::string what = "flip of bit " + std::to_string(bit) +
                               " at byte " + std::to_string(at);
      if (at >= kMetaTagAt && at < kMetaTagAt + sizeof(uint64_t)) {
        // No CRC covers the meta_tag; its callers check it (snapshot, HNSW
        // and CH loaders reject a foreign tag, checkpoints warn), so the
        // loader must hand the corrupted value back, not the original.
        const auto result = LoadBundle(path);
        ASSERT_TRUE(result.ok()) << what;
        EXPECT_NE(result->meta_tag, 77u) << what;
        continue;
      }
      ExpectCleanLoadError(path, what);
    }
  }
}

TEST(SerializeTest, RepeatedNameWithinAKindIsInvalidArgument) {
  // For each kind, a file holding the same CRC-valid record twice.
  const RecordBundle all = AllKindsBundle();
  std::vector<RecordBundle> singles(7);
  singles[0].tensors.emplace("x", all.tensors.at("f32"));
  singles[1].doubles.emplace("x", all.doubles.at("d"));
  singles[2].ints.emplace("x", all.ints.at("i"));
  singles[3].uints.emplace("x", all.uints.at("u"));
  singles[4].ints32.emplace("x", all.ints32.at("i32"));
  singles[5].qtensors.emplace("x", all.qtensors.at("q"));
  singles[6].halfs.emplace("x", all.halfs.at("h"));
  for (size_t k = 0; k < singles.size(); ++k) {
    SCOPED_TRACE("kind " + std::to_string(k));
    const std::string path = TempPath("repeat.sttn");
    ASSERT_TRUE(SaveBundle(path, 0, singles[k]).ok());
    std::vector<uint8_t> bytes = testutil::ReadFileBytes(path);
    const std::vector<uint8_t> record(bytes.begin() + kHeaderBytes,
                                      bytes.end());
    bytes.insert(bytes.end(), record.begin(), record.end());
    const uint64_t count = 2;
    std::memcpy(bytes.data() + kHeaderBytes - sizeof(count), &count,
                sizeof(count));
    testutil::WriteFileBytes(path, bytes);
    const auto result = LoadBundle(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument)
        << result.status().ToString();
  }
  // One name in two different kinds is two distinct records.
  RecordBundle shared;
  shared.tensors.emplace("x", all.tensors.at("f32"));
  shared.doubles.emplace("x", all.doubles.at("d"));
  const std::string path = TempPath("shared_name.sttn");
  ASSERT_TRUE(SaveBundle(path, 0, shared).ok());
  const auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.doubles.at("x"), all.doubles.at("d"));
}

}  // namespace
}  // namespace start::tensor
