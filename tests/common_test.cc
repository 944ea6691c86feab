#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace start::common {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad batch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad batch");
}

Status FailingOp() { return Status::NotFound("nothing here"); }

Status Caller() {
  START_RETURN_IF_ERROR(FailingOp());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Caller().code(), StatusCode::kNotFound);
}

Result<int> MakeValue(bool fail) {
  if (fail) return Status::Internal("boom");
  return 41;
}

Result<int> UseValue(bool fail) {
  START_ASSIGN_OR_RETURN(int v, MakeValue(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturn) {
  const auto good = UseValue(false);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  const auto bad = UseValue(true);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(8);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(10);
  int64_t counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.Categorical({1.0, 3.0})];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / 10000.0, 0.75, 0.03);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(11);
  const auto sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  const std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(12);
  Rng child = a.Fork();
  // The child stream should not replay the parent's values.
  Rng b(12);
  b.Fork();
  EXPECT_NE(child.Next(), a.Next());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"model", "metric"});
  table.AddRow({"START", "1.0"});
  table.AddRow({"longer-name", "22.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| model       |"), std::string::npos);
  EXPECT_NE(out.find("| START       |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(1.23456, 4), "1.2346");
}

/// The textbook one-table, one-byte-per-step CRC-32 (IEEE, reflected), kept
/// here as the reference the sliced implementation must agree with.
uint32_t BytewiseCrc32(const uint8_t* p, size_t n) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, AgreesWithBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-300 cover zero to 18 sliced steps plus every tail length;
  // offsets 0-15 put the 16-byte loads at every alignment.
  const std::vector<uint8_t> bytes = RandomBytes(300 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, n), BytewiseCrc32(p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32Test, SeedChainsAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = RandomBytes(300, 8);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace start::common
