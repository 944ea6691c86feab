#ifndef START_TESTS_TESTING_H_
#define START_TESTS_TESTING_H_

/// \file
/// Shared test harness: the fixture builders, comparators, and filesystem
/// helpers that used to be copy-pasted per test file.
///
/// Conventions:
///  * Fixtures — `MakeTinyWorld()` builds the standard synthetic-city world
///    (road network + traffic model + map-matched corpus + transfer
///    probabilities) most integration-ish tests start from; `TinyStartConfig`
///    is the laptop-scale model every core test uses.
///  * Comparators — `ExpectAllClose` for numeric tolerance checks,
///    `ExpectTensorBitwiseEqual` / `ExpectParamsBitwiseEqual` for the
///    repo's determinism contracts (batch reuse, checkpoint resume),
///    where "close" is not the claim being tested.
///  * `TempDir` — RAII scratch directory (recursively removed), replacing
///    ad-hoc `::testing::TempDir() + name` + manual std::remove pairs.
///  * `TestRng` — seeded generator derived from the current gtest test name,
///    so every test gets a stable-but-distinct stream without hand-picking
///    integer seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "nn/module.h"
#include "roadnet/csr_graph.h"
#include "roadnet/road_network.h"
#include "tensor/tensor.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace start::testutil {

// ---------------------------------------------------------------------------
// Fixture builders.
// ---------------------------------------------------------------------------

/// Knobs of the standard tiny world; the defaults reproduce the fixture the
/// core/pretrain/eval tests were all hand-rolling.
struct TinyWorldOptions {
  int32_t grid_width = 5;
  int32_t grid_height = 5;
  int64_t num_drivers = 8;
  int64_t num_days = 8;
  double trips_per_driver_day = 4.0;
  int64_t min_length = 5;
  int64_t min_user_trajectories = 5;
  uint64_t trip_seed = 4242;  ///< TripGenerator default.
  bool build_transfer = true;
};

/// A synthetic city with everything the model stack consumes. Members are
/// heap-held so the world is movable while the internal cross-pointers
/// (traffic -> net, transfer -> net) stay valid.
struct TinyWorld {
  std::unique_ptr<roadnet::RoadNetwork> net;
  std::unique_ptr<traj::TrafficModel> traffic;
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<roadnet::TransferProbability> transfer;

  int64_t num_roads() const { return net->num_segments(); }
};

std::unique_ptr<TinyWorld> MakeTinyWorld(const TinyWorldOptions& options = {});

/// The laptop-scale StartConfig shared by the core tests: d = 16, one
/// 2-head GAT layer, one 2-head encoder layer, max_len 64.
core::StartConfig TinyStartConfig();

/// Transfer probabilities built from one pass over every edge of `net`
/// (every edge gets nonzero mass) — the standard stand-in for tests that
/// need a valid TransferProbability but no trajectory corpus.
roadnet::TransferProbability EdgePairTransfer(const roadnet::RoadNetwork& net);

/// One label of the brute-force routing oracle: the cheapest cost of
/// reaching a segment (every segment paid once, source included; infinity
/// when unreachable) and the segment count of one such cheapest path.
struct OracleLabel {
  double cost;
  int64_t segments;
};

/// Bellman-Ford from `src` over `net` under per-segment `weight` — the
/// brute-force oracle CsrDijkstra and Yen are checked against. Integer
/// weights (e.g. a CsrGraph's node costs) give exact sums.
std::vector<OracleLabel> BellmanFord(const roadnet::RoadNetwork& net,
                                     int64_t src,
                                     const roadnet::SegmentWeightFn& weight);

// ---------------------------------------------------------------------------
// Comparators.
// ---------------------------------------------------------------------------

/// Element-wise |a - b| <= atol over the logical extent (strided views are
/// compacted first). Reports the first few offending indices.
void ExpectAllClose(const tensor::Tensor& a, const tensor::Tensor& b,
                    double atol, const std::string& what = "");

/// Bitwise equality of two tensors' logical contents (shape + every float's
/// bit pattern; NaNs compare equal to themselves).
void ExpectTensorBitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b,
                              const std::string& what = "");

/// Bitwise equality of every named parameter of two structurally identical
/// modules — the standard post-condition of the determinism tests.
void ExpectParamsBitwiseEqual(const nn::Module& a, const nn::Module& b);

/// Bitwise equality of two float buffers (size + bit patterns).
void ExpectFloatsBitwiseEqual(const std::vector<float>& a,
                              const std::vector<float>& b,
                              const std::string& what = "");

// ---------------------------------------------------------------------------
// Filesystem helpers.
// ---------------------------------------------------------------------------

/// RAII scratch directory under the gtest temp root; recursively removed on
/// destruction. `File(name)` returns an absolute path inside it.
class TempDir {
 public:
  TempDir();
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Directory holding the committed golden fixtures (tests/fixtures in the
/// source tree; injected by CMake so tests run from any build directory).
std::string FixtureDir();

/// Whole-file byte helpers for the corruption/truncation tests that bit-flip
/// serialized artifacts.
std::vector<uint8_t> ReadFileBytes(const std::string& path);
void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes);

// ---------------------------------------------------------------------------
// Seeded RNG helpers.
// ---------------------------------------------------------------------------

/// Stable 64-bit seed derived from the currently running test's full name
/// (suite + test + parameterisation) and `salt`.
uint64_t TestSeed(uint64_t salt = 0);

/// Generator seeded with TestSeed(salt): per-test stable, cross-test
/// distinct streams without hand-numbered seeds.
common::Rng TestRng(uint64_t salt = 0);

}  // namespace start::testutil

#endif  // START_TESTS_TESTING_H_
