#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/schedule.h"
#include "tensor/ops.h"

namespace start::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(AdamWTest, ConvergesOnQuadratic) {
  // Minimises f(w) = ||w - target||^2.
  Tensor w = Tensor::FromVector(Shape({3}), {5.0f, -3.0f, 2.0f});
  w.set_requires_grad(true);
  AdamW opt({w}, 0.1, 0.9, 0.999, 1e-8, 0.0);
  const std::vector<float> target = {1.0f, 1.0f, 1.0f};
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = tensor::MseLoss(w, target);
    loss.Backward();
    opt.Step();
  }
  double dist = 0.0;
  for (int64_t i = 0; i < 3; ++i) {
    dist += std::fabs(w.data()[i] - target[static_cast<size_t>(i)]);
  }
  EXPECT_LT(dist, 1e-2);
}

TEST(AdamWTest, WeightDecayShrinksWeights) {
  // With zero gradient, AdamW's decoupled decay still shrinks the weights.
  Tensor w = Tensor::FromVector(Shape({2}), {4.0f, -4.0f});
  w.set_requires_grad(true);
  w.ZeroGrad();
  AdamW opt({w}, /*lr=*/0.1, 0.9, 0.999, 1e-8, /*weight_decay=*/0.5);
  for (int i = 0; i < 10; ++i) opt.Step();
  EXPECT_LT(std::fabs(w.data()[0]), 4.0f);
  EXPECT_LT(std::fabs(w.data()[1]), 4.0f);
}

TEST(AdamWTest, TrainsLinearRegression) {
  common::Rng rng(3);
  Linear fc(2, 1, &rng);
  AdamW opt(fc.Parameters(), 0.05);
  // y = 2 x0 - x1 + 0.5
  for (int step = 0; step < 400; ++step) {
    const Tensor x = Tensor::Rand(Shape({16, 2}), &rng, -1, 1);
    std::vector<float> y(16);
    for (int64_t i = 0; i < 16; ++i) {
      y[static_cast<size_t>(i)] =
          2.0f * x.at({i, 0}) - x.at({i, 1}) + 0.5f;
    }
    opt.ZeroGrad();
    Tensor loss = tensor::MseLoss(fc.Forward(x), y);
    loss.Backward();
    opt.Step();
  }
  const auto params = fc.Parameters();
  EXPECT_NEAR(params[0].data()[0], 2.0f, 0.1);
  EXPECT_NEAR(params[0].data()[1], -1.0f, 0.1);
  EXPECT_NEAR(params[1].data()[0], 0.5f, 0.1);
}

TEST(TrainStepTest, ClipsTheGradientNormToKGradClip) {
  // d/dw mean((w - t)^2) at w = 0, t = (100, 100) is (-100, -100): norm
  // 141 > kGradClip, so the step sees that gradient scaled to norm
  // kGradClip. A zero learning rate keeps w, and so the gradient, in place.
  Tensor w = Tensor::FromVector(Shape({2}), {0.0f, 0.0f});
  w.set_requires_grad(true);
  AdamW opt({w}, /*lr=*/0.0);
  const double loss = TrainStep(&opt, tensor::MseLoss(w, {100.0f, 100.0f}));
  EXPECT_DOUBLE_EQ(loss, 10000.0);
  EXPECT_NEAR(std::hypot(w.grad()[0], w.grad()[1]), kGradClip, 1e-5);
  EXPECT_NEAR(w.grad()[0], w.grad()[1], 1e-6);
  // The step consumed the clipped gradient: after one update the first
  // moment is (1 - beta1) times it.
  EXPECT_NEAR(opt.moment1()[0][0], 0.1 * w.grad()[0], 1e-6);
}

/// Every batch TrainEpochs hands its step, in call order.
std::vector<std::vector<int64_t>> RecordBatches(int64_t n, int64_t epochs,
                                                int64_t batch_size,
                                                uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<int64_t>> batches;
  TrainEpochs(n, epochs, batch_size, &rng,
              [&](const std::vector<int64_t>& rows) {
                batches.push_back(rows);
                return 0.0;
              });
  return batches;
}

TEST(TrainEpochsTest, EachEpochVisitsEveryIndexOnceExceptATrailingSingleton) {
  struct Case {
    int64_t n, batch_size;
    std::vector<size_t> sizes;  // batch sizes of one epoch
  };
  for (const Case& c : {Case{10, 3, {3, 3, 3}}, Case{11, 3, {3, 3, 3, 2}},
                        Case{7, 8, {7}}, Case{2, 1, {1}}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " batch=" + std::to_string(c.batch_size));
    const int64_t epochs = 3;
    const auto batches = RecordBatches(c.n, epochs, c.batch_size, 7);
    ASSERT_EQ(batches.size(), c.sizes.size() * epochs);
    for (int64_t e = 0; e < epochs; ++e) {
      std::vector<int> seen(static_cast<size_t>(c.n), 0);
      for (size_t b = 0; b < c.sizes.size(); ++b) {
        const auto& rows = batches[e * c.sizes.size() + b];
        EXPECT_EQ(rows.size(), c.sizes[b]);
        for (const int64_t i : rows) ++seen[static_cast<size_t>(i)];
      }
      // Every index exactly once, except that a trailing singleton (a last
      // slice that would start at n - 1) is left out.
      const int expected_missing = (c.n - 1) % c.batch_size == 0 ? 1 : 0;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), expected_missing);
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                c.n - expected_missing);
    }
  }
}

TEST(TrainEpochsTest, OrderIsAPureFunctionOfTheRng) {
  EXPECT_EQ(RecordBatches(23, 4, 5, 3), RecordBatches(23, 4, 5, 3));
  EXPECT_NE(RecordBatches(23, 4, 5, 3), RecordBatches(23, 4, 5, 4));
  // Exactly: one Shuffle per epoch over the previous epoch's order (from
  // 0..n-1), and the step's own draws come after that epoch's shuffle.
  common::Rng rng(3);
  std::vector<int64_t> draws;
  TrainEpochs(9, 2, 4, &rng, [&](const std::vector<int64_t>& rows) {
    draws.insert(draws.end(), rows.begin(), rows.end());
    draws.push_back(-1 - rng.UniformInt(1000));
    return 0.0;
  });
  common::Rng replay(3);
  std::vector<int64_t> order(9), expected;
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < 2; ++epoch) {
    replay.Shuffle(&order);
    for (int64_t begin = 0; begin + 1 < 9; begin += 4) {
      expected.insert(expected.end(), order.begin() + begin,
                      order.begin() + std::min<int64_t>(9, begin + 4));
      expected.push_back(-1 - replay.UniformInt(1000));
    }
  }
  EXPECT_EQ(draws, expected);
}

TEST(TrainEpochsTest, ReturnsTheLastEpochsMeanStepLoss) {
  common::Rng rng(1);
  int64_t calls = 0;
  // n = 10, batch 4: three batches per epoch; step losses are 10 * epoch +
  // batch, so the last (third) epoch's are 20, 21, 22.
  const double loss =
      TrainEpochs(10, 3, 4, &rng, [&](const std::vector<int64_t>&) {
        const int64_t call = calls++;
        return static_cast<double>(10 * (call / 3) + call % 3);
      });
  EXPECT_EQ(calls, 9);
  EXPECT_DOUBLE_EQ(loss, 21.0);
  EXPECT_DOUBLE_EQ(TrainEpochs(10, 0, 4, &rng,
                               [](const std::vector<int64_t>&) { return 1.0; }),
                   0.0);
}

TEST(TrainEpochsDeathTest, RefusesFewerThanTwoItems) {
  // One item would run no batch at all: an untrained model and a loss of 0.
  common::Rng rng(1);
  const auto step = [](const std::vector<int64_t>&) { return 1.0; };
  EXPECT_DEATH(TrainEpochs(1, 3, 4, &rng, step), "at least 2 items, got 1");
  EXPECT_DEATH(TrainEpochs(0, 3, 4, &rng, step), "at least 2 items, got 0");
}

TEST(ScheduleTest, WarmupRampsLinearly) {
  const WarmupCosineSchedule s(1.0, 10, 100, 0.0);
  EXPECT_NEAR(s.LrAt(0), 0.1, 1e-9);
  EXPECT_NEAR(s.LrAt(4), 0.5, 1e-9);
  EXPECT_NEAR(s.LrAt(9), 1.0, 1e-9);
}

TEST(ScheduleTest, CosineDecaysToMin) {
  const WarmupCosineSchedule s(1.0, 10, 100, 0.05);
  EXPECT_NEAR(s.LrAt(10), 1.0, 1e-9);
  EXPECT_NEAR(s.LrAt(100), 0.05, 1e-6);
  // Midpoint of the cosine is the average of base and min.
  EXPECT_NEAR(s.LrAt(55), (1.0 + 0.05) / 2.0, 1e-6);
}

TEST(ScheduleTest, MonotoneDecreasingAfterWarmup) {
  const WarmupCosineSchedule s(1.0, 5, 50, 0.0);
  for (int64_t step = 5; step < 49; ++step) {
    EXPECT_GE(s.LrAt(step), s.LrAt(step + 1));
  }
}

TEST(ScheduleTest, NoWarmupStartsAtBase) {
  const WarmupCosineSchedule s(0.5, 0, 10, 0.0);
  EXPECT_NEAR(s.LrAt(0), 0.5, 1e-9);
}

}  // namespace
}  // namespace start::nn
