#include "tensor/ops.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace start::tensor {
namespace {

TEST(TensorFactoryTest, ZerosOnesFull) {
  const Tensor z = Tensor::Zeros(Shape({2, 3}));
  const Tensor o = Tensor::Ones(Shape({2, 3}));
  const Tensor f = Tensor::Full(Shape({2, 3}), 2.5f);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(z.data()[i], 0.0f);
    EXPECT_EQ(o.data()[i], 1.0f);
    EXPECT_EQ(f.data()[i], 2.5f);
  }
}

TEST(TensorFactoryTest, FromVectorAndAt) {
  const Tensor t = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(TensorFactoryTest, RandRespectsBounds) {
  common::Rng rng(1);
  const Tensor t = Tensor::Rand(Shape({100}), &rng, -0.5f, 0.5f);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_GE(t.data()[i], -0.5f);
    EXPECT_LT(t.data()[i], 0.5f);
  }
}

TEST(ElementwiseTest, AddSameShape) {
  const Tensor a = Tensor::FromVector(Shape({3}), {1, 2, 3});
  const Tensor b = Tensor::FromVector(Shape({3}), {10, 20, 30});
  const Tensor c = Add(a, b);
  EXPECT_EQ(c.data()[0], 11.0f);
  EXPECT_EQ(c.data()[2], 33.0f);
}

TEST(ElementwiseTest, AddBroadcastRow) {
  const Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::FromVector(Shape({3}), {10, 20, 30});
  const Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(ElementwiseTest, MulBroadcastColumn) {
  const Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::FromVector(Shape({2, 1}), {2, 10});
  const Tensor c = Mul(a, b);
  EXPECT_EQ(c.at({0, 1}), 4.0f);
  EXPECT_EQ(c.at({1, 0}), 40.0f);
}

TEST(ElementwiseTest, NegScaleAddScalar) {
  const Tensor a = Tensor::FromVector(Shape({2}), {6, 9});
  EXPECT_EQ(Neg(a).data()[0], -6.0f);
  EXPECT_EQ(Scale(a, 0.5f).data()[1], 4.5f);
  EXPECT_EQ(AddScalar(a, 1.0f).data()[0], 7.0f);
}

TEST(ActivationTest, ReluFamilies) {
  const Tensor x = Tensor::FromVector(Shape({4}), {-2, -0.5, 0.5, 2});
  const Tensor r = Relu(x);
  EXPECT_EQ(r.data()[0], 0.0f);
  EXPECT_EQ(r.data()[3], 2.0f);
  const Tensor lr = LeakyRelu(x, 0.2f);
  EXPECT_FLOAT_EQ(lr.data()[0], -0.4f);
  EXPECT_FLOAT_EQ(lr.data()[2], 0.5f);
  const Tensor e = Elu(x);
  EXPECT_NEAR(e.data()[0], std::exp(-2.0f) - 1.0f, 1e-6);
  EXPECT_EQ(e.data()[3], 2.0f);
}

TEST(ActivationTest, SigmoidTanhBounds) {
  const Tensor x = Tensor::FromVector(Shape({3}), {-10, 0, 10});
  const Tensor s = Sigmoid(x);
  EXPECT_NEAR(s.data()[0], 0.0, 1e-4);
  EXPECT_NEAR(s.data()[1], 0.5, 1e-6);
  EXPECT_NEAR(s.data()[2], 1.0, 1e-4);
  const Tensor t = Tanh(x);
  EXPECT_NEAR(t.data()[1], 0.0, 1e-6);
  EXPECT_NEAR(t.data()[2], 1.0, 1e-4);
}

TEST(MatMulTest, Known2x2) {
  const Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  const Tensor b = Tensor::FromVector(Shape({2, 2}), {5, 6, 7, 8});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_EQ(c.at({1, 1}), 50.0f);
}

TEST(MatMulTest, RectangularShapes) {
  common::Rng rng(2);
  const Tensor a = Tensor::Rand(Shape({3, 5}), &rng, -1, 1);
  const Tensor b = Tensor::Rand(Shape({5, 7}), &rng, -1, 1);
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 7}));
  // Spot-check one entry against a manual dot product.
  double acc = 0.0;
  for (int64_t k = 0; k < 5; ++k) acc += a.at({1, k}) * b.at({k, 3});
  EXPECT_NEAR(c.at({1, 3}), acc, 1e-5);
}

TEST(MatMulTest, BatchMatMulMatchesPerBatch) {
  common::Rng rng(3);
  const Tensor a = Tensor::Rand(Shape({2, 3, 4}), &rng, -1, 1);
  const Tensor b = Tensor::Rand(Shape({2, 4, 5}), &rng, -1, 1);
  const Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 3, 5}));
  for (int64_t batch = 0; batch < 2; ++batch) {
    const Tensor a2 = Reshape(Slice(a, 0, batch, 1), Shape({3, 4}));
    const Tensor b2 = Reshape(Slice(b, 0, batch, 1), Shape({4, 5}));
    const Tensor c2 = MatMul(a2, b2);
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(c.at({batch, i, j}), c2.at({i, j}), 1e-5);
      }
    }
  }
}

TEST(MatMulTest, BatchMatMulTransposeB) {
  common::Rng rng(4);
  const Tensor a = Tensor::Rand(Shape({2, 3, 4}), &rng, -1, 1);
  const Tensor b = Tensor::Rand(Shape({2, 5, 4}), &rng, -1, 1);
  const Tensor c = BatchMatMul(a, b, /*transpose_b=*/true);
  EXPECT_EQ(c.shape(), Shape({2, 3, 5}));
  double acc = 0.0;
  for (int64_t k = 0; k < 4; ++k) acc += a.at({1, 2, k}) * b.at({1, 3, k});
  EXPECT_NEAR(c.at({1, 2, 3}), acc, 1e-5);
}

TEST(ShapeOpsTest, TransposeRoundTrip) {
  const Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_EQ(t.at({0, 1}), 4.0f);
  const Tensor tt = Transpose(t);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(tt.data()[i], a.data()[i]);
}

TEST(ShapeOpsTest, ConcatDim0AndDim1) {
  const Tensor a = Tensor::FromVector(Shape({1, 2}), {1, 2});
  const Tensor b = Tensor::FromVector(Shape({1, 2}), {3, 4});
  const Tensor c0 = Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), Shape({2, 2}));
  EXPECT_EQ(c0.at({1, 0}), 3.0f);
  const Tensor c1 = Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), Shape({1, 4}));
  EXPECT_EQ(c1.at({0, 3}), 4.0f);
}

TEST(ShapeOpsTest, SliceMiddle) {
  const Tensor a = Tensor::FromVector(Shape({4, 2}),
                                      {0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor s = Slice(a, 0, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_EQ(s.at({0, 0}), 2.0f);
  EXPECT_EQ(s.at({1, 1}), 5.0f);
}

TEST(ShapeOpsTest, SliceLastDimOf3d) {
  common::Rng rng(5);
  const Tensor a = Tensor::Rand(Shape({2, 3, 6}), &rng, -1, 1);
  const Tensor s = Slice(a, 2, 2, 2);
  EXPECT_EQ(s.shape(), Shape({2, 3, 2}));
  EXPECT_EQ(s.at({1, 2, 0}), a.at({1, 2, 2}));
}

TEST(ShapeOpsTest, GatherRows) {
  const Tensor a = Tensor::FromVector(Shape({3, 2}), {0, 1, 10, 11, 20, 21});
  const Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  EXPECT_EQ(g.at({0, 0}), 20.0f);
  EXPECT_EQ(g.at({1, 1}), 1.0f);
  EXPECT_EQ(g.at({2, 0}), 20.0f);
}

TEST(ReduceTest, Mean) {
  const Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  EXPECT_EQ(Mean(a).item(), 2.5f);
}

TEST(ReduceTest, SoftmaxRowsSumToOne) {
  common::Rng rng(6);
  const Tensor a = Tensor::Rand(Shape({4, 7}), &rng, -3, 3);
  const Tensor s = SoftmaxLastDim(a);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 7; ++c) total += s.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
}

TEST(ReduceTest, SoftmaxHandlesLargeLogits) {
  const Tensor a = Tensor::FromVector(Shape({1, 3}), {1000, 1000, -1000});
  const Tensor s = SoftmaxLastDim(a);
  EXPECT_NEAR(s.data()[0], 0.5f, 1e-5);
  EXPECT_NEAR(s.data()[2], 0.0f, 1e-6);
}

TEST(ReduceTest, LayerNormNormalises) {
  common::Rng rng(8);
  const Tensor x = Tensor::Rand(Shape({3, 16}), &rng, -5, 5);
  const Tensor gamma = Tensor::Ones(Shape({16}));
  const Tensor beta = Tensor::Zeros(Shape({16}));
  const Tensor y = LayerNorm(x, gamma, beta);
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t c = 0; c < 16; ++c) mean += y.at({r, c});
    mean /= 16.0;
    for (int64_t c = 0; c < 16; ++c) {
      var += (y.at({r, c}) - mean) * (y.at({r, c}) - mean);
    }
    var /= 16.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(ReduceTest, L2NormalizeRowsUnitNorm) {
  common::Rng rng(9);
  const Tensor x = Tensor::Rand(Shape({5, 8}), &rng, -2, 2);
  const Tensor y = L2NormalizeRows(x);
  for (int64_t r = 0; r < 5; ++r) {
    double norm = 0.0;
    for (int64_t c = 0; c < 8; ++c) norm += y.at({r, c}) * y.at({r, c});
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
  }
}

TEST(LossTest, CrossEntropyUniformLogits) {
  const Tensor logits = Tensor::Zeros(Shape({2, 4}));
  const Tensor loss = CrossEntropyWithLogits(logits, {1, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5);
}

TEST(LossTest, CrossEntropyIgnoreIndex) {
  const Tensor logits = Tensor::FromVector(Shape({2, 2}), {10, -10, 0, 0});
  // Second row ignored; first row is confidently correct.
  const Tensor loss = CrossEntropyWithLogits(logits, {0, -1}, -1);
  EXPECT_LT(loss.item(), 1e-3);
}

TEST(LossTest, MseKnownValue) {
  const Tensor pred = Tensor::FromVector(Shape({2}), {1, 3});
  const Tensor loss = MseLoss(pred, {0, 0});
  EXPECT_NEAR(loss.item(), (1.0f + 9.0f) / 2.0f, 1e-6);
}

TEST(LossTest, BceMatchesManual) {
  const Tensor logits = Tensor::FromVector(Shape({2}), {0, 0});
  const Tensor loss = BceWithLogits(logits, {1.0f, 0.0f});
  EXPECT_NEAR(loss.item(), std::log(2.0f), 1e-5);
}

TEST(SegmentTest, SegmentSoftmaxPerSegmentSumsToOne) {
  const Tensor scores =
      Tensor::FromVector(Shape({5}), {1, 2, 3, -1, 0.5});
  const std::vector<int64_t> seg = {0, 0, 1, 1, 1};
  const Tensor a = SegmentSoftmax(scores, seg, 2);
  EXPECT_NEAR(a.data()[0] + a.data()[1], 1.0f, 1e-5);
  EXPECT_NEAR(a.data()[2] + a.data()[3] + a.data()[4], 1.0f, 1e-5);
  EXPECT_GT(a.data()[1], a.data()[0]);  // larger score -> larger weight
}

TEST(SegmentTest, SegmentWeightedSumAggregates) {
  const Tensor values =
      Tensor::FromVector(Shape({3, 2}), {1, 0, 0, 1, 2, 2});
  const Tensor weights = Tensor::FromVector(Shape({3}), {0.5, 0.5, 2.0});
  const std::vector<int64_t> seg = {0, 0, 1};
  const Tensor out = SegmentWeightedSum(values, weights, seg, 2);
  EXPECT_EQ(out.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(out.at({0, 0}), 0.5f);
  EXPECT_FLOAT_EQ(out.at({0, 1}), 0.5f);
  EXPECT_FLOAT_EQ(out.at({1, 0}), 4.0f);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  common::Rng rng(10);
  const Tensor x = Tensor::Rand(Shape({50}), &rng, -1, 1);
  const Tensor y = Dropout(x, 0.5f, /*training=*/false);
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(y.data()[i], x.data()[i]);
}

TEST(DropoutTest, TrainingDropsAndRescales) {
  common::SeedGlobalRng(42);
  const Tensor x = Tensor::Ones(Shape({10000}));
  const Tensor y = Dropout(x, 0.3f, /*training=*/true);
  int64_t zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < 10000; ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 1.0f / 0.7f, 1e-5);
    }
    sum += y.data()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // inverted dropout keeps the mean
}

TEST(AutogradTest, NoGradGuardSuppressesGraph) {
  Tensor a = Tensor::Ones(Shape({2}));
  a.set_requires_grad(true);
  NoGradGuard guard;
  const Tensor b = Scale(a, 2.0f);
  EXPECT_FALSE(b.requires_grad());
}

TEST(AutogradTest, DetachBreaksGraph) {
  Tensor a = Tensor::Ones(Shape({2}));
  a.set_requires_grad(true);
  const Tensor b = Scale(a, 2.0f).Detach();
  EXPECT_FALSE(b.requires_grad());
  EXPECT_EQ(b.data()[0], 2.0f);
}

TEST(AutogradTest, GradAccumulatesOverTwoBackwards) {
  Tensor a = Tensor::Ones(Shape({1}));
  a.set_requires_grad(true);
  Tensor loss = Scale(a, 3.0f);
  loss.Backward();
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
}

TEST(AutogradTest, DiamondGraphSumsPaths) {
  // y = a*a + a  => dy/da = 2a + 1 = 5 at a = 2.
  Tensor a = Tensor::FromVector(Shape({1}), {2.0f});
  a.set_requires_grad(true);
  Tensor y = Add(Mul(a, a), a);
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
}

// ---- View semantics & aliasing --------------------------------------------

TEST(ViewTest, ReshapeAliasesStorage) {
  Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, Shape({3, 2}));
  EXPECT_EQ(r.impl()->storage, a.impl()->storage);
  EXPECT_EQ(r.data(), a.data());  // same buffer, no copy
  EXPECT_TRUE(r.is_contiguous());
}

TEST(ViewTest, SliceAnyDimIsZeroCopy) {
  common::Rng rng(77);
  const Tensor a = Tensor::Rand(Shape({4, 5, 6}), &rng, -1, 1);
  for (int64_t dim = 0; dim < 3; ++dim) {
    const Tensor s = Slice(a, dim, 1, 2);
    EXPECT_EQ(s.impl()->storage, a.impl()->storage) << "dim " << dim;
    EXPECT_EQ(s.offset(), a.strides()[static_cast<size_t>(dim)]);
    EXPECT_EQ(s.strides(), a.strides());
    EXPECT_EQ(s.at({1, 1, 1}),
              a.at({dim == 0 ? 2 : 1, dim == 1 ? 2 : 1, dim == 2 ? 2 : 1}));
  }
  // Only the leading-dim slice stays dense; inner-dim slices are strided.
  EXPECT_TRUE(Slice(a, 0, 1, 2).is_contiguous());
  EXPECT_FALSE(Slice(a, 1, 1, 2).is_contiguous());
  EXPECT_FALSE(Slice(a, 2, 1, 2).is_contiguous());
}

TEST(ViewTest, TransposeIsZeroCopyStrideSwap) {
  const Tensor a = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Tensor t = Transpose(a);
  EXPECT_EQ(t.impl()->storage, a.impl()->storage);
  EXPECT_FALSE(t.is_contiguous());
  EXPECT_EQ(t.strides(), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
  const Tensor dense = t.Contiguous();
  EXPECT_NE(dense.impl()->storage, a.impl()->storage);
  EXPECT_TRUE(dense.is_contiguous());
  EXPECT_EQ(dense.data()[1], 4.0f);  // row-major [3,2]
}

TEST(ViewTest, SelectDropsDimZeroCopy) {
  common::Rng rng(78);
  const Tensor a = Tensor::Rand(Shape({3, 4, 5}), &rng, -1, 1);
  const Tensor s = Select(a, 1, 2);
  EXPECT_EQ(s.shape(), Shape({3, 5}));
  EXPECT_EQ(s.impl()->storage, a.impl()->storage);
  EXPECT_EQ(s.at({1, 3}), a.at({1, 2, 3}));
}

TEST(ViewTest, GatherRowsConsecutiveRunIsView) {
  const Tensor a = Tensor::FromVector(Shape({4, 2}),
                                      {0, 1, 10, 11, 20, 21, 30, 31});
  const Tensor g = GatherRows(a, {1, 2, 3});
  EXPECT_EQ(g.impl()->storage, a.impl()->storage);  // zero-copy row view
  EXPECT_EQ(g.at({0, 1}), 11.0f);
  // Non-consecutive indices still copy.
  const Tensor g2 = GatherRows(a, {2, 0});
  EXPECT_NE(g2.impl()->storage, a.impl()->storage);
}

TEST(ViewTest, WritesThroughViewVisibleInBase) {
  Tensor a = Tensor::Zeros(Shape({4, 3}));
  Tensor row = Slice(a, 0, 2, 1);  // contiguous [1,3] view of row 2
  ASSERT_TRUE(row.is_contiguous());
  row.data()[1] = 42.0f;
  EXPECT_EQ(a.at({2, 1}), 42.0f);
  // And base writes are visible through the view.
  a.data()[2 * 3 + 2] = 7.0f;
  EXPECT_EQ(row.at({0, 2}), 7.0f);
}

TEST(ViewTest, ReshapeOfInnerSliceStaysZeroCopy) {
  // The rnn time-step pattern: Slice dim 1 to length 1, then drop the dim.
  common::Rng rng(79);
  const Tensor x = Tensor::Rand(Shape({2, 5, 3}), &rng, -1, 1);
  const Tensor xt = Reshape(Slice(x, 1, 3, 1), Shape({2, 3}));
  EXPECT_EQ(xt.impl()->storage, x.impl()->storage);
  EXPECT_EQ(xt.at({1, 2}), x.at({1, 3, 2}));
}

TEST(ViewTest, DetachCopiesOnlyViewedExtent) {
  common::Rng rng(80);
  const Tensor a = Tensor::Rand(Shape({50, 40}), &rng, -1, 1);
  const Tensor d = Slice(a, 1, 4, 2).Detach();
  EXPECT_EQ(d.shape(), Shape({50, 2}));
  EXPECT_EQ(static_cast<int64_t>(d.impl()->storage->size()), d.numel());
  EXPECT_NE(d.impl()->storage, a.impl()->storage);
  EXPECT_TRUE(d.is_contiguous());
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at({10, 1}), a.at({10, 5}));
}

TEST(ViewTest, ElementwiseOnStridedViewsMatchesDense) {
  common::Rng rng(81);
  const Tensor a = Tensor::Rand(Shape({3, 4}), &rng, -1, 1);
  const Tensor b = Tensor::Rand(Shape({4, 3}), &rng, -1, 1);
  // Strided (transpose view) operand vs explicitly materialised operand.
  const Tensor via_view = Mul(Transpose(a), b);
  const Tensor via_dense = Mul(Transpose(a).Contiguous(), b);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(via_view.at({i, j}), via_dense.at({i, j}));
    }
  }
}

TEST(ViewTest, MatMulOnTransposeViewMatchesMaterialised) {
  common::Rng rng(82);
  const Tensor a = Tensor::Rand(Shape({3, 4}), &rng, -1, 1);
  const Tensor b = Tensor::Rand(Shape({5, 4}), &rng, -1, 1);
  const Tensor via_view = MatMul(a, Transpose(b));       // NT fast path
  const Tensor via_dense = MatMul(a, Transpose(b).Contiguous());
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(via_view.at({i, j}), via_dense.at({i, j}));
    }
  }
}

TEST(BufferPoolTest, RecyclesBuffers) {
  auto& pool = BufferPool::Global();
  pool.Trim();
  const auto before = pool.stats();
  {
    auto buf = pool.Acquire(1024);
    buf->at(0) = 1.0f;
  }  // released back to the free list
  auto buf2 = pool.Acquire(1000);  // same power-of-two bucket: must be a hit
  const auto after = pool.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.recycled, before.recycled + 1);
}

TEST(DropoutTest, ExplicitRngIsReproducible) {
  common::Rng rng_a(123), rng_b(123);
  const Tensor x = Tensor::Ones(Shape({256}));
  const Tensor y1 = Dropout(x, 0.5f, /*training=*/true, &rng_a);
  const Tensor y2 = Dropout(x, 0.5f, /*training=*/true, &rng_b);
  for (int64_t i = 0; i < 256; ++i) EXPECT_EQ(y1.data()[i], y2.data()[i]);
}

}  // namespace
}  // namespace start::tensor
