// Property tests: every differentiable op's analytic gradient is checked
// against central finite differences across a sweep of shapes.
#include "tensor/grad_check.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/ops.h"

namespace start::tensor {
namespace {

Tensor RandT(const Shape& s, uint64_t seed, float lo = -1.0f,
             float hi = 1.0f) {
  common::Rng rng(seed);
  return Tensor::Rand(s, &rng, lo, hi);
}

void ExpectGradOk(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                  std::vector<Tensor> inputs) {
  const GradCheckResult result = CheckGradients(fn, std::move(inputs));
  EXPECT_TRUE(result.passed) << result.detail
                             << " max_rel=" << result.max_rel_error;
}

// ---- Parameterised elementwise binary ops over broadcast shapes ----------

struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  Shape a, b;
};

class BinaryGradTest : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(BinaryGradTest, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Tensor a = RandT(c.a, 100, 0.5f, 1.5f);
  Tensor b = RandT(c.b, 101, 0.5f, 1.5f);
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(GetParam().op(in[0], in[1]));
      },
      {a, b});
}

INSTANTIATE_TEST_SUITE_P(
    Broadcasts, BinaryGradTest,
    ::testing::Values(
        BinaryCase{"add_same", &Add, Shape({3, 4}), Shape({3, 4})},
        BinaryCase{"add_row", &Add, Shape({3, 4}), Shape({4})},
        BinaryCase{"add_col", &Add, Shape({3, 4}), Shape({3, 1})},
        BinaryCase{"add_scalar", &Add, Shape({3, 4}), Shape({1})},
        BinaryCase{"mul_same", &Mul, Shape({3, 4}), Shape({3, 4})},
        BinaryCase{"mul_row", &Mul, Shape({3, 4}), Shape({4})},
        BinaryCase{"mul_3d_col", &Mul, Shape({2, 3, 4}), Shape({2, 3, 1})}),
    [](const ::testing::TestParamInfo<BinaryCase>& info) {
      return info.param.name;
    });

// ---- Parameterised unary ops ----------------------------------------------

struct UnaryCase {
  const char* name;
  std::function<Tensor(const Tensor&)> op;
  float lo, hi;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifferences) {
  Tensor x = RandT(Shape({4, 5}), 200, GetParam().lo, GetParam().hi);
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(GetParam().op(in[0]));
      },
      {x});
}

INSTANTIATE_TEST_SUITE_P(
    Activations, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"relu", [](const Tensor& t) { return Relu(t); }, 0.2f, 2.0f},
        UnaryCase{"leaky",
                  [](const Tensor& t) { return LeakyRelu(t, 0.2f); }, 0.2f,
                  2.0f},
        UnaryCase{"elu", [](const Tensor& t) { return Elu(t); }, -2.0f,
                  -0.2f},
        UnaryCase{"tanh", [](const Tensor& t) { return Tanh(t); }, -2.0f,
                  2.0f},
        UnaryCase{"sigmoid", [](const Tensor& t) { return Sigmoid(t); },
                  -2.0f, 2.0f},
        UnaryCase{"neg", [](const Tensor& t) { return Neg(t); }, -1.0f, 1.0f},
        UnaryCase{"scale", [](const Tensor& t) { return Scale(t, -1.7f); },
                  -1.0f, 1.0f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// ---- Linear algebra --------------------------------------------------------

TEST(MatMulGradTest, TwoDee) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(MatMul(in[0], in[1]));
      },
      {RandT(Shape({3, 4}), 300), RandT(Shape({4, 2}), 301)});
}

TEST(MatMulGradTest, Batched) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(BatchMatMul(in[0], in[1]));
      },
      {RandT(Shape({2, 3, 4}), 302), RandT(Shape({2, 4, 2}), 303)});
}

TEST(MatMulGradTest, BatchedTransposeB) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(BatchMatMul(in[0], in[1], /*transpose_b=*/true));
      },
      {RandT(Shape({2, 3, 4}), 304), RandT(Shape({2, 5, 4}), 305)});
}

TEST(ShapeOpsGradTest, TransposeReshapeConcatSlice) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        const Tensor t = Transpose(in[0]);                     // [4,3]
        const Tensor r = Reshape(t, Shape({2, 6}));
        const Tensor c = Concat({r, in[1]}, 0);                // [4,6]
        return Mean(Slice(c, 1, 1, 3));
      },
      {RandT(Shape({3, 4}), 306), RandT(Shape({2, 6}), 307)});
}

TEST(ShapeOpsGradTest, GatherRowsWithRepeats) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(GatherRows(in[0], {0, 2, 2, 1, 0}));
      },
      {RandT(Shape({3, 4}), 308)});
}

// ---- Reductions / normalisation -------------------------------------------

TEST(ReduceGradTest, Mean) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) { return Mean(in[0]); },
      {RandT(Shape({3, 3}), 401)});
}

TEST(ReduceGradTest, SoftmaxWeighted) {
  const Tensor w = RandT(Shape({3, 5}), 402);
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(Mul(SoftmaxLastDim(in[0]), w));
      },
      {RandT(Shape({3, 5}), 403)});
}

TEST(ReduceGradTest, LayerNormAllInputs) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(LayerNorm(in[0], in[1], in[2]));
      },
      {RandT(Shape({4, 8}), 406), RandT(Shape({8}), 407, 0.5f, 1.5f),
       RandT(Shape({8}), 408)});
}

TEST(ReduceGradTest, L2Normalize) {
  const Tensor w = RandT(Shape({3, 6}), 409);
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(Mul(L2NormalizeRows(in[0]), w));
      },
      {RandT(Shape({3, 6}), 410, 0.5f, 1.5f)});
}

// ---- Losses ----------------------------------------------------------------

TEST(LossGradTest, CrossEntropy) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return CrossEntropyWithLogits(in[0], {1, 0, 2});
      },
      {RandT(Shape({3, 3}), 500)});
}

TEST(LossGradTest, CrossEntropyWithIgnored) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return CrossEntropyWithLogits(in[0], {1, -1, 2}, -1);
      },
      {RandT(Shape({3, 3}), 501)});
}

TEST(LossGradTest, Mse) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return MseLoss(in[0], {0.5f, -0.5f, 1.0f, 0.0f});
      },
      {RandT(Shape({4}), 502)});
}

TEST(LossGradTest, Bce) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return BceWithLogits(in[0], {1.0f, 0.0f, 1.0f});
      },
      {RandT(Shape({3}), 503)});
}

// ---- Segment ops (GAT substrate) ------------------------------------------

TEST(SegmentGradTest, SegmentSoftmax) {
  const std::vector<int64_t> seg = {0, 0, 1, 1, 1, 2};
  const Tensor w = RandT(Shape({6}), 600);
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(Mul(SegmentSoftmax(in[0], seg, 3), w));
      },
      {RandT(Shape({6}), 601)});
}

TEST(SegmentGradTest, SegmentWeightedSumBothInputs) {
  const std::vector<int64_t> seg = {0, 1, 1, 2};
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        return Mean(SegmentWeightedSum(in[0], in[1], seg, 3));
      },
      {RandT(Shape({4, 3}), 602), RandT(Shape({4}), 603, 0.2f, 1.0f)});
}

TEST(SegmentGradTest, GatComposite) {
  // The exact composition used by TpeGatLayer: gather + segment softmax +
  // weighted aggregation.
  const std::vector<int64_t> src = {0, 1, 2, 0, 2};
  const std::vector<int64_t> dst = {1, 2, 0, 2, 1};
  ExpectGradOk(
      [&](const std::vector<Tensor>& in) {
        const Tensor u = GatherRows(in[0], dst);
        const Tensor v = GatherRows(in[0], src);
        const Tensor scores = Reshape(
            LeakyRelu(Add(MatMul(u, in[1]), MatMul(v, in[1])), 0.2f),
            Shape({5}));
        const Tensor alpha = SegmentSoftmax(scores, dst, 3);
        const Tensor values = GatherRows(MatMul(in[0], in[2]), src);
        return Mean(SegmentWeightedSum(values, alpha, dst, 3));
      },
      {RandT(Shape({3, 4}), 604), RandT(Shape({4, 1}), 605),
       RandT(Shape({4, 4}), 606)});
}

// ---- Zero-copy view chains -------------------------------------------------

TEST(ViewGradTest, ChainedReshapeSliceTranspose) {
  // Gradients must flow through a chain of pure views (no materialisation
  // happens anywhere on this path except the final reduction).
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        const Tensor r = Reshape(in[0], Shape({4, 6}));   // view
        const Tensor s = Slice(r, 1, 1, 3);               // strided view
        const Tensor t = Transpose(s);                    // [3,4] view of view
        return Mean(Mul(t, t));
      },
      {RandT(Shape({2, 2, 6}), 700)});
}

TEST(ViewGradTest, SliceOfSliceAndSelect) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        const Tensor s1 = Slice(in[0], 2, 1, 4);   // [2,3,4] strided view
        const Tensor s2 = Slice(s1, 1, 0, 2);      // view of a view
        const Tensor s3 = Select(s2, 0, 1);        // [2,4]
        return Mean(Mul(s3, s3));
      },
      {RandT(Shape({2, 3, 6}), 701)});
}

TEST(ViewGradTest, MatMulOnTransposeView) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(MatMul(in[0], Transpose(in[1])));  // NT without copy
      },
      {RandT(Shape({3, 4}), 702), RandT(Shape({5, 4}), 703)});
}

TEST(ViewGradTest, MatMulOnTransposedLhs) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return Mean(MatMul(Transpose(in[0]), in[1]));  // TN without copy
      },
      {RandT(Shape({4, 3}), 704), RandT(Shape({4, 5}), 705)});
}

TEST(ViewGradTest, BatchMatMulOnHeadSlices) {
  // The attention pattern: per-head slices of [B,L,D] flow into BMM as
  // row-strided views on both sides.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        const Tensor qh = Slice(in[0], 2, 2, 2);
        const Tensor kh = Slice(in[1], 2, 0, 2);
        return Mean(BatchMatMul(qh, kh, /*transpose_b=*/true));
      },
      {RandT(Shape({2, 3, 4}), 706), RandT(Shape({2, 3, 4}), 707)});
}

TEST(ViewGradTest, ElementwiseOnStridedViews) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        const Tensor t = Transpose(in[0]);       // [4,3] strided view
        const Tensor s = Slice(in[1], 1, 1, 3);  // [4,3] strided view
        return Mean(Mul(Add(t, s), Sigmoid(t)));
      },
      {RandT(Shape({3, 4}), 708), RandT(Shape({4, 5}), 709)});
}

TEST(ViewGradTest, WeightedSumThroughReshapeView) {
  // Backward through a reshape view accumulates into the base exactly once.
  Tensor a = RandT(Shape({2, 3}), 710);
  a.set_requires_grad(true);
  a.ZeroGrad();
  Tensor loss = Mean(Mul(Reshape(a, Shape({6})), Reshape(a, Shape({6}))));
  loss.Backward();
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(a.grad()[i * 3 + j], 2.0f * a.at({i, j}) / 6.0f, 1e-5);
    }
  }
}

}  // namespace
}  // namespace start::tensor
