#include "tensor/tensor.h"

#include <cstring>
#include <unordered_set>

#include "common/check.h"

namespace start::tensor {

namespace {
thread_local bool g_grad_mode = true;

/// Copies the logical extent of a (possibly strided) impl into a dense
/// row-major destination.
void CopyStridedRec(const float* src, const int64_t* dims,
                    const int64_t* strides, int64_t nd, float** dst) {
  if (nd == 0) {
    *(*dst)++ = *src;
    return;
  }
  if (nd == 1) {
    if (strides[0] == 1) {
      std::memcpy(*dst, src, static_cast<size_t>(dims[0]) * sizeof(float));
      *dst += dims[0];
    } else {
      for (int64_t i = 0; i < dims[0]; ++i) *(*dst)++ = src[i * strides[0]];
    }
    return;
  }
  for (int64_t i = 0; i < dims[0]; ++i) {
    CopyStridedRec(src + i * strides[0], dims + 1, strides + 1, nd - 1, dst);
  }
}

void CopyToDense(const TensorImpl& src, float* dst) {
  if (src.contiguous) {
    std::memcpy(dst, src.base_ptr(),
                static_cast<size_t>(src.numel()) * sizeof(float));
    return;
  }
  float* cursor = dst;
  CopyStridedRec(src.base_ptr(), src.shape.dims().data(), src.strides.data(),
                 src.shape.ndim(), &cursor);
}

/// Fresh contiguous impl owning a pool-acquired buffer.
std::shared_ptr<TensorImpl> MakeDenseImpl(
    Shape shape, std::shared_ptr<std::vector<float>> buffer) {
  auto impl = std::make_shared<TensorImpl>();
  impl->strides = RowMajorStrides(shape.dims());
  impl->shape = std::move(shape);
  impl->storage = std::move(buffer);
  impl->offset = 0;
  impl->contiguous = true;
  return impl;
}

}  // namespace

bool GradModeEnabled() { return g_grad_mode; }

NoGradGuard::NoGradGuard() : previous_(g_grad_mode) { g_grad_mode = false; }
NoGradGuard::~NoGradGuard() { g_grad_mode = previous_; }

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  auto buffer = AcquireBuffer(shape.numel());
  buffer->assign(static_cast<size_t>(shape.numel()), value);
  auto impl = MakeDenseImpl(shape, std::move(buffer));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  START_CHECK_EQ(static_cast<int64_t>(values.size()), shape.numel());
  auto impl =
      MakeDenseImpl(shape, BufferPool::Global().Adopt(std::move(values)));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector(Shape({1}), {value}, requires_grad);
}

Tensor Tensor::Rand(const Shape& shape, common::Rng* rng, float lo, float hi,
                    bool requires_grad) {
  START_CHECK(rng != nullptr);
  auto buffer = AcquireBuffer(shape.numel());
  for (auto& v : *buffer) v = static_cast<float>(rng->Uniform(lo, hi));
  auto impl = MakeDenseImpl(shape, std::move(buffer));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::RandN(const Shape& shape, common::Rng* rng, float mean,
                     float stddev, bool requires_grad) {
  START_CHECK(rng != nullptr);
  auto buffer = AcquireBuffer(shape.numel());
  for (auto& v : *buffer) v = static_cast<float>(rng->Normal(mean, stddev));
  auto impl = MakeDenseImpl(shape, std::move(buffer));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

const Shape& Tensor::shape() const {
  START_CHECK(defined());
  return impl_->shape;
}

bool Tensor::requires_grad() const {
  START_CHECK(defined());
  return impl_->requires_grad;
}

void Tensor::set_requires_grad(bool value) {
  START_CHECK(defined());
  impl_->requires_grad = value;
  if (value) impl_->AllocGrad();
}

const std::vector<int64_t>& Tensor::strides() const {
  START_CHECK(defined());
  return impl_->strides;
}

int64_t Tensor::offset() const {
  START_CHECK(defined());
  return impl_->offset;
}

bool Tensor::is_contiguous() const {
  START_CHECK(defined());
  return impl_->contiguous;
}

Tensor Tensor::Contiguous() const {
  START_CHECK(defined());
  if (impl_->contiguous) return *this;
  auto buffer = AcquireBuffer(numel());
  CopyToDense(*impl_, buffer->data());
  auto self_impl = impl_;
  const int64_t n = numel();
  // The dense copy enumerates elements in logical order, so the gradient
  // routes back as an identity over the dense logical grad buffers.
  auto backward = [self_impl, n](TensorImpl& self) {
    if (!self_impl->requires_grad) return;
    const float* g = self.grad_ptr();
    float* ga = self_impl->grad_ptr();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
  };
  return MakeOpResultBuffer(impl_->shape, std::move(buffer), {impl_},
                            std::move(backward), "contiguous");
}

float* Tensor::data() {
  START_CHECK(defined());
  return impl_->data_ptr();
}

const float* Tensor::data() const {
  START_CHECK(defined());
  return impl_->data_ptr();
}

float* Tensor::grad() {
  START_CHECK(defined());
  return impl_->grad_ptr();
}

const float* Tensor::grad() const {
  return const_cast<Tensor*>(this)->grad();
}

bool Tensor::has_grad() const {
  START_CHECK(defined());
  return impl_->has_grad();
}

float Tensor::item() const {
  START_CHECK_EQ(numel(), 1);
  return impl_->base_ptr()[0];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  START_CHECK(defined());
  const auto& dims = shape().dims();
  START_CHECK_EQ(static_cast<int64_t>(idx.size()), ndim());
  int64_t flat = 0;
  size_t i = 0;
  for (int64_t ix : idx) {
    START_CHECK_GE(ix, 0);
    START_CHECK_LT(ix, dims[i]);
    flat += ix * impl_->strides[i];
    ++i;
  }
  return impl_->base_ptr()[flat];
}

void Tensor::ZeroGrad() {
  START_CHECK(defined());
  impl_->ResetGrad();
}

namespace {

/// Builds a topological order of the autograd graph reachable from `root`
/// (parents before children in the returned vector).
void TopoSort(const std::shared_ptr<TensorImpl>& root,
              std::vector<std::shared_ptr<TensorImpl>>* order) {
  std::unordered_set<TensorImpl*> visited;
  // Iterative post-order DFS (graphs can be deep for RNN baselines).
  std::vector<std::pair<std::shared_ptr<TensorImpl>, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      auto child = node->parents[next_child++];
      if (visited.insert(child.get()).second) {
        stack.emplace_back(std::move(child), 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Tensor::Backward() {
  START_CHECK_MSG(numel() == 1, "Backward() without seed requires a scalar");
  Backward({1.0f});
}

void Tensor::Backward(const std::vector<float>& seed) {
  START_CHECK(defined());
  START_CHECK_EQ(static_cast<int64_t>(seed.size()), numel());
  Backward(seed.data());
}

void Tensor::Backward(const float* seed) {
  START_CHECK(defined());
  START_CHECK(seed != nullptr);
  std::vector<std::shared_ptr<TensorImpl>> order;
  TopoSort(impl_, &order);
  // Leaf gradients accumulate across Backward() calls (optimizers own their
  // lifecycle); interior-node gradients are scratch space and reset here so
  // repeated backward passes through a retained graph behave like the first.
  for (auto& node : order) {
    if (node->backward_fn) {
      node->ResetGrad();
    } else {
      node->AllocGrad();
    }
  }
  float* g = impl_->grad_ptr();
  const int64_t n = numel();
  for (int64_t i = 0; i < n; ++i) g[i] += seed[i];
  // Children come after parents in `order`; run backward in reverse.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn(**it);
  }
}

Tensor Tensor::Detach() const {
  START_CHECK(defined());
  auto buffer = AcquireBuffer(numel());
  CopyToDense(*impl_, buffer->data());
  return Tensor(MakeDenseImpl(impl_->shape, std::move(buffer)));
}

Tensor MakeOpResult(Shape shape, std::vector<float> data,
                    std::vector<std::shared_ptr<TensorImpl>> parents,
                    std::function<void(TensorImpl&)> backward_fn,
                    const char* op_name) {
  return MakeOpResultBuffer(std::move(shape),
                            BufferPool::Global().Adopt(std::move(data)),
                            std::move(parents), std::move(backward_fn),
                            op_name);
}

Tensor MakeOpResultBuffer(Shape shape,
                          std::shared_ptr<std::vector<float>> data,
                          std::vector<std::shared_ptr<TensorImpl>> parents,
                          std::function<void(TensorImpl&)> backward_fn,
                          const char* op_name) {
  START_CHECK_EQ(static_cast<int64_t>(data->size()), shape.numel());
  auto impl = MakeDenseImpl(std::move(shape), std::move(data));
  impl->op = op_name;
  if (GradModeEnabled()) {
    bool any_requires = false;
    for (const auto& p : parents) any_requires |= p->requires_grad;
    if (any_requires) {
      impl->requires_grad = true;
      impl->parents = std::move(parents);
      impl->backward_fn = std::move(backward_fn);
    }
  }
  return Tensor(std::move(impl));
}

Tensor MakeViewResult(Shape shape, std::vector<int64_t> strides,
                      int64_t offset, const Tensor& base,
                      std::function<void(TensorImpl&)> backward_fn,
                      const char* op_name) {
  START_CHECK(base.defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->contiguous = StridesAreContiguous(shape.dims(), strides);
  impl->shape = std::move(shape);
  impl->strides = std::move(strides);
  impl->storage = base.impl()->storage;
  impl->offset = offset;
  impl->op = op_name;
  if (GradModeEnabled() && base.impl()->requires_grad) {
    impl->requires_grad = true;
    impl->parents = {base.impl()};
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor(std::move(impl));
}

}  // namespace start::tensor
