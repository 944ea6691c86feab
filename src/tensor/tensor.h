#ifndef START_TENSOR_TENSOR_H_
#define START_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/buffer_pool.h"
#include "tensor/shape.h"

namespace start::tensor {

class Tensor;

/// \brief Storage + autograd node backing a Tensor handle.
///
/// The value buffer is a shared, pool-recycled storage that may be aliased by
/// several impls: a view (Reshape / Slice / Transpose / row-gather of a
/// contiguous run) points into its base's storage through `offset` and
/// `strides` instead of copying. The gradient buffer is never aliased: it is
/// always dense row-major over the *logical* extent (`shape`), so backward
/// functions can use plain logical index arithmetic regardless of how the
/// value data is laid out.
struct TensorImpl {
  Shape shape;
  std::shared_ptr<std::vector<float>> storage;  ///< Value buffer (shared by views).
  std::vector<int64_t> strides;  ///< Element strides, one per dim.
  int64_t offset = 0;            ///< Element offset of this view into storage.
  bool contiguous = true;        ///< Cached StridesAreContiguous(shape, strides).
  std::shared_ptr<std::vector<float>> grad;  ///< Dense logical, numel() floats.
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;
  const char* op = "leaf";

  int64_t numel() const { return shape.numel(); }

  /// Start of this impl's data within the shared storage. Valid for any
  /// layout; elements are addressed by adding multiples of `strides`.
  float* base_ptr() { return storage->data() + offset; }
  const float* base_ptr() const { return storage->data() + offset; }

  /// Dense row-major data pointer. CHECK-fails on a non-contiguous view (the
  /// caller should go through Tensor::Contiguous() or a strided kernel).
  float* data_ptr() {
    START_CHECK_MSG(contiguous, "non-contiguous view in op " << op);
    return base_ptr();
  }
  const float* data_ptr() const {
    return const_cast<TensorImpl*>(this)->data_ptr();
  }

  bool has_grad() const {
    return grad != nullptr && static_cast<int64_t>(grad->size()) == numel();
  }
  float* grad_ptr() {
    START_CHECK_MSG(has_grad(), "gradient not allocated for op " << op);
    return grad->data();
  }

  /// Ensures the gradient buffer exists (zero-filled on first allocation).
  void AllocGrad() {
    if (!has_grad()) {
      grad = BufferPool::Global().AcquireZeroed(static_cast<size_t>(numel()));
    }
  }

  /// Zeroes the gradient buffer, allocating it if needed.
  void ResetGrad() {
    if (has_grad()) {
      grad->assign(grad->size(), 0.0f);
    } else {
      grad = BufferPool::Global().AcquireZeroed(static_cast<size_t>(numel()));
    }
  }
};

/// Returns true while gradient recording is enabled (default). Ops skip
/// building the autograd graph when disabled.
bool GradModeEnabled();

/// \brief RAII guard that disables autograd graph construction (inference).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// \brief Value-semantics handle to a dense float tensor with reverse-mode
/// autograd.
///
/// Copying a Tensor copies the handle (both handles alias the same storage),
/// mirroring torch.Tensor semantics. All shape checking is done with
/// START_CHECK (shape mismatch is a programming error, not a runtime
/// condition).
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- Factories -----------------------------------------------------------

  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value, bool requires_grad = false);
  /// Takes ownership of `values`; values.size() must equal shape.numel().
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  /// Scalar (shape {1}).
  static Tensor Scalar(float value, bool requires_grad = false);
  /// Uniform random in [lo, hi).
  static Tensor Rand(const Shape& shape, common::Rng* rng, float lo, float hi,
                     bool requires_grad = false);
  /// Normal random.
  static Tensor RandN(const Shape& shape, common::Rng* rng, float mean,
                      float stddev, bool requires_grad = false);

  // ---- Introspection -------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t ndim() const { return shape().ndim(); }
  int64_t dim(int64_t i) const { return shape().dim(i); }
  int64_t numel() const { return shape().numel(); }
  bool requires_grad() const;
  /// Marks a leaf tensor as a trainable parameter.
  void set_requires_grad(bool value);

  /// Element strides of this tensor's layout (one per dim).
  const std::vector<int64_t>& strides() const;
  /// Element offset into the shared storage.
  int64_t offset() const;
  /// True when the layout is dense row-major (data() is legal).
  bool is_contiguous() const;
  /// Returns this tensor when contiguous; otherwise a materialised dense
  /// copy (an autograd op, so gradients flow back through the view).
  Tensor Contiguous() const;

  /// Dense row-major data pointer. CHECK-fails on a non-contiguous view;
  /// call Contiguous() first or address elements through strides(). Writes
  /// through this pointer on a contiguous view are visible to the base
  /// tensor (and vice versa) — views alias storage, they don't copy it.
  float* data();
  const float* data() const;
  /// Gradient buffer; CHECK-fails when not allocated (call AllocGrad or run
  /// Backward first).
  float* grad();
  const float* grad() const;
  bool has_grad() const;

  /// Value of a 1-element tensor.
  float item() const;
  /// Element accessor by multi-index (stride-aware); for tests/debugging.
  float at(std::initializer_list<int64_t> idx) const;

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  // ---- Autograd ------------------------------------------------------------

  /// Zeroes this tensor's gradient buffer (allocating it if needed).
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this (scalar) tensor, seeding d(self)=1.
  void Backward();

  /// Runs reverse-mode autodiff with an explicit seed gradient (same numel).
  void Backward(const std::vector<float>& seed);

  /// Same, reading the seed from `seed[0 .. numel())` — lets a caller seed
  /// from a row range of a larger gradient buffer without copying it out.
  void Backward(const float* seed);

  /// Returns a new leaf tensor sharing no graph edges. Only the viewed
  /// extent is copied (a Detach of a [2, 4] slice of a huge base tensor
  /// costs 8 floats), and the result is always contiguous.
  Tensor Detach() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Creates a graph node: output tensor whose backward_fn routes gradients to
/// `parents`. Used by op implementations; exposed for extension ops.
Tensor MakeOpResult(Shape shape, std::vector<float> data,
                    std::vector<std::shared_ptr<TensorImpl>> parents,
                    std::function<void(TensorImpl&)> backward_fn,
                    const char* op_name);

/// Like MakeOpResult but takes a pool-acquired buffer directly, so hot op
/// kernels can write into recycled storage without an intermediate vector.
Tensor MakeOpResultBuffer(Shape shape,
                          std::shared_ptr<std::vector<float>> data,
                          std::vector<std::shared_ptr<TensorImpl>> parents,
                          std::function<void(TensorImpl&)> backward_fn,
                          const char* op_name);

/// Creates a zero-copy view of `base`: the result shares base's storage and
/// addresses it through (`strides`, `offset` — absolute, in elements of the
/// storage). `backward_fn` must route the view's dense logical gradient into
/// base's dense logical gradient. No data is copied.
Tensor MakeViewResult(Shape shape, std::vector<int64_t> strides,
                      int64_t offset, const Tensor& base,
                      std::function<void(TensorImpl&)> backward_fn,
                      const char* op_name);

}  // namespace start::tensor

#endif  // START_TENSOR_TENSOR_H_
