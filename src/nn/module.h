#ifndef START_NN_MODULE_H_
#define START_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace start::nn {

/// \brief Base class for neural-network modules: a named parameter registry
/// with train/eval mode, save/load, and recursive traversal.
///
/// Submodules are registered by raw pointer; the registering module must own
/// them (as value members or unique_ptr members) and register them in its
/// constructor, mirroring torch::nn semantics.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its registered submodules, with
  /// fully-qualified dotted names (e.g. "encoder.layer0.wq.weight").
  std::vector<std::pair<std::string, tensor::Tensor>> NamedParameters() const;

  /// Parameters without names.
  std::vector<tensor::Tensor> Parameters() const;

  /// This module and every registered submodule, depth-first, with dotted
  /// paths ("" for the root, "encoder0.attn.wq" for a leaf). Non-const
  /// pointers so callers can apply structural transforms (e.g. post-training
  /// quantization) to selected submodules.
  std::vector<std::pair<std::string, Module*>> NamedModules();

  /// Zeroes the gradients of every parameter.
  void ZeroGrad();

  /// Toggles training mode recursively (affects dropout).
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Sets the generator used for dropout mask sampling in this module tree
  /// (recursively). nullptr (the default) falls back to common::GlobalRng().
  /// Seeding an explicit generator makes training steps reproducible even
  /// when other components consume the global stream.
  void SetDropoutRng(common::Rng* rng);

  /// Total number of scalar parameters.
  int64_t ParameterCount() const;

  /// Persists all named parameters to `path` (tensor::SaveTensors format).
  common::Status Save(const std::string& path) const;

  /// Loads parameters by name; every registered parameter must be present
  /// with a matching shape. Extra tensors in the file are ignored, so a
  /// fine-tuning model can load a pre-trained checkpoint that lacks the new
  /// head (missing entries are reported via the `allow_missing` flag).
  /// With `skip_mismatched`, parameters whose checkpoint shape differs are
  /// left at their current values instead of failing — this is the
  /// cross-city transfer path of Table III, where |V|-dependent tensors
  /// (e.g. the MLM output head) cannot move between road networks.
  common::Status Load(const std::string& path, bool allow_missing = false,
                      bool skip_mismatched = false);

 protected:
  /// Registers a leaf parameter; returns the same tensor with
  /// requires_grad set.
  tensor::Tensor RegisterParameter(const std::string& name, tensor::Tensor t);

  /// Registers a child module (must outlive this module).
  void RegisterModule(const std::string& name, Module* child);

  /// Removes a child registered under `name` (its parameters leave
  /// Parameters() and checkpoints).
  void UnregisterModule(const std::string& name);

  /// Generator for dropout masks; nullptr means use common::GlobalRng().
  common::Rng* dropout_rng() const { return dropout_rng_; }

 private:
  void CollectParameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, tensor::Tensor>>* out) const;

  void CollectModules(const std::string& prefix,
                      std::vector<std::pair<std::string, Module*>>* out);

  std::vector<std::pair<std::string, tensor::Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
  common::Rng* dropout_rng_ = nullptr;
};

/// Rescales gradients in-place so their global L2 norm is at most `max_norm`.
/// Returns the pre-clipping norm.
double ClipGradNorm(const std::vector<tensor::Tensor>& params,
                    double max_norm);

}  // namespace start::nn

#endif  // START_NN_MODULE_H_
