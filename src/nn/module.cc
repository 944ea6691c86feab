#include "nn/module.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "tensor/serialize.h"

namespace start::nn {

std::vector<std::pair<std::string, tensor::Tensor>> Module::NamedParameters()
    const {
  std::vector<std::pair<std::string, tensor::Tensor>> out;
  CollectParameters("", &out);
  return out;
}

void Module::CollectParameters(
    const std::string& prefix,
    std::vector<std::pair<std::string, tensor::Tensor>>* out) const {
  for (const auto& [name, t] : params_) {
    out->emplace_back(prefix + name, t);
  }
  for (const auto& [name, child] : children_) {
    child->CollectParameters(prefix + name + ".", out);
  }
}

std::vector<std::pair<std::string, Module*>> Module::NamedModules() {
  std::vector<std::pair<std::string, Module*>> out;
  CollectModules("", &out);
  return out;
}

void Module::CollectModules(
    const std::string& prefix,
    std::vector<std::pair<std::string, Module*>>* out) {
  out->emplace_back(prefix, this);
  for (const auto& [name, child] : children_) {
    child->CollectModules(prefix.empty() ? name : prefix + "." + name, out);
  }
}

std::vector<tensor::Tensor> Module::Parameters() const {
  std::vector<tensor::Tensor> out;
  for (auto& [name, t] : NamedParameters()) out.push_back(t);
  return out;
}

void Module::ZeroGrad() {
  for (auto& t : Parameters()) t.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::SetDropoutRng(common::Rng* rng) {
  dropout_rng_ = rng;
  for (auto& [name, child] : children_) child->SetDropoutRng(rng);
}

int64_t Module::ParameterCount() const {
  int64_t n = 0;
  for (const auto& t : Parameters()) n += t.numel();
  return n;
}

common::Status Module::Save(const std::string& path) const {
  std::map<std::string, tensor::Tensor> named;
  for (auto& [name, t] : NamedParameters()) {
    auto [it, inserted] = named.emplace(name, t);
    if (!inserted) {
      return common::Status::Internal("duplicate parameter name: " + name);
    }
  }
  return tensor::SaveTensors(path, named);
}

common::Status Module::Load(const std::string& path, bool allow_missing,
                            bool skip_mismatched) {
  START_ASSIGN_OR_RETURN(auto loaded, tensor::LoadTensors(path));
  for (auto& [name, t] : NamedParameters()) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      if (allow_missing) continue;
      return common::Status::NotFound("parameter missing in checkpoint: " +
                                      name);
    }
    if (it->second.shape() != t.shape()) {
      if (skip_mismatched) continue;
      return common::Status::InvalidArgument(
          "shape mismatch for " + name + ": checkpoint " +
          it->second.shape().ToString() + " vs model " +
          t.shape().ToString());
    }
    std::copy(it->second.data(), it->second.data() + t.numel(), t.data());
  }
  return common::Status::OK();
}

tensor::Tensor Module::RegisterParameter(const std::string& name,
                                         tensor::Tensor t) {
  START_CHECK(t.defined());
  t.set_requires_grad(true);
  params_.emplace_back(name, t);
  return t;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  START_CHECK(child != nullptr);
  if (dropout_rng_ != nullptr) child->SetDropoutRng(dropout_rng_);
  children_.emplace_back(name, child);
}

void Module::UnregisterModule(const std::string& name) {
  const auto it = std::find_if(
      children_.begin(), children_.end(),
      [&name](const auto& child) { return child.first == name; });
  START_CHECK(it != children_.end());
  children_.erase(it);
}

double ClipGradNorm(const std::vector<tensor::Tensor>& params,
                    double max_norm) {
  double total = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    for (int64_t i = 0; i < p.numel(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params) {
      if (!p.has_grad()) continue;
      float* g = const_cast<float*>(p.grad());
      for (int64_t i = 0; i < p.numel(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

}  // namespace start::nn
