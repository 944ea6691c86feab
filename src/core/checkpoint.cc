#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "tensor/serialize.h"

namespace start::core {

namespace {

// Training-checkpoint record names. Optimizer slots are stored per parameter
// ("optim.m.<param>"), so restore is robust to parameter-order changes as
// long as names survive.
constexpr char kMoment1Prefix[] = "optim.m.";
constexpr char kMoment2Prefix[] = "optim.v.";
constexpr char kNextStepKey[] = "trainer.next_step";
constexpr char kAdamStepKey[] = "trainer.adam_step";
constexpr char kLossSumKey[] = "trainer.loss_sum";
constexpr char kMaskSumKey[] = "trainer.mask_sum";
constexpr char kConSumKey[] = "trainer.con_sum";
constexpr char kBatchCountKey[] = "trainer.batch_count";
constexpr char kScheduleKey[] = "trainer.schedule_fingerprint";
constexpr char kPlanHashKey[] = "trainer.plan_hash";
// Records of older writers that no loader reads ("trainer.rng_state",
// "trainer.shard_topology", "trainer.shard_rng") are skipped on load, so
// those files still resume.

void WarnOnHashMismatch(const std::string& path, uint64_t expected,
                        uint64_t actual) {
  if (expected != 0 && actual != 0 && expected != actual) {
    START_LOG(Warning) << "config-hash mismatch loading " << path
                       << ": checkpoint " << actual << " vs expected "
                       << expected
                       << " — loading anyway, shapes are checked per tensor";
  }
}

common::Status CollectNamedParameters(
    const nn::Module& model,
    std::map<std::string, tensor::Tensor>* out) {
  for (auto& [name, t] : model.NamedParameters()) {
    auto [it, inserted] = out->emplace(name, t);
    if (!inserted) {
      return common::Status::Internal("duplicate parameter name: " + name);
    }
  }
  return common::Status::OK();
}

/// Copies checkpoint tensors into the model's parameters (the shared logic
/// of both load paths).
common::Status ApplyParameters(
    const std::map<std::string, tensor::Tensor>& loaded, nn::Module* model,
    const LoadOptions& options) {
  for (auto& [name, t] : model->NamedParameters()) {
    const auto it = loaded.find(name);
    if (it == loaded.end()) {
      if (options.allow_missing) continue;
      return common::Status::NotFound("parameter missing in checkpoint: " +
                                      name);
    }
    if (it->second.shape() != t.shape()) {
      if (options.skip_mismatched) continue;
      return common::Status::InvalidArgument(
          "shape mismatch for " + name + ": checkpoint " +
          it->second.shape().ToString() + " vs model " +
          t.shape().ToString());
    }
    std::copy(it->second.data(), it->second.data() + t.numel(), t.data());
  }
  return common::Status::OK();
}

}  // namespace

uint64_t HashCombine(uint64_t h, uint64_t word) {
  h ^= word;
  h *= 0x100000001b3ULL;  // FNV-1a prime
  return h;
}

uint64_t HashStartConfig(const StartConfig& config) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = HashCombine(h, static_cast<uint64_t>(config.d));
  h = HashCombine(h, static_cast<uint64_t>(config.gat_layers));
  for (const int64_t heads : config.gat_heads) {
    h = HashCombine(h, static_cast<uint64_t>(heads));
  }
  h = HashCombine(h, static_cast<uint64_t>(config.encoder_layers));
  h = HashCombine(h, static_cast<uint64_t>(config.encoder_heads));
  h = HashCombine(h, static_cast<uint64_t>(config.ffn_dim));
  uint32_t dropout_bits = 0;
  std::memcpy(&dropout_bits, &config.dropout, sizeof(dropout_bits));
  h = HashCombine(h, dropout_bits);
  h = HashCombine(h, static_cast<uint64_t>(config.max_len));
  h = HashCombine(h, static_cast<uint64_t>(config.interval_hidden));
  uint64_t flags = 0;
  for (const bool flag :
       {config.use_tpe_gat, config.use_transfer_prob,
        config.use_time_embedding, config.use_time_interval,
        config.interval_use_hops, config.interval_use_log,
        config.interval_adaptive}) {
    flags = (flags << 1) | (flag ? 1 : 0);
  }
  h = HashCombine(h, flags);
  h = HashCombine(h, config.road_embedding_init.size());
  return h;
}

bool CheckpointExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

common::Status SaveModelCheckpoint(const std::string& path,
                                   const nn::Module& model,
                                   uint64_t config_hash) {
  tensor::RecordBundle bundle;
  START_RETURN_IF_ERROR(CollectNamedParameters(model, &bundle.tensors));
  return tensor::SaveBundle(path, config_hash, bundle);
}

common::Status LoadModelCheckpoint(const std::string& path, nn::Module* model,
                                   uint64_t expected_config_hash,
                                   const LoadOptions& options) {
  START_CHECK(model != nullptr);
  START_ASSIGN_OR_RETURN(tensor::LoadedBundle bundle,
                         tensor::LoadBundle(path));
  WarnOnHashMismatch(path, expected_config_hash, bundle.meta_tag);
  return ApplyParameters(bundle.records.tensors, model, options);
}

common::Status SaveTrainingCheckpoint(const std::string& path,
                                      const nn::Module& model,
                                      const nn::AdamW& opt,
                                      const TrainerState& state,
                                      uint64_t config_hash) {
  tensor::RecordBundle bundle;
  START_RETURN_IF_ERROR(CollectNamedParameters(model, &bundle.tensors));

  // AdamW slots ride along as tensors shaped like their parameter, keyed by
  // the parameter's registry name.
  const auto named = model.NamedParameters();
  const auto& params = opt.params();
  if (named.size() != params.size()) {
    return common::Status::InvalidArgument(
        "optimizer parameter count does not match the model's registry "
        "(was the optimizer built from this model's Parameters()?)");
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const auto& [name, param] = named[i];
    if (params[i].impl() != param.impl()) {
      return common::Status::InvalidArgument(
          "optimizer parameter order does not match the model's registry");
    }
    bundle.tensors.emplace(
        kMoment1Prefix + name,
        tensor::Tensor::FromVector(param.shape(), opt.moment1()[i]));
    bundle.tensors.emplace(
        kMoment2Prefix + name,
        tensor::Tensor::FromVector(param.shape(), opt.moment2()[i]));
  }

  bundle.ints[kNextStepKey] = {state.next_step};
  bundle.ints[kAdamStepKey] = {state.adam_step};
  bundle.ints[kBatchCountKey] = state.batch_count;
  bundle.doubles[kLossSumKey] = state.loss_sum;
  bundle.doubles[kMaskSumKey] = state.mask_sum;
  bundle.doubles[kConSumKey] = state.con_sum;
  bundle.uints[kScheduleKey] = {state.schedule_fingerprint};
  bundle.uints[kPlanHashKey] = {state.plan_hash};
  return tensor::SaveBundle(path, config_hash, bundle);
}

common::Result<TrainerState> LoadTrainingCheckpoint(
    const std::string& path, nn::Module* model, nn::AdamW* opt,
    uint64_t expected_config_hash, uint64_t expected_plan_hash) {
  START_CHECK(model != nullptr);
  START_CHECK(opt != nullptr);
  START_ASSIGN_OR_RETURN(tensor::LoadedBundle bundle,
                         tensor::LoadBundle(path));
  WarnOnHashMismatch(path, expected_config_hash, bundle.meta_tag);

  const auto& ints = bundle.records.ints;
  const auto next_step_it = ints.find(kNextStepKey);
  const auto adam_step_it = ints.find(kAdamStepKey);
  if (next_step_it == ints.end() || adam_step_it == ints.end()) {
    return common::Status::FailedPrecondition(
        path + " is a model-only checkpoint; it cannot resume training "
               "(optimizer/trainer records are absent)");
  }
  if (next_step_it->second.empty() || adam_step_it->second.empty()) {
    return common::Status::FailedPrecondition(
        path + " has empty trainer cursor records; refusing to resume");
  }
  if (expected_plan_hash != 0) {
    const auto it = bundle.records.uints.find(kPlanHashKey);
    if (it != bundle.records.uints.end() && !it->second.empty() &&
        it->second[0] != expected_plan_hash) {
      return common::Status::FailedPrecondition(
          path + " was written under a different training plan "
                 "(epochs/batch size/seed/corpus changed); refusing to "
                 "resume an incoherent run");
    }
  }

  // A resume must be exact: every parameter present with its exact shape.
  START_RETURN_IF_ERROR(
      ApplyParameters(bundle.records.tensors, model, LoadOptions{}));

  const auto named = model->NamedParameters();
  if (named.size() != opt->params().size()) {
    return common::Status::InvalidArgument(
        "optimizer parameter count does not match the model's registry");
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const auto& [name, param] = named[i];
    // Mirror the save-side alignment check: slots are restored by index, so
    // the optimizer's order must be the registry's order or m/v would land
    // on (and be sized for) the wrong parameters.
    if (opt->params()[i].impl() != param.impl()) {
      return common::Status::InvalidArgument(
          "optimizer parameter order does not match the model's registry");
    }
    for (const auto& [prefix, slots] :
         {std::pair{kMoment1Prefix, &opt->moment1()},
          std::pair{kMoment2Prefix, &opt->moment2()}}) {
      const auto it = bundle.records.tensors.find(prefix + name);
      if (it == bundle.records.tensors.end()) {
        return common::Status::NotFound("optimizer slot missing: " +
                                        std::string(prefix) + name);
      }
      if (it->second.numel() != param.numel()) {
        return common::Status::InvalidArgument("optimizer slot size mismatch: " +
                                               (prefix + name));
      }
      (*slots)[i].assign(it->second.data(),
                         it->second.data() + it->second.numel());
    }
  }

  TrainerState state;
  state.next_step = next_step_it->second[0];
  state.adam_step = adam_step_it->second[0];
  opt->set_step_count(state.adam_step);
  const auto copy_ints = [&](const char* key, std::vector<int64_t>* out) {
    const auto it = ints.find(key);
    if (it != ints.end()) *out = it->second;
  };
  const auto copy_doubles = [&](const char* key, std::vector<double>* out) {
    const auto it = bundle.records.doubles.find(key);
    if (it != bundle.records.doubles.end()) *out = it->second;
  };
  copy_ints(kBatchCountKey, &state.batch_count);
  copy_doubles(kLossSumKey, &state.loss_sum);
  copy_doubles(kMaskSumKey, &state.mask_sum);
  copy_doubles(kConSumKey, &state.con_sum);
  const auto sched_it = bundle.records.uints.find(kScheduleKey);
  if (sched_it != bundle.records.uints.end() && !sched_it->second.empty()) {
    state.schedule_fingerprint = sched_it->second[0];
  }
  const auto plan_it = bundle.records.uints.find(kPlanHashKey);
  if (plan_it != bundle.records.uints.end() && !plan_it->second.empty()) {
    state.plan_hash = plan_it->second[0];
  }
  return state;
}

}  // namespace start::core
