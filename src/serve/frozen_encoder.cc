#include "serve/frozen_encoder.h"

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "data/batch.h"
#include "nn/layers.h"
#include "tensor/qgemm.h"
#include "tensor/serialize.h"

namespace start::serve {

namespace {

// Record names of the serving snapshot container (SaveSnapshot format 1).
constexpr char kSnapshotFormatKey[] = "snapshot.format";
constexpr char kExtTableKey[] = "ext_table";
constexpr uint64_t kSnapshotFormatVersion = 1;

/// Parameters a serving snapshot keeps: everything except stage 1 (the
/// precomputed ext_table replaces it) and the MLM pretraining head.
bool IsServingParam(const std::string& name) {
  return name.rfind("tpe_gat.", 0) != 0 && name.rfind("mlm_head.", 0) != 0 &&
         name != "road_table";
}

/// Quantizes every projection Linear of the stage-2 transformer in place.
/// Returns the number of layers switched to the int8 path.
int64_t QuantizeStage2(core::StartModel* model) {
  int64_t count = 0;
  for (auto& [path, mod] : model->NamedModules()) {
    if (path.rfind("encoder", 0) != 0) continue;
    auto* linear = dynamic_cast<nn::Linear*>(mod);
    if (linear == nullptr) continue;
    linear->QuantizeInt8();
    ++count;
  }
  return count;
}

/// Build-and-freeze common to every load path.
std::unique_ptr<core::StartModel> BuildFrozenModel(
    const core::StartConfig& config, const roadnet::RoadNetwork* net,
    const roadnet::TransferProbability* transfer) {
  // Build the architecture with a throwaway generator (every parameter is
  // overwritten by the loaded artifact; load failures discard the model).
  common::Rng init_rng(0);
  auto model =
      std::make_unique<core::StartModel>(config, net, transfer, &init_rng);
  model->SetTraining(false);
  for (auto& p : model->Parameters()) {
    p.impl()->requires_grad = false;
    p.impl()->grad.reset();
  }
  return model;
}

}  // namespace

common::Result<std::unique_ptr<FrozenEncoder>> FrozenEncoder::Load(
    const std::string& checkpoint_path, const core::StartConfig& config,
    const roadnet::RoadNetwork* net,
    const roadnet::TransferProbability* transfer,
    const FrozenEncoderOptions& options) {
  if (net == nullptr) {
    return common::Status::InvalidArgument("road network must not be null");
  }
  // Freeze: eval mode, no autograd participation, no gradient buffers.
  // Clearing requires_grad means no op downstream of the parameters ever
  // records a graph node, whatever the caller's thread-local grad mode is.
  auto model = BuildFrozenModel(config, net, transfer);
  START_RETURN_IF_ERROR(core::LoadModelCheckpoint(
      checkpoint_path, model.get(), core::HashStartConfig(config)));

  auto encoder = std::unique_ptr<FrozenEncoder>(new FrozenEncoder());
  {
    // Precompute everything that depends only on the (now immutable)
    // parameters: stage 1 and the extended token table, dense-packed out of
    // whatever views produced them. Runs on the f32 weights regardless of
    // precision — only stage-2 Linears are ever quantized.
    tensor::NoGradGuard no_grad;
    const tensor::Tensor road_reps = model->ComputeRoadReps().Detach();
    encoder->ext_table_ = model->BuildExtendedTable(road_reps).Detach();
  }
  model->ReleaseTrainingOnlyModules();
  if (options.precision == Precision::kInt8) {
    encoder->quantized_layers_ = QuantizeStage2(model.get());
    encoder->precision_ = Precision::kInt8;
  }
  encoder->model_ = std::move(model);
  return encoder;
}

common::Status FrozenEncoder::SaveSnapshot(const std::string& path) {
  tensor::RecordBundle bundle;
  bundle.uints[kSnapshotFormatKey] = {kSnapshotFormatVersion};
  bundle.halfs[kExtTableKey] = ext_table_;
  std::set<std::string> quantized_weight_names;
  for (auto& [mpath, mod] : model_->NamedModules()) {
    auto* linear = dynamic_cast<nn::Linear*>(mod);
    if (linear == nullptr || !linear->is_quantized()) continue;
    const tensor::qgemm::PackedMatrix& p = linear->quantized_weights();
    tensor::QuantizedTensor q;
    q.rows = p.rows;
    q.cols = p.cols;
    q.scales = p.scales;
    // Disk holds canonical unpacked row-major codes — the panel layout is a
    // kernel detail that may change without invalidating artifacts.
    q.data = tensor::qgemm::Unpack(p);
    bundle.qtensors.emplace(mpath, std::move(q));
    quantized_weight_names.insert(mpath + ".weight");
  }
  for (auto& [name, t] : model_->NamedParameters()) {
    if (!IsServingParam(name)) continue;
    if (quantized_weight_names.count(name) != 0) continue;
    // Matrix-shaped parameters (embedding tables, interval MLP weights) are
    // the bulk of the artifact and tolerate f16 storage; 1-D vectors
    // (biases, layernorm gamma/beta) stay exact f32 — they are tiny and
    // shift/scale the activation distribution directly.
    if (t.ndim() >= 2) {
      bundle.halfs.emplace(name, t);
    } else {
      bundle.tensors.emplace(name, t);
    }
  }
  return tensor::SaveBundle(path, core::HashStartConfig(model_->config()),
                            bundle);
}

common::Result<std::unique_ptr<FrozenEncoder>> FrozenEncoder::LoadSnapshot(
    const std::string& snapshot_path, const core::StartConfig& config,
    const roadnet::RoadNetwork* net,
    const roadnet::TransferProbability* transfer) {
  if (net == nullptr) {
    return common::Status::InvalidArgument("road network must not be null");
  }
  START_ASSIGN_OR_RETURN(tensor::LoadedBundle loaded,
                         tensor::LoadBundle(snapshot_path));
  const auto fmt = loaded.records.uints.find(kSnapshotFormatKey);
  if (fmt == loaded.records.uints.end() || fmt->second.size() != 1 ||
      fmt->second[0] != kSnapshotFormatVersion) {
    return common::Status::InvalidArgument(
        snapshot_path + " is not a frozen-encoder snapshot");
  }
  if (loaded.meta_tag != core::HashStartConfig(config)) {
    return common::Status::InvalidArgument(
        "snapshot " + snapshot_path +
        " was built for a different architecture (config hash mismatch)");
  }
  auto model = BuildFrozenModel(config, net, transfer);
  model->ReleaseTrainingOnlyModules();  // the snapshot's ext_table replaces them

  // Install the quantized Linears first, validating every record against the
  // architecture before any kernel code touches it.
  int64_t quantized = 0;
  std::set<std::string> quantized_weight_names;
  std::map<std::string, nn::Module*> by_path;
  for (auto& [mpath, mod] : model->NamedModules()) by_path.emplace(mpath, mod);
  for (auto& [qpath, q] : loaded.records.qtensors) {
    const auto it = by_path.find(qpath);
    auto* linear =
        it == by_path.end() ? nullptr : dynamic_cast<nn::Linear*>(it->second);
    if (linear == nullptr) {
      return common::Status::InvalidArgument(
          "quantized record '" + qpath +
          "' does not name a Linear layer of this architecture");
    }
    if (q.rows != linear->out_features() || q.cols != linear->in_features()) {
      return common::Status::InvalidArgument(
          "quantized weight shape [" + std::to_string(q.rows) + ", " +
          std::to_string(q.cols) + "] for '" + qpath +
          "' does not match layer [" +
          std::to_string(linear->out_features()) + ", " +
          std::to_string(linear->in_features()) + "]");
    }
    for (const float s : q.scales) {
      if (!std::isfinite(s) || s < 0.0f) {
        return common::Status::InvalidArgument(
            "non-finite or negative dequant scale in quantized record '" +
            qpath + "'");
      }
    }
    START_RETURN_IF_ERROR(linear->SetQuantizedWeights(
        tensor::qgemm::Pack(q.data.data(), q.scales.data(), q.rows, q.cols)));
    quantized_weight_names.insert(qpath + ".weight");
    ++quantized;
  }

  // Fill the remaining serving parameters. Vectors live in the f32 section,
  // matrices in the f16 one (SaveSnapshot's storage split); a parameter may
  // legitimately come from either, so probe both before declaring it missing.
  for (auto& [name, t] : model->NamedParameters()) {
    if (!IsServingParam(name)) continue;
    if (quantized_weight_names.count(name) != 0) continue;
    auto it = loaded.records.tensors.find(name);
    if (it == loaded.records.tensors.end()) {
      it = loaded.records.halfs.find(name);
      if (it == loaded.records.halfs.end()) {
        return common::Status::NotFound("parameter missing in snapshot: " +
                                        name);
      }
    }
    if (it->second.shape() != t.shape()) {
      return common::Status::InvalidArgument(
          "shape mismatch for " + name + ": snapshot " +
          it->second.shape().ToString() + " vs model " + t.shape().ToString());
    }
    std::copy(it->second.data(), it->second.data() + t.numel(), t.data());
  }

  const auto et = loaded.records.halfs.find(kExtTableKey);
  if (et == loaded.records.halfs.end()) {
    return common::Status::NotFound("snapshot missing the " +
                                    std::string(kExtTableKey) + " record");
  }
  if (et->second.ndim() != 2 ||
      et->second.dim(0) != model->num_roads() + 2 ||
      et->second.dim(1) != config.d) {
    return common::Status::InvalidArgument(
        "ext_table shape " + et->second.shape().ToString() +
        " does not match [" + std::to_string(model->num_roads() + 2) + ", " +
        std::to_string(config.d) + "]");
  }

  auto encoder = std::unique_ptr<FrozenEncoder>(new FrozenEncoder());
  encoder->ext_table_ = et->second;
  encoder->model_ = std::move(model);
  encoder->quantized_layers_ = quantized;
  encoder->precision_ =
      quantized > 0 ? Precision::kInt8 : Precision::kFloat32;
  return encoder;
}

common::Status FrozenEncoder::Validate(const traj::Trajectory& t) const {
  if (t.size() < 1) {
    return common::Status::InvalidArgument("empty trajectory");
  }
  if (t.size() > max_len()) {
    return common::Status::InvalidArgument(
        "trajectory of " + std::to_string(t.size()) +
        " roads exceeds the engine's max_len " + std::to_string(max_len()));
  }
  const int64_t v = model_->num_roads();
  for (const int64_t r : t.roads) {
    if (r < 0 || r >= v) {
      return common::Status::InvalidArgument(
          "road id " + std::to_string(r) + " outside [0, " +
          std::to_string(v) + ")");
    }
  }
  return common::Status::OK();
}

tensor::Tensor FrozenEncoder::EncodeBatch(
    const std::vector<const traj::Trajectory*>& batch,
    eval::EncodeMode mode) const {
  const data::Batch b = eval::MakeModeBatch(batch, mode);
  tensor::NoGradGuard no_grad;
  // cls is a strided view into the [B, L+1, d] sequence buffer; compact it
  // so callers hold B·d floats, not the whole sequence activation.
  return model_->EncodeWithTable(b, ext_table_).cls.Contiguous();
}

std::vector<float> FrozenEncoder::EmbedAll(
    const std::vector<traj::Trajectory>& trajs, eval::EncodeMode mode,
    int64_t batch_size) const {
  // Same deterministic bucketed loop as the eval harness, running on the
  // frozen engine.
  return eval::EmbedAllWith(
      dim(), trajs, batch_size,
      [&](const std::vector<const traj::Trajectory*>& batch) {
        return EncodeBatch(batch, mode);
      });
}

}  // namespace start::serve
