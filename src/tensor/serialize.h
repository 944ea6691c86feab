#ifndef START_TENSOR_SERIALIZE_H_
#define START_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace start::tensor {

/// \brief An int8-quantized matrix record: row-major [rows, cols] codes plus
/// one f32 dequantization scale per row (see tensor/qgemm.h for the scheme).
/// Stored UNPACKED on disk — the cache-blocked panel layout is a kernel
/// implementation detail that may evolve; loaders re-pack.
struct QuantizedTensor {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> scales;  ///< [rows]
  std::vector<int8_t> data;   ///< [rows * cols]
};

/// \brief Typed named records persisted together in one checkpoint file.
///
/// Tensors carry model/optimizer parameters; the scalar arrays carry trainer
/// bookkeeping (loss accumulators, step cursors, RNG state) that must survive
/// a save/load/resume cycle bitwise (see core/checkpoint.h). `qtensors` and
/// `halfs` are the low-precision serving records: int8 weights and f16
/// tensors (written via F32ToF16 round-to-nearest-even; loaded back as f32,
/// so the round trip is value = F16ToF32(F32ToF16(x))).
struct RecordBundle {
  std::map<std::string, Tensor> tensors;
  std::map<std::string, std::vector<double>> doubles;
  std::map<std::string, std::vector<int64_t>> ints;
  std::map<std::string, std::vector<uint64_t>> uints;
  std::map<std::string, QuantizedTensor> qtensors;
  std::map<std::string, Tensor> halfs;  ///< Written as f16, loaded as f32.
  /// Dense int32 arrays — graph adjacency / slot-index records (see
  /// serve::HnswIndex persistence) where i64 would double the file size.
  std::map<std::string, std::vector<int32_t>> ints32;

  bool empty() const {
    return tensors.empty() && doubles.empty() && ints.empty() &&
           uints.empty() && qtensors.empty() && halfs.empty() &&
           ints32.empty();
  }
};

/// \brief A bundle read back from disk, plus the header's caller tag.
struct LoadedBundle {
  uint64_t meta_tag = 0;  ///< Caller-defined (core uses the config hash).
  RecordBundle records;
};

/// \brief Writes a versioned record bundle.
///
/// Format (v2): magic "STTN", uint32 version, uint64 meta_tag, uint64 record
/// count, then per record: uint32 name length, name bytes, uint8 kind,
/// kind-specific payload, uint32 CRC-32 over the record bytes (name length
/// through payload). Tensor records hold dense row-major float data —
/// view-backed (non-contiguous) tensors are compacted before writing, so a
/// checkpoint never depends on in-memory layout. `meta_tag` is free for the
/// caller; core/checkpoint stores the model-config hash there.
common::Status SaveBundle(const std::string& path, uint64_t meta_tag,
                          const RecordBundle& bundle);

/// Reads a bundle written by SaveBundle. Rejects bad magic, unknown versions,
/// truncated files, records whose CRC does not match (corruption), a name
/// repeated within one record kind, and bytes after the last record.
/// Version-1 files (tensors only, no CRC) are still accepted.
common::Result<LoadedBundle> LoadBundle(const std::string& path);

/// \brief Writes named tensors to a binary file (a tensors-only bundle with
/// meta_tag 0). Used to persist pre-trained models for the transfer
/// experiments (Table III).
common::Status SaveTensors(const std::string& path,
                           const std::map<std::string, Tensor>& tensors);

/// Reads the tensor records of a file written by SaveTensors or SaveBundle.
common::Result<std::map<std::string, Tensor>> LoadTensors(
    const std::string& path);

/// IEEE binary16 conversions (round-to-nearest-even on narrowing; subnormals
/// and inf/NaN handled). Exposed for the f16 record kind and its tests.
uint16_t F32ToF16(float x);
float F16ToF32(uint16_t h);

}  // namespace start::tensor

#endif  // START_TENSOR_SERIALIZE_H_
