#include "tensor/serialize.h"

#include "common/crc32.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace start::tensor {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'T', 'N'};
constexpr uint32_t kLegacyVersion = 1;  ///< Tensors only, no CRC, no tag.
constexpr uint32_t kVersion = 2;

// Record kinds of the v2 container. New kinds append — old readers reject
// unknown kinds with a clean error rather than misparsing.
enum RecordKind : uint8_t {
  kTensorF32 = 0,
  kArrayF64 = 1,
  kArrayI64 = 2,
  kArrayU64 = 3,
  kTensorI8 = 4,   // i64 rows, i64 cols, u64 scale_count, f32[rows] scales,
                   // int8[rows*cols] row-major codes
  kTensorF16 = 5,  // u32 ndim, i64 dims..., u16[numel] IEEE binary16
  kArrayI32 = 6,   // u64 len, int32[len]
};

constexpr int64_t kMaxNdim = 8;
constexpr uint64_t kMaxArrayLen = 1ULL << 32;  ///< Plausibility bound.
constexpr int64_t kF16Chunk = 1024;  ///< Halves converted per file read/write.

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* p, size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool ReadBytes(std::FILE* f, void* p, size_t n) {
  return std::fread(p, 1, n, f) == n;
}

/// Streams one record (name length, name, kind, payload) straight to the
/// file and chains the CRC-32 over the same bytes; Finish() appends the CRC.
class RecordWriter {
 public:
  RecordWriter(std::FILE* f, const std::string& name, uint8_t kind)
      : f_(f), name_(name) {
    PutValue(static_cast<uint32_t>(name.size()));
    Put(name.data(), name.size());
    PutValue(kind);
  }

  /// An empty put returns early: `p` may then be an empty vector's null
  /// data(), which fwrite does not accept even for zero bytes.
  void Put(const void* p, size_t n) {
    if (n == 0 || !ok_) return;
    crc_ = common::Crc32(p, n, crc_);
    ok_ = WriteBytes(f_, p, n);
  }

  template <typename T>
  void PutValue(T value) {
    Put(&value, sizeof(value));
  }

  common::Status Finish() {
    if (!ok_ || !WriteBytes(f_, &crc_, sizeof(crc_))) {
      return common::Status::IOError("write record failed: " + name_);
    }
    return common::Status::OK();
  }

 private:
  std::FILE* f_;
  const std::string& name_;
  uint32_t crc_ = 0;
  bool ok_ = true;
};

template <typename T>
common::Status WriteArrayRecord(std::FILE* f, const std::string& name,
                                uint8_t kind, const std::vector<T>& values) {
  RecordWriter w(f, name, kind);
  w.PutValue(static_cast<uint64_t>(values.size()));
  w.Put(values.data(), values.size() * sizeof(T));
  return w.Finish();
}

/// Reads one record's fields straight into their destinations and chains
/// the CRC-32 over every byte read, in file order.
class RecordReader {
 public:
  explicit RecordReader(std::FILE* f) : f_(f) {}

  bool Get(void* p, size_t n) {
    if (n == 0) return true;  // `p` may be an empty vector's null data()
    if (!ReadBytes(f_, p, n)) return false;
    crc_ = common::Crc32(p, n, crc_);
    return true;
  }

  template <typename T>
  bool GetValue(T* out) {
    return Get(out, sizeof(T));
  }

  uint32_t crc() const { return crc_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = 0;
};

/// Adds an empty record `name` to one kind's map. A name the kind already
/// holds is an error: keeping either copy would make a crafted file load
/// differently depending on the kind.
template <typename Map>
common::Result<typename Map::mapped_type*> AddRecord(Map* records,
                                                     const std::string& name,
                                                     const std::string& path) {
  auto [it, inserted] = records->try_emplace(name);
  if (!inserted) {
    return common::Status::InvalidArgument("duplicate record '" + name +
                                           "' in " + path);
  }
  return &it->second;
}

/// Reads a tensor record's `u32 ndim, i64 dims...` header and bounds it:
/// at most kMaxNdim positive dims whose product stays under 2^40.
common::Status ReadDims(RecordReader* r, const std::string& name,
                        const std::string& path, std::vector<int64_t>* dims,
                        int64_t* numel) {
  uint32_t ndim = 0;
  if (!r->GetValue(&ndim)) {
    return common::Status::IOError("truncated tensor header for " + name);
  }
  if (ndim > kMaxNdim) {
    return common::Status::InvalidArgument("implausible ndim in " + path);
  }
  dims->resize(ndim);
  *numel = 1;
  for (auto& d : *dims) {
    if (!r->GetValue(&d)) {
      return common::Status::IOError("truncated dims for " + name);
    }
    if (d <= 0 || *numel > (1LL << 40) / d) {
      return common::Status::InvalidArgument("bad dim in " + path);
    }
    *numel *= d;
  }
  return common::Status::OK();
}

/// Reads a `u64 len, T[len]` array record into a new entry of `records`.
template <typename T>
common::Status ReadArrayRecord(RecordReader* r, const std::string& name,
                               const std::string& path, uint64_t file_size,
                               std::map<std::string, std::vector<T>>* records) {
  uint64_t len = 0;
  if (!r->GetValue(&len)) {
    return common::Status::IOError("truncated array header for " + name);
  }
  if (len > kMaxArrayLen || len * sizeof(T) > file_size) {
    return common::Status::InvalidArgument("implausible array length in " +
                                           path);
  }
  START_ASSIGN_OR_RETURN(std::vector<T> * v, AddRecord(records, name, path));
  v->resize(static_cast<size_t>(len));
  if (!r->Get(v->data(), v->size() * sizeof(T))) {
    return common::Status::IOError("truncated array data for " + name);
  }
  return common::Status::OK();
}

/// Legacy (v1) body: tensors only, no CRC (the reader's running CRC goes
/// unchecked). `file_size` bounds every size field (see LoadBundle).
common::Result<LoadedBundle> LoadLegacyBody(std::FILE* f,
                                            const std::string& path,
                                            uint64_t file_size) {
  uint64_t count = 0;
  if (!ReadBytes(f, &count, sizeof(count))) {
    return common::Status::IOError("read header failed: " + path);
  }
  LoadedBundle out;
  for (uint64_t i = 0; i < count; ++i) {
    RecordReader r(f);
    uint32_t name_len = 0;
    if (!r.GetValue(&name_len)) {
      return common::Status::IOError("read name length failed: " + path);
    }
    // Same bound as the v2 reader: a corrupt length word must not drive a
    // multi-gigabyte allocation before any other validation runs.
    if (name_len > 4096) {
      return common::Status::InvalidArgument("implausible name length in " +
                                             path);
    }
    std::string name(name_len, '\0');
    if (!r.Get(name.data(), name_len)) {
      return common::Status::IOError("read tensor header failed: " + path);
    }
    std::vector<int64_t> dims;
    int64_t numel = 0;
    START_RETURN_IF_ERROR(ReadDims(&r, name, path, &dims, &numel));
    if (static_cast<uint64_t>(numel) * sizeof(float) > file_size) {
      return common::Status::InvalidArgument(
          "tensor '" + name + "' claims more data than " + path + " holds");
    }
    START_ASSIGN_OR_RETURN(Tensor * t,
                           AddRecord(&out.records.tensors, name, path));
    std::vector<float> data(static_cast<size_t>(numel));
    if (!r.Get(data.data(), data.size() * sizeof(float))) {
      return common::Status::IOError("read data failed for " + name);
    }
    *t = Tensor::FromVector(Shape(std::move(dims)), std::move(data));
  }
  return out;
}

}  // namespace

uint16_t F32ToF16(float x) {
  uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t exp = (bits >> 23) & 0xffu;
  uint32_t mant = bits & 0x7fffffu;
  if (exp == 0xffu) {  // inf / NaN (NaN payload collapsed to a quiet bit)
    return static_cast<uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0));
  }
  const int32_t e = static_cast<int32_t>(exp) - 127 + 15;
  if (e >= 31) return static_cast<uint16_t>(sign | 0x7c00u);  // overflow->inf
  if (e <= 0) {
    if (e < -10) return static_cast<uint16_t>(sign);  // underflow -> +-0
    mant |= 0x800000u;  // make the implicit bit explicit, then shift out
    const uint32_t shift = static_cast<uint32_t>(14 - e);  // in [14, 24]
    uint32_t half = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1u))) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  // Normal range: narrow the mantissa 23 -> 10 bits with round-to-nearest-
  // even; a rounding carry propagates into the exponent (and saturates to
  // inf) for free because the fields are adjacent.
  uint32_t half = (static_cast<uint32_t>(e) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<uint16_t>(sign | half);
}

float F16ToF32(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {  // subnormal: normalize into f32's much wider exponent range
      int32_t e = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++e;
      }
      mant &= 0x3ffu;
      bits = sign | (static_cast<uint32_t>(113 - e) << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7f800000u | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float out = 0.0f;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

common::Status SaveBundle(const std::string& path, uint64_t meta_tag,
                          const RecordBundle& bundle) {
  // Write to a sibling temp file and rename over the target, so a crash
  // mid-save (the very event checkpointing exists to survive) never
  // destroys the previous good checkpoint.
  const std::string tmp_path = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp_path.c_str(), "wb"));
    if (f == nullptr) {
      return common::Status::IOError("cannot open for write: " + tmp_path);
    }
    const uint64_t count = bundle.tensors.size() + bundle.doubles.size() +
                           bundle.ints.size() + bundle.uints.size() +
                           bundle.qtensors.size() + bundle.halfs.size() +
                           bundle.ints32.size();
    if (!WriteBytes(f.get(), kMagic, 4) ||
        !WriteBytes(f.get(), &kVersion, sizeof(kVersion)) ||
        !WriteBytes(f.get(), &meta_tag, sizeof(meta_tag)) ||
        !WriteBytes(f.get(), &count, sizeof(count))) {
      return common::Status::IOError("write header failed: " + tmp_path);
    }
    for (const auto& [name, t] : bundle.tensors) {
      if (!t.defined()) {
        return common::Status::InvalidArgument("undefined tensor: " + name);
      }
      if (t.ndim() > kMaxNdim) {
        return common::Status::InvalidArgument("too many dims: " + name);
      }
      RecordWriter w(f.get(), name, kTensorF32);
      w.PutValue(static_cast<uint32_t>(t.ndim()));
      for (int64_t i = 0; i < t.ndim(); ++i) w.PutValue(t.dim(i));
      // Files always hold dense row-major data; a strided view is compacted
      // into a fresh buffer before writing.
      const Tensor dense = t.is_contiguous() ? t : t.Detach();
      w.Put(dense.data(), static_cast<size_t>(dense.numel()) * sizeof(float));
      START_RETURN_IF_ERROR(w.Finish());
    }
    for (const auto& [name, v] : bundle.doubles) {
      START_RETURN_IF_ERROR(WriteArrayRecord(f.get(), name, kArrayF64, v));
    }
    for (const auto& [name, v] : bundle.ints) {
      START_RETURN_IF_ERROR(WriteArrayRecord(f.get(), name, kArrayI64, v));
    }
    for (const auto& [name, v] : bundle.uints) {
      START_RETURN_IF_ERROR(WriteArrayRecord(f.get(), name, kArrayU64, v));
    }
    for (const auto& [name, v] : bundle.ints32) {
      START_RETURN_IF_ERROR(WriteArrayRecord(f.get(), name, kArrayI32, v));
    }
    for (const auto& [name, q] : bundle.qtensors) {
      if (q.rows <= 0 || q.cols <= 0 ||
          q.scales.size() != static_cast<size_t>(q.rows) ||
          q.data.size() != static_cast<size_t>(q.rows * q.cols)) {
        return common::Status::InvalidArgument(
            "inconsistent quantized tensor: " + name);
      }
      RecordWriter w(f.get(), name, kTensorI8);
      w.PutValue(q.rows);
      w.PutValue(q.cols);
      w.PutValue(static_cast<uint64_t>(q.scales.size()));
      w.Put(q.scales.data(), q.scales.size() * sizeof(float));
      w.Put(q.data.data(), q.data.size());
      START_RETURN_IF_ERROR(w.Finish());
    }
    for (const auto& [name, t] : bundle.halfs) {
      if (!t.defined()) {
        return common::Status::InvalidArgument("undefined tensor: " + name);
      }
      if (t.ndim() > kMaxNdim) {
        return common::Status::InvalidArgument("too many dims: " + name);
      }
      RecordWriter w(f.get(), name, kTensorF16);
      w.PutValue(static_cast<uint32_t>(t.ndim()));
      for (int64_t i = 0; i < t.ndim(); ++i) w.PutValue(t.dim(i));
      const Tensor dense = t.is_contiguous() ? t : t.Detach();
      const float* src = dense.data();
      uint16_t chunk[kF16Chunk];
      for (int64_t i = 0; i < dense.numel(); i += kF16Chunk) {
        const int64_t n = std::min<int64_t>(kF16Chunk, dense.numel() - i);
        for (int64_t j = 0; j < n; ++j) chunk[j] = F32ToF16(src[i + j]);
        w.Put(chunk, static_cast<size_t>(n) * sizeof(uint16_t));
      }
      START_RETURN_IF_ERROR(w.Finish());
    }
    if (std::fflush(f.get()) != 0) {
      return common::Status::IOError("flush failed: " + tmp_path);
    }
    // Durability half of the atomic replace: rename() orders metadata, not
    // data blocks — without this fsync a power cut shortly after the rename
    // can leave the target pointing at an empty file, destroying the
    // previous good checkpoint (the exact event this dance exists for).
    if (fsync(fileno(f.get())) != 0) {
      return common::Status::IOError("fsync failed: " + tmp_path);
    }
  }  // closes the file before the rename
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return common::Status::IOError("rename " + tmp_path + " -> " + path +
                                   " failed");
  }
  // Persist the rename itself (the directory entry). Best effort: some
  // filesystems refuse O_RDONLY fsync on directories; the data-block fsync
  // above already rules out the destructive failure mode.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    (void)fsync(dir_fd);
    (void)close(dir_fd);
  }
  return common::Status::OK();
}

common::Result<LoadedBundle> LoadBundle(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return common::Status::IOError("cannot open for read: " + path);
  }
  // No size field in the file may claim a payload bigger than the file
  // itself — otherwise a flipped bit in a dim/length word would drive a
  // multi-terabyte allocation (and an uncaught bad_alloc) before the CRC
  // check ever sees the record.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return common::Status::IOError("seek failed: " + path);
  }
  const long end = std::ftell(f.get());
  if (end < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) {
    return common::Status::IOError("seek failed: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(end);
  const auto payload_fits = [file_size](uint64_t bytes) {
    return bytes <= file_size;
  };
  char magic[4];
  uint32_t version = 0;
  if (!ReadBytes(f.get(), magic, 4) ||
      !ReadBytes(f.get(), &version, sizeof(version))) {
    return common::Status::IOError("read header failed: " + path);
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return common::Status::InvalidArgument("bad magic in " + path);
  }
  if (version == kLegacyVersion) {
    return LoadLegacyBody(f.get(), path, file_size);
  }
  if (version != kVersion) {
    return common::Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) + " in " +
        path + " (this build reads versions 1-" + std::to_string(kVersion) +
        ")");
  }
  LoadedBundle out;
  uint64_t count = 0;
  if (!ReadBytes(f.get(), &out.meta_tag, sizeof(out.meta_tag)) ||
      !ReadBytes(f.get(), &count, sizeof(count))) {
    return common::Status::IOError("read header failed: " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    RecordReader r(f.get());
    uint32_t name_len = 0;
    if (!r.GetValue(&name_len)) {
      return common::Status::IOError("truncated record header in " + path);
    }
    if (name_len > 4096) {
      return common::Status::InvalidArgument("implausible name length in " +
                                             path);
    }
    std::string name(name_len, '\0');
    if (!r.Get(name.data(), name_len)) {
      return common::Status::IOError("truncated record name in " + path);
    }
    uint8_t kind = 0;
    if (!r.GetValue(&kind)) {
      return common::Status::IOError("truncated record kind for " + name);
    }
    if (kind == kTensorF32) {
      std::vector<int64_t> dims;
      int64_t numel = 0;
      START_RETURN_IF_ERROR(ReadDims(&r, name, path, &dims, &numel));
      if (!payload_fits(static_cast<uint64_t>(numel) * sizeof(float))) {
        return common::Status::InvalidArgument(
            "tensor '" + name + "' claims more data than " + path +
            " holds (corrupted size field)");
      }
      START_ASSIGN_OR_RETURN(Tensor * t,
                             AddRecord(&out.records.tensors, name, path));
      std::vector<float> values(static_cast<size_t>(numel));
      if (!r.Get(values.data(), values.size() * sizeof(float))) {
        return common::Status::IOError("truncated data for " + name);
      }
      *t = Tensor::FromVector(Shape(std::move(dims)), std::move(values));
    } else if (kind == kArrayF64) {
      START_RETURN_IF_ERROR(
          ReadArrayRecord(&r, name, path, file_size, &out.records.doubles));
    } else if (kind == kArrayI64) {
      START_RETURN_IF_ERROR(
          ReadArrayRecord(&r, name, path, file_size, &out.records.ints));
    } else if (kind == kArrayU64) {
      START_RETURN_IF_ERROR(
          ReadArrayRecord(&r, name, path, file_size, &out.records.uints));
    } else if (kind == kArrayI32) {
      START_RETURN_IF_ERROR(
          ReadArrayRecord(&r, name, path, file_size, &out.records.ints32));
    } else if (kind == kTensorI8) {
      int64_t rows = 0;
      int64_t cols = 0;
      uint64_t scale_count = 0;
      if (!r.GetValue(&rows) || !r.GetValue(&cols) ||
          !r.GetValue(&scale_count)) {
        return common::Status::IOError("truncated int8 header for " + name);
      }
      if (rows <= 0 || cols <= 0 || rows > (1LL << 40) / cols) {
        return common::Status::InvalidArgument("bad dim in " + path);
      }
      if (scale_count != static_cast<uint64_t>(rows)) {
        return common::Status::InvalidArgument(
            "quantized tensor '" + name + "' scale count " +
            std::to_string(scale_count) + " != rows " + std::to_string(rows) +
            " in " + path);
      }
      const uint64_t payload = scale_count * sizeof(float) +
                               static_cast<uint64_t>(rows) *
                                   static_cast<uint64_t>(cols);
      if (!payload_fits(payload)) {
        return common::Status::InvalidArgument(
            "quantized tensor '" + name + "' claims more data than " + path +
            " holds (corrupted size field)");
      }
      START_ASSIGN_OR_RETURN(QuantizedTensor * q,
                             AddRecord(&out.records.qtensors, name, path));
      q->rows = rows;
      q->cols = cols;
      q->scales.resize(static_cast<size_t>(rows));
      if (!r.Get(q->scales.data(), q->scales.size() * sizeof(float))) {
        return common::Status::IOError("truncated scales for " + name);
      }
      q->data.resize(static_cast<size_t>(rows * cols));
      if (!r.Get(q->data.data(), q->data.size())) {
        return common::Status::IOError("truncated data for " + name);
      }
    } else if (kind == kTensorF16) {
      std::vector<int64_t> dims;
      int64_t numel = 0;
      START_RETURN_IF_ERROR(ReadDims(&r, name, path, &dims, &numel));
      if (!payload_fits(static_cast<uint64_t>(numel) * sizeof(uint16_t))) {
        return common::Status::InvalidArgument(
            "tensor '" + name + "' claims more data than " + path +
            " holds (corrupted size field)");
      }
      START_ASSIGN_OR_RETURN(Tensor * t,
                             AddRecord(&out.records.halfs, name, path));
      std::vector<float> values(static_cast<size_t>(numel));
      uint16_t chunk[kF16Chunk];
      for (int64_t j = 0; j < numel; j += kF16Chunk) {
        const int64_t n = std::min<int64_t>(kF16Chunk, numel - j);
        if (!r.Get(chunk, static_cast<size_t>(n) * sizeof(uint16_t))) {
          return common::Status::IOError("truncated data for " + name);
        }
        for (int64_t k = 0; k < n; ++k) values[j + k] = F16ToF32(chunk[k]);
      }
      *t = Tensor::FromVector(Shape(std::move(dims)), std::move(values));
    } else {
      return common::Status::InvalidArgument(
          "unknown record kind " + std::to_string(kind) + " in " + path);
    }
    uint32_t stored_crc = 0;
    if (!ReadBytes(f.get(), &stored_crc, sizeof(stored_crc))) {
      return common::Status::IOError("truncated CRC for " + name);
    }
    if (stored_crc != r.crc()) {
      return common::Status::InvalidArgument(
          "CRC mismatch for record '" + name + "' in " + path +
          " (file is corrupted)");
    }
  }
  // No CRC covers the header's record count: bytes after the last record
  // mean it was corrupted (a lowered count would otherwise drop records).
  if (std::fgetc(f.get()) != EOF) {
    return common::Status::InvalidArgument(
        "bytes after the last record in " + path + " (corrupted count)");
  }
  return out;
}

common::Status SaveTensors(const std::string& path,
                           const std::map<std::string, Tensor>& tensors) {
  RecordBundle bundle;
  bundle.tensors = tensors;
  return SaveBundle(path, 0, bundle);
}

common::Result<std::map<std::string, Tensor>> LoadTensors(
    const std::string& path) {
  START_ASSIGN_OR_RETURN(LoadedBundle bundle, LoadBundle(path));
  return std::move(bundle.records.tensors);
}

}  // namespace start::tensor
