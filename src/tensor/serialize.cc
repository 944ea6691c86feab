#include "tensor/serialize.h"

#include "common/crc32.h"

#include <fcntl.h>
#include <unistd.h>

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

/// Appends raw bytes to the record buffer being assembled.
void Append(std::vector<uint8_t>* buf, const void* p, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(p);
  buf->insert(buf->end(), bytes, bytes + n);
}

template <typename T>
void AppendValue(std::vector<uint8_t>* buf, T value) {
  Append(buf, &value, sizeof(value));
}

/// Serialises one record (name + kind + payload) into `buf` and writes it to
/// `f` followed by its CRC.
common::Status WriteRecord(std::FILE* f, std::vector<uint8_t>* buf,
                           const std::string& name) {
  const uint32_t crc = common::Crc32(buf->data(), buf->size());
  if (!WriteBytes(f, buf->data(), buf->size()) ||
      !WriteBytes(f, &crc, sizeof(crc))) {
    return common::Status::IOError("write record failed: " + name);
  }
  return common::Status::OK();
}

void BeginRecord(std::vector<uint8_t>* buf, const std::string& name,
                 uint8_t kind) {
  buf->clear();
  AppendValue(buf, static_cast<uint32_t>(name.size()));
  Append(buf, name.data(), name.size());
  AppendValue(buf, kind);
}

template <typename T>
common::Status WriteArrayRecord(std::FILE* f, std::vector<uint8_t>* buf,
                                const std::string& name, uint8_t kind,
                                const std::vector<T>& values) {
  BeginRecord(buf, name, kind);
  AppendValue(buf, static_cast<uint64_t>(values.size()));
  Append(buf, values.data(), values.size() * sizeof(T));
  return WriteRecord(f, buf, name);
}

/// Reads `n` bytes into the record buffer (which accumulates everything the
/// CRC covers) and returns a pointer to them.
const uint8_t* ReadInto(std::FILE* f, std::vector<uint8_t>* buf, size_t n) {
  const size_t at = buf->size();
  buf->resize(at + n);
  if (!ReadBytes(f, buf->data() + at, n)) return nullptr;
  return buf->data() + at;
}

template <typename T>
bool ReadValueInto(std::FILE* f, std::vector<uint8_t>* buf, T* out) {
  const uint8_t* p = ReadInto(f, buf, sizeof(T));
  if (p == nullptr) return false;
  std::memcpy(out, p, sizeof(T));
  return true;
}

/// Legacy (v1) body: tensors only, no CRC. `file_size` bounds every size
/// field (see LoadBundle).
common::Result<LoadedBundle> LoadLegacyBody(std::FILE* f,
                                            const std::string& path,
                                            uint64_t file_size) {
  uint64_t count = 0;
  if (!ReadBytes(f, &count, sizeof(count))) {
    return common::Status::IOError("read header failed: " + path);
  }
  LoadedBundle out;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadBytes(f, &name_len, sizeof(name_len))) {
      return common::Status::IOError("read name length failed: " + path);
    }
    // Same bound as the v2 reader: a corrupt length word must not drive a
    // multi-gigabyte allocation before any other validation runs.
    if (name_len > 4096) {
      return common::Status::InvalidArgument("implausible name length in " +
                                             path);
    }
    std::string name(name_len, '\0');
    uint32_t ndim = 0;
    if (!ReadBytes(f, name.data(), name_len) ||
        !ReadBytes(f, &ndim, sizeof(ndim))) {
      return common::Status::IOError("read tensor header failed: " + path);
    }
    if (ndim > kMaxNdim) {
      return common::Status::InvalidArgument("implausible ndim in " + path);
    }
    std::vector<int64_t> dims(ndim);
    int64_t numel = 1;
    for (auto& d : dims) {
      if (!ReadBytes(f, &d, sizeof(d))) {
        return common::Status::IOError("read dims failed: " + path);
      }
      if (d <= 0 || numel > (1LL << 40) / d) {
        return common::Status::InvalidArgument("bad dim in " + path);
      }
      numel *= d;
    }
    if (static_cast<uint64_t>(numel) * sizeof(float) > file_size) {
      return common::Status::InvalidArgument(
          "tensor '" + name + "' claims more data than " + path + " holds");
    }
    std::vector<float> data(static_cast<size_t>(numel));
    if (!ReadBytes(f, data.data(),
                   static_cast<size_t>(numel) * sizeof(float))) {
      return common::Status::IOError("read data failed for " + name);
    }
    out.records.tensors.emplace(
        std::move(name),
        Tensor::FromVector(Shape(std::move(dims)), std::move(data)));
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
    std::vector<uint8_t> buf;
    for (const auto& [name, t] : bundle.tensors) {
      if (!t.defined()) {
        return common::Status::InvalidArgument("undefined tensor: " + name);
      }
      if (t.ndim() > kMaxNdim) {
        return common::Status::InvalidArgument("too many dims: " + name);
      }
      BeginRecord(&buf, name, kTensorF32);
      AppendValue(&buf, static_cast<uint32_t>(t.ndim()));
      for (int64_t i = 0; i < t.ndim(); ++i) AppendValue(&buf, t.dim(i));
      // Files always hold dense row-major data; a strided view is compacted
      // into a fresh buffer before writing.
      const Tensor dense = t.is_contiguous() ? t : t.Detach();
      Append(&buf, dense.data(),
             static_cast<size_t>(dense.numel()) * sizeof(float));
      START_RETURN_IF_ERROR(WriteRecord(f.get(), &buf, name));
    }
    for (const auto& [name, v] : bundle.doubles) {
      START_RETURN_IF_ERROR(
          WriteArrayRecord(f.get(), &buf, name, kArrayF64, v));
    }
    for (const auto& [name, v] : bundle.ints) {
      START_RETURN_IF_ERROR(
          WriteArrayRecord(f.get(), &buf, name, kArrayI64, v));
    }
    for (const auto& [name, v] : bundle.uints) {
      START_RETURN_IF_ERROR(
          WriteArrayRecord(f.get(), &buf, name, kArrayU64, v));
    }
    for (const auto& [name, v] : bundle.ints32) {
      START_RETURN_IF_ERROR(
          WriteArrayRecord(f.get(), &buf, name, kArrayI32, v));
    }
    for (const auto& [name, q] : bundle.qtensors) {
      if (q.rows <= 0 || q.cols <= 0 ||
          q.scales.size() != static_cast<size_t>(q.rows) ||
          q.data.size() != static_cast<size_t>(q.rows * q.cols)) {
        return common::Status::InvalidArgument(
            "inconsistent quantized tensor: " + name);
      }
      BeginRecord(&buf, name, kTensorI8);
      AppendValue(&buf, q.rows);
      AppendValue(&buf, q.cols);
      AppendValue(&buf, static_cast<uint64_t>(q.scales.size()));
      Append(&buf, q.scales.data(), q.scales.size() * sizeof(float));
      Append(&buf, q.data.data(), q.data.size());
      START_RETURN_IF_ERROR(WriteRecord(f.get(), &buf, name));
    }
    for (const auto& [name, t] : bundle.halfs) {
      if (!t.defined()) {
        return common::Status::InvalidArgument("undefined tensor: " + name);
      }
      if (t.ndim() > kMaxNdim) {
        return common::Status::InvalidArgument("too many dims: " + name);
      }
      BeginRecord(&buf, name, kTensorF16);
      AppendValue(&buf, static_cast<uint32_t>(t.ndim()));
      for (int64_t i = 0; i < t.ndim(); ++i) AppendValue(&buf, t.dim(i));
      const Tensor dense = t.is_contiguous() ? t : t.Detach();
      const float* src = dense.data();
      for (int64_t i = 0; i < dense.numel(); ++i) {
        AppendValue(&buf, F32ToF16(src[i]));
      }
      START_RETURN_IF_ERROR(WriteRecord(f.get(), &buf, name));
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
  const long file_size = std::ftell(f.get());
  if (file_size < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) {
    return common::Status::IOError("seek failed: " + path);
  }
  const auto payload_fits = [file_size](uint64_t bytes) {
    return bytes <= static_cast<uint64_t>(file_size);
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
    return LoadLegacyBody(f.get(), path, static_cast<uint64_t>(file_size));
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
  std::vector<uint8_t> buf;  // bytes of the current record, for the CRC
  for (uint64_t i = 0; i < count; ++i) {
    buf.clear();
    uint32_t name_len = 0;
    if (!ReadValueInto(f.get(), &buf, &name_len)) {
      return common::Status::IOError("truncated record header in " + path);
    }
    if (name_len > 4096) {
      return common::Status::InvalidArgument("implausible name length in " +
                                             path);
    }
    const uint8_t* name_bytes = ReadInto(f.get(), &buf, name_len);
    if (name_bytes == nullptr) {
      return common::Status::IOError("truncated record name in " + path);
    }
    const std::string name(reinterpret_cast<const char*>(name_bytes),
                           name_len);
    uint8_t kind = 0;
    if (!ReadValueInto(f.get(), &buf, &kind)) {
      return common::Status::IOError("truncated record kind for " + name);
    }
    if (kind == kTensorF32) {
      uint32_t ndim = 0;
      if (!ReadValueInto(f.get(), &buf, &ndim)) {
        return common::Status::IOError("truncated tensor header for " + name);
      }
      if (ndim > kMaxNdim) {
        return common::Status::InvalidArgument("implausible ndim in " + path);
      }
      std::vector<int64_t> dims(ndim);
      int64_t numel = 1;
      for (auto& d : dims) {
        if (!ReadValueInto(f.get(), &buf, &d)) {
          return common::Status::IOError("truncated dims for " + name);
        }
        if (d <= 0 || numel > (1LL << 40) / d) {
          return common::Status::InvalidArgument("bad dim in " + path);
        }
        numel *= d;
      }
      if (!payload_fits(static_cast<uint64_t>(numel) * sizeof(float))) {
        return common::Status::InvalidArgument(
            "tensor '" + name + "' claims more data than " + path +
            " holds (corrupted size field)");
      }
      const uint8_t* data =
          ReadInto(f.get(), &buf, static_cast<size_t>(numel) * sizeof(float));
      if (data == nullptr) {
        return common::Status::IOError("truncated data for " + name);
      }
      std::vector<float> values(static_cast<size_t>(numel));
      std::memcpy(values.data(), data, values.size() * sizeof(float));
      out.records.tensors.emplace(
          name, Tensor::FromVector(Shape(std::move(dims)), std::move(values)));
    } else if (kind == kArrayF64 || kind == kArrayI64 || kind == kArrayU64) {
      uint64_t len = 0;
      if (!ReadValueInto(f.get(), &buf, &len)) {
        return common::Status::IOError("truncated array header for " + name);
      }
      if (len > kMaxArrayLen || !payload_fits(len * 8)) {
        return common::Status::InvalidArgument("implausible array length in " +
                                               path);
      }
      const uint8_t* data =
          ReadInto(f.get(), &buf, static_cast<size_t>(len) * 8);
      if (data == nullptr) {
        return common::Status::IOError("truncated array data for " + name);
      }
      // len == 0 is a legal record; v.data() is null then, and memcpy's
      // pointer arguments must be non-null even for a zero-byte copy.
      if (kind == kArrayF64) {
        auto& v = out.records.doubles[name];
        v.resize(static_cast<size_t>(len));
        if (len != 0) std::memcpy(v.data(), data, v.size() * sizeof(double));
      } else if (kind == kArrayI64) {
        auto& v = out.records.ints[name];
        v.resize(static_cast<size_t>(len));
        if (len != 0) std::memcpy(v.data(), data, v.size() * sizeof(int64_t));
      } else {
        auto& v = out.records.uints[name];
        v.resize(static_cast<size_t>(len));
        if (len != 0) std::memcpy(v.data(), data, v.size() * sizeof(uint64_t));
      }
    } else if (kind == kArrayI32) {
      uint64_t len = 0;
      if (!ReadValueInto(f.get(), &buf, &len)) {
        return common::Status::IOError("truncated array header for " + name);
      }
      if (len > kMaxArrayLen || !payload_fits(len * sizeof(int32_t))) {
        return common::Status::InvalidArgument("implausible array length in " +
                                               path);
      }
      const uint8_t* data =
          ReadInto(f.get(), &buf, static_cast<size_t>(len) * sizeof(int32_t));
      if (data == nullptr) {
        return common::Status::IOError("truncated array data for " + name);
      }
      auto& v = out.records.ints32[name];
      v.resize(static_cast<size_t>(len));
      if (len != 0) std::memcpy(v.data(), data, v.size() * sizeof(int32_t));
    } else if (kind == kTensorI8) {
      int64_t rows = 0;
      int64_t cols = 0;
      uint64_t scale_count = 0;
      if (!ReadValueInto(f.get(), &buf, &rows) ||
          !ReadValueInto(f.get(), &buf, &cols) ||
          !ReadValueInto(f.get(), &buf, &scale_count)) {
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
      QuantizedTensor q;
      q.rows = rows;
      q.cols = cols;
      const uint8_t* scales =
          ReadInto(f.get(), &buf, static_cast<size_t>(rows) * sizeof(float));
      if (scales == nullptr) {
        return common::Status::IOError("truncated scales for " + name);
      }
      q.scales.resize(static_cast<size_t>(rows));
      std::memcpy(q.scales.data(), scales, q.scales.size() * sizeof(float));
      const uint8_t* codes =
          ReadInto(f.get(), &buf, static_cast<size_t>(rows * cols));
      if (codes == nullptr) {
        return common::Status::IOError("truncated data for " + name);
      }
      q.data.resize(static_cast<size_t>(rows * cols));
      std::memcpy(q.data.data(), codes, q.data.size());
      out.records.qtensors.emplace(name, std::move(q));
    } else if (kind == kTensorF16) {
      uint32_t ndim = 0;
      if (!ReadValueInto(f.get(), &buf, &ndim)) {
        return common::Status::IOError("truncated tensor header for " + name);
      }
      if (ndim > kMaxNdim) {
        return common::Status::InvalidArgument("implausible ndim in " + path);
      }
      std::vector<int64_t> dims(ndim);
      int64_t numel = 1;
      for (auto& d : dims) {
        if (!ReadValueInto(f.get(), &buf, &d)) {
          return common::Status::IOError("truncated dims for " + name);
        }
        if (d <= 0 || numel > (1LL << 40) / d) {
          return common::Status::InvalidArgument("bad dim in " + path);
        }
        numel *= d;
      }
      if (!payload_fits(static_cast<uint64_t>(numel) * sizeof(uint16_t))) {
        return common::Status::InvalidArgument(
            "tensor '" + name + "' claims more data than " + path +
            " holds (corrupted size field)");
      }
      const uint8_t* data = ReadInto(
          f.get(), &buf, static_cast<size_t>(numel) * sizeof(uint16_t));
      if (data == nullptr) {
        return common::Status::IOError("truncated data for " + name);
      }
      std::vector<float> values(static_cast<size_t>(numel));
      for (int64_t j = 0; j < numel; ++j) {
        uint16_t h = 0;
        std::memcpy(&h, data + j * sizeof(uint16_t), sizeof(h));
        values[static_cast<size_t>(j)] = F16ToF32(h);
      }
      out.records.halfs.emplace(
          name, Tensor::FromVector(Shape(std::move(dims)), std::move(values)));
    } else {
      return common::Status::InvalidArgument(
          "unknown record kind " + std::to_string(kind) + " in " + path);
    }
    uint32_t stored_crc = 0;
    if (!ReadBytes(f.get(), &stored_crc, sizeof(stored_crc))) {
      return common::Status::IOError("truncated CRC for " + name);
    }
    const uint32_t actual_crc = common::Crc32(buf.data(), buf.size());
    if (stored_crc != actual_crc) {
      return common::Status::InvalidArgument(
          "CRC mismatch for record '" + name + "' in " + path +
          " (file is corrupted)");
    }
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
