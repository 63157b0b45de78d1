#ifndef DEHEALTH_IO_BYTE_CODEC_H_
#define DEHEALTH_IO_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace dehealth {

/// The one byte codec behind every binary format: DHIX index snapshots,
/// DHJB/DHSH job checkpoints, DHSG delta segments and DHQP frames. Every
/// integer is stored little-endian and every double as its IEEE-754 bits,
/// which on the hosts this builds for is the in-memory layout, so Put and
/// ByteReader::Read are one memcpy each.
///
/// Files share one frame, checked by OpenFrame:
///
///   magic (4 bytes) | u32 version | payload | u64 FNV-1a(payload)
///
/// DHQP frames share the `magic | u32 version` header (ExpectHeader) and
/// carry a length prefix instead of a checksum.
static_assert(std::endian::native == std::endian::little,
              "the binary formats are little-endian; Put and "
              "ByteReader::Read need byte swaps on this host");

/// The offset basis every format has hashed from since the first DHIX
/// snapshot. It is NOT the published FNV-1a 64 basis 14695981039346656037
/// (0xcbf29ce484222325) but that number with its last digit dropped; the
/// checksums and fingerprints already on disk depend on it, so it stays.
inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ull;

/// FNV-1a 64 (published prime, xor then multiply) over `n` bytes,
/// continuing from `h`.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Mixes one value's bytes into the running FNV-1a hash `h`.
template <typename T>
uint64_t Fnv1aValue(uint64_t h, T value) {
  static_assert(std::is_arithmetic_v<T>);
  return Fnv1a(&value, sizeof(T), h);
}

/// Appends `value` in its little-endian wire form.
template <typename T>
void Put(std::string& out, T value) {
  static_assert(std::is_arithmetic_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Starts a frame: returns `magic | u32 version`, ready for the payload.
std::string BeginFrame(const char (&magic)[4], uint32_t version);

/// Seals a frame started by BeginFrame: appends the FNV-1a of its payload.
void EndFrame(std::string& frame);

/// Bounds-checked sequential reader over bytes it does not own (they, and
/// `what`/`path`, must outlive it). Every failure is a Status of the form
/// "<what> '<path>' (byte N): <why>" — the path part only when non-empty,
/// N the absolute offset where parsing stopped — so a bad file among many
/// is identifiable from the message alone.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string_view what,
             std::string_view path = {})
      : bytes_(bytes), end_(bytes.size()), what_(what), path_(path) {}

  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_arithmetic_v<T>);
    if (end_ - pos_ < sizeof(T)) return Fail("truncated payload");
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Reads a u32 element count and rejects it unless that many elements of
  /// at least `min_element_bytes` each fit in the bytes left — before the
  /// caller allocates, so a lying length is a Status, not std::bad_alloc.
  Status ReadCount(size_t min_element_bytes, uint32_t* count);

  /// Reads `n` raw bytes into `out`.
  Status ReadBytes(size_t n, std::string* out);

  /// Reads `magic | u32 version`. The one version rule of every format: a
  /// newer version is Unimplemented (upgrade the build); an older one, 0
  /// included, is InvalidArgument — never parsed with this layout.
  Status ExpectHeader(const char (&magic)[4], uint32_t version);

  /// InvalidArgument when bytes are left over.
  Status ExpectEnd() const;

  /// True when every byte has been consumed (an optional trailing
  /// extension is absent).
  bool AtEnd() const { return pos_ == end_; }

  /// A decode error at the current byte.
  Status Fail(std::string_view why,
              StatusCode code = StatusCode::kInvalidArgument) const {
    return FailAt(pos_, why, code);
  }

 private:
  friend StatusOr<ByteReader> OpenFrame(std::string_view bytes,
                                        const char (&magic)[4],
                                        uint32_t version,
                                        std::string_view what,
                                        std::string_view path);

  Status FailAt(size_t offset, std::string_view why,
                StatusCode code = StatusCode::kInvalidArgument) const;

  std::string_view bytes_;
  size_t pos_ = 0;
  size_t end_;
  std::string_view what_;
  std::string_view path_;
};

/// Checks a file frame — size, magic, version (ExpectHeader's rule) and
/// checksum — and returns a reader over its payload.
StatusOr<ByteReader> OpenFrame(std::string_view bytes, const char (&magic)[4],
                               uint32_t version, std::string_view what,
                               std::string_view path);

/// Moves a corrupt file to `<path>.quarantined` — evidence is kept for a
/// post-mortem, never served and never deleted — and warns on stderr with
/// `why`. Returns false when the rename failed and the file is still at
/// `path`; what to do then is the caller's policy.
bool QuarantineFile(const std::string& path, const Status& why);

}  // namespace dehealth

#endif  // DEHEALTH_IO_BYTE_CODEC_H_
