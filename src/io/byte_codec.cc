#include "io/byte_codec.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

namespace dehealth {

namespace {

constexpr size_t kHeaderBytes = 4 + sizeof(uint32_t);
constexpr size_t kFooterBytes = sizeof(uint64_t);

}  // namespace

std::string BeginFrame(const char (&magic)[4], uint32_t version) {
  std::string frame(magic, sizeof(magic));
  Put(frame, version);
  return frame;
}

void EndFrame(std::string& frame) {
  Put(frame, Fnv1a(frame.data() + kHeaderBytes, frame.size() - kHeaderBytes));
}

Status ByteReader::FailAt(size_t offset, std::string_view why,
                          StatusCode code) const {
  std::string message(what_);
  if (!path_.empty()) message.append(" '").append(path_).append("'");
  message.append(" (byte ").append(std::to_string(offset)).append("): ");
  message.append(why);
  return Status(code, std::move(message));
}

Status ByteReader::ReadCount(size_t min_element_bytes, uint32_t* count) {
  DEHEALTH_RETURN_IF_ERROR(Read(count));
  if (*count > (end_ - pos_) / min_element_bytes)
    return Fail("count " + std::to_string(*count) +
                " exceeds remaining payload");
  return Status::OK();
}

Status ByteReader::ReadBytes(size_t n, std::string* out) {
  if (end_ - pos_ < n) return Fail("truncated payload");
  out->assign(bytes_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ExpectHeader(const char (&magic)[4], uint32_t version) {
  if (end_ - pos_ < kHeaderBytes) return Fail("truncated header");
  if (std::memcmp(bytes_.data() + pos_, magic, sizeof(magic)) != 0)
    return Fail("bad magic (expected \"" + std::string(magic, sizeof(magic)) +
                "\")");
  pos_ += sizeof(magic);
  uint32_t found = 0;
  std::memcpy(&found, bytes_.data() + pos_, sizeof(found));
  if (found > version)
    return Fail("format version " + std::to_string(found) +
                    " is newer than this build's " + std::to_string(version) +
                    " (upgrade the build)",
                StatusCode::kUnimplemented);
  if (found < version)
    return Fail("format version " + std::to_string(found) +
                " is not this build's " + std::to_string(version) +
                " (an older or damaged file)");
  pos_ += sizeof(found);
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (AtEnd()) return Status::OK();
  return Fail(std::to_string(end_ - pos_) + " trailing bytes after payload");
}

StatusOr<ByteReader> OpenFrame(std::string_view bytes, const char (&magic)[4],
                               uint32_t version, std::string_view what,
                               std::string_view path) {
  ByteReader reader(bytes, what, path);
  if (bytes.size() < kHeaderBytes + kFooterBytes)
    return reader.FailAt(bytes.size(), "file smaller than header + footer");
  DEHEALTH_RETURN_IF_ERROR(reader.ExpectHeader(magic, version));
  reader.end_ = bytes.size() - kFooterBytes;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + reader.end_, sizeof(stored));
  if (stored != Fnv1a(bytes.data() + kHeaderBytes, reader.end_ - kHeaderBytes))
    return reader.FailAt(reader.end_, "checksum mismatch (corrupt file)");
  return reader;
}

bool QuarantineFile(const std::string& path, const Status& why) {
  const std::string target = path + ".quarantined";
  std::error_code ec;
  std::filesystem::rename(path, target, ec);
  if (ec) {
    std::fprintf(stderr,
                 "warning: could not quarantine '%s' (%s); it is left in "
                 "place: %s\n",
                 path.c_str(), ec.message().c_str(), why.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "warning: quarantined '%s' to '%s': %s\n",
               path.c_str(), target.c_str(), why.ToString().c_str());
  return true;
}

}  // namespace dehealth
