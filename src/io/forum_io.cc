#include "io/forum_io.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/fault_injection.h"
#include "common/string_utils.h"
#include "io/file_util.h"
#include "obs/trace.h"

namespace dehealth {

std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

StatusOr<std::string> UnescapeJson(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    const char c = escaped[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 1 >= escaped.size())
      return Status::InvalidArgument("UnescapeJson: dangling backslash");
    const char next = escaped[++i];
    switch (next) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (i + 4 >= escaped.size())
          return Status::InvalidArgument("UnescapeJson: truncated \\u");
        int code = 0;
        for (int d = 0; d < 4; ++d) {
          const char h = escaped[i + 1 + static_cast<size_t>(d)];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code += h - '0';
          } else if (h >= 'a' && h <= 'f') {
            code += h - 'a' + 10;
          } else if (h >= 'A' && h <= 'F') {
            code += h - 'A' + 10;
          } else {
            return Status::InvalidArgument("UnescapeJson: bad \\u digit");
          }
        }
        i += 4;
        // Only BMP-ASCII escapes are produced by EscapeJson; emit the low
        // byte for codes < 256, else a replacement '?'.
        out += code < 256 ? static_cast<char>(code) : '?';
        break;
      }
      default:
        return Status::InvalidArgument(
            StrFormat("UnescapeJson: invalid escape \\%c", next));
    }
  }
  return out;
}

namespace {

/// Minimal field scanner for our fixed one-line-object schema. Finds
/// `"key":` and returns the raw value span (number or quoted string body).
StatusOr<std::string> FindRawValue(const std::string& line,
                                   const std::string& key,
                                   bool* is_string = nullptr) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos)
    return Status::InvalidArgument("missing field: " + key);
  pos += needle.size();
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == ':'))
    ++pos;
  if (pos >= line.size())
    return Status::InvalidArgument("truncated field: " + key);
  if (line[pos] == '"') {
    // Quoted string: scan to the closing unescaped quote.
    std::string body;
    ++pos;
    while (pos < line.size()) {
      if (line[pos] == '\\' && pos + 1 < line.size()) {
        body += line[pos];
        body += line[pos + 1];
        pos += 2;
        continue;
      }
      if (line[pos] == '"') {
        if (is_string != nullptr) *is_string = true;
        return body;
      }
      body += line[pos++];
    }
    return Status::InvalidArgument("unterminated string for: " + key);
  }
  // Number: scan digits/sign.
  std::string number;
  while (pos < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[pos])) ||
          line[pos] == '-'))
    number += line[pos++];
  if (number.empty())
    return Status::InvalidArgument("empty value for: " + key);
  // An integer must end at a field boundary: "1.5" or "12abc" silently
  // truncated to 1 / 12 would corrupt counts instead of failing loudly.
  if (pos < line.size() && line[pos] != ',' && line[pos] != '}' &&
      line[pos] != ' ' && line[pos] != '\t' && line[pos] != '\r')
    return Status::InvalidArgument(
        StrFormat("malformed number for: %s (unexpected '%c')", key.c_str(),
                  line[pos]));
  if (is_string != nullptr) *is_string = false;
  return number;
}

StatusOr<int> FindIntValue(const std::string& line, const std::string& key) {
  StatusOr<std::string> raw = FindRawValue(line, key);
  if (!raw.ok()) return raw.status();
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(raw->c_str(), &end, 10);
  if (end == raw->c_str() || *end != '\0' || errno != 0)
    return Status::InvalidArgument("bad integer for: " + key);
  return static_cast<int>(value);
}

}  // namespace

std::string ForumDatasetToJsonl(const ForumDataset& dataset) {
  std::string out = StrFormat("{\"num_users\": %d, \"num_threads\": %d}\n",
                              dataset.num_users, dataset.num_threads);
  for (const Post& post : dataset.posts) {
    out += StrFormat("{\"user_id\": %d, \"thread_id\": %d, \"text\": \"%s\"}\n",
                     post.user_id, post.thread_id,
                     EscapeJson(post.text).c_str());
  }
  return out;
}

namespace {

/// Sanity ceilings for adversarial inputs: a header announcing more users
/// or threads than any real forum could hold (the paper's largest corpus
/// is 388k users) is rejected before anything downstream sizes per-user
/// state off it. Lines beyond the length cap are binary garbage or an
/// attack, not a forum post.
constexpr int kMaxHeaderCount = 100'000'000;
constexpr size_t kMaxLineBytes = 16u << 20;

/// "forum dataset 'path' (line N): what" — every parse failure names the
/// file it came from (when known) and the line where parsing stopped.
Status ParseError(const std::string& path, int line, const std::string& what,
                  StatusCode code = StatusCode::kInvalidArgument) {
  std::string message = "forum dataset ";
  if (!path.empty()) message += "'" + path + "' ";
  message += "(line " + std::to_string(line) + "): " + what;
  return Status(code, std::move(message));
}

}  // namespace

StatusOr<ForumDataset> ForumDatasetFromJsonl(const std::string& jsonl,
                                             const std::string& path) {
  std::istringstream stream(jsonl);
  std::string line;
  ForumDataset dataset;
  bool have_header = false;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.size() > kMaxLineBytes)
      return ParseError(path, line_number,
                        "line exceeds " + std::to_string(kMaxLineBytes) +
                            " bytes (binary garbage?)");
    if (line.find('\0') != std::string::npos)
      return ParseError(path, line_number,
                        "NUL byte in input (binary garbage?)");
    if (TrimAscii(line).empty()) continue;
    if (!have_header) {
      StatusOr<int> users = FindIntValue(line, "num_users");
      StatusOr<int> threads = FindIntValue(line, "num_threads");
      if (!users.ok())
        return ParseError(path, line_number, users.status().message());
      if (!threads.ok())
        return ParseError(path, line_number, threads.status().message());
      if (*users < 0 || *threads < 0)
        return ParseError(path, line_number, "negative header counts");
      if (*users > kMaxHeaderCount || *threads > kMaxHeaderCount)
        return ParseError(path, line_number,
                          StrFormat("absurd header counts (%d users, %d "
                                    "threads; max %d)",
                                    *users, *threads, kMaxHeaderCount));
      dataset.num_users = *users;
      dataset.num_threads = *threads;
      have_header = true;
      continue;
    }
    StatusOr<int> user = FindIntValue(line, "user_id");
    StatusOr<int> thread = FindIntValue(line, "thread_id");
    bool text_is_string = false;
    StatusOr<std::string> raw_text =
        FindRawValue(line, "text", &text_is_string);
    if (!user.ok())
      return ParseError(path, line_number, user.status().message());
    if (!thread.ok())
      return ParseError(path, line_number, thread.status().message());
    if (!raw_text.ok())
      return ParseError(path, line_number, raw_text.status().message());
    if (!text_is_string)
      return ParseError(path, line_number,
                        "text must be a quoted JSON string");
    if (*user < 0 || *user >= dataset.num_users)
      return ParseError(path, line_number,
                        StrFormat("user_id %d out of range [0, %d)", *user,
                                  dataset.num_users),
                        StatusCode::kOutOfRange);
    if (*thread < 0 || *thread >= dataset.num_threads)
      return ParseError(path, line_number,
                        StrFormat("thread_id %d out of range [0, %d)",
                                  *thread, dataset.num_threads),
                        StatusCode::kOutOfRange);
    StatusOr<std::string> text = UnescapeJson(*raw_text);
    if (!text.ok())
      return ParseError(path, line_number, text.status().message());
    dataset.posts.push_back({*user, *thread, std::move(*text)});
  }
  if (!have_header)
    return ParseError(path, line_number,
                      "empty input (no header line)");
  return dataset;
}

StatusOr<std::vector<Post>> TailPostsFromJsonl(const std::string& jsonl,
                                               size_t skip_posts,
                                               const std::string& path) {
  std::istringstream stream(jsonl);
  std::string line;
  std::vector<Post> posts;
  size_t seen_posts = 0;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.size() > kMaxLineBytes)
      return ParseError(path, line_number,
                        "line exceeds " + std::to_string(kMaxLineBytes) +
                            " bytes (binary garbage?)");
    if (line.find('\0') != std::string::npos)
      return ParseError(path, line_number,
                        "NUL byte in input (binary garbage?)");
    if (TrimAscii(line).empty()) continue;
    // A full forum file starts with a header line; a tail fragment has
    // none. Accept both by skipping anything that parses as a header.
    if (line.find("\"num_users\"") != std::string::npos &&
        line.find("\"user_id\"") == std::string::npos) {
      StatusOr<int> users = FindIntValue(line, "num_users");
      if (users.ok()) continue;
    }
    StatusOr<int> user = FindIntValue(line, "user_id");
    StatusOr<int> thread = FindIntValue(line, "thread_id");
    bool text_is_string = false;
    StatusOr<std::string> raw_text =
        FindRawValue(line, "text", &text_is_string);
    if (!user.ok())
      return ParseError(path, line_number, user.status().message());
    if (!thread.ok())
      return ParseError(path, line_number, thread.status().message());
    if (!raw_text.ok())
      return ParseError(path, line_number, raw_text.status().message());
    if (!text_is_string)
      return ParseError(path, line_number,
                        "text must be a quoted JSON string");
    if (*user < 0 || *user > kMaxHeaderCount)
      return ParseError(path, line_number,
                        StrFormat("user_id %d out of range", *user),
                        StatusCode::kOutOfRange);
    if (*thread < 0 || *thread > kMaxHeaderCount)
      return ParseError(path, line_number,
                        StrFormat("thread_id %d out of range", *thread),
                        StatusCode::kOutOfRange);
    if (seen_posts++ < skip_posts) continue;
    StatusOr<std::string> text = UnescapeJson(*raw_text);
    if (!text.ok())
      return ParseError(path, line_number, text.status().message());
    posts.push_back({*user, *thread, std::move(*text)});
  }
  if (seen_posts < skip_posts)
    return ParseError(path, line_number,
                      StrFormat("tail holds %zu posts but %zu were already "
                                "ingested (file truncated or rotated?)",
                                seen_posts, skip_posts));
  return posts;
}

StatusOr<std::vector<Post>> LoadTailPosts(const std::string& path,
                                          size_t skip_posts) {
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  // Simulated on-disk corruption of the tail file; the parser must fail
  // with a path+line Status, never ingest garbage posts.
  InjectDataFault("forum.tail.data", &*content);
  return TailPostsFromJsonl(*content, skip_posts, path);
}

Status SaveForumDataset(const ForumDataset& dataset,
                        const std::string& path) {
  return WriteStringToFile(ForumDatasetToJsonl(dataset), path);
}

StatusOr<ForumDataset> LoadForumDataset(const std::string& path) {
  obs::Span span("io", "load_forum_dataset");
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  span.SetArg("bytes", static_cast<int64_t>(content->size()));
  // Simulated on-disk corruption of the forum file; the parser must turn
  // whatever this produces into a path+line Status, never a crash.
  InjectDataFault("forum.load.data", &*content);
  return ForumDatasetFromJsonl(*content, path);
}

}  // namespace dehealth
