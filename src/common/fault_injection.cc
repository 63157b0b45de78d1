#include "common/fault_injection.h"

#include <unistd.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/string_utils.h"

namespace dehealth {

namespace {

StatusOr<FaultKind> ParseKind(const std::string& token) {
  if (token == "fail") return FaultKind::kFail;
  if (token == "enospc") return FaultKind::kEnospc;
  if (token == "short") return FaultKind::kShort;
  if (token == "flip") return FaultKind::kFlip;
  if (token == "reset") return FaultKind::kReset;
  if (token == "stall") return FaultKind::kStall;
  if (token == "crash") return FaultKind::kCrash;
  return Status::InvalidArgument(
      "fault spec: unknown kind '" + token +
      "' (want fail|enospc|short|flip|reset|stall|crash)");
}

/// Whether `kind` can fire at a site: data sites (names ending in ".data",
/// serviced by InjectDataFault) corrupt a buffer, every other site returns
/// a Status. A kind its site cannot apply would silently do nothing, so
/// Configure rejects the rule instead.
bool KindAppliesAt(FaultKind kind, const std::string& site) {
  const bool data_site = EndsWith(site, ".data");
  switch (kind) {
    case FaultKind::kFlip:
      return data_site;
    case FaultKind::kShort:
    case FaultKind::kCrash:
      return true;
    case FaultKind::kFail:
    case FaultKind::kEnospc:
    case FaultKind::kReset:
    case FaultKind::kStall:
      return !data_site;
  }
  return false;
}

StatusOr<uint64_t> ParseCount(const std::string& token,
                              const std::string& what) {
  if (token.empty() || token.find_first_not_of("0123456789") !=
                           std::string::npos)
    return Status::InvalidArgument("fault spec: bad " + what + " '" + token +
                                   "'");
  return static_cast<uint64_t>(std::strtoull(token.c_str(), nullptr, 10));
}

}  // namespace

struct FaultInjector::Impl {
  struct Rule {
    FaultKind kind;
    uint64_t first_hit;  // 1-based
    uint64_t count;      // 0 = forever
  };

  std::mutex mutex;
  std::map<std::string, std::vector<Rule>, std::less<>> rules;
  std::map<std::string, uint64_t, std::less<>> hits;
};

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

FaultInjector::Impl* FaultInjector::impl() {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel))
    return fresh;
  delete fresh;
  return existing;
}

Status FaultInjector::Configure(const std::string& spec) {
  Impl* state = impl();
  std::map<std::string, std::vector<Impl::Rule>, std::less<>> parsed;
  size_t start = 0;
  while (start < spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string rule =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    start = comma == std::string::npos ? spec.size() : comma + 1;
    if (rule.empty()) continue;

    // <site>:<kind>:<hit>[:<count>]
    std::vector<std::string> parts;
    size_t field = 0;
    while (field <= rule.size()) {
      const size_t colon = rule.find(':', field);
      parts.push_back(rule.substr(
          field, colon == std::string::npos ? std::string::npos
                                            : colon - field));
      if (colon == std::string::npos) break;
      field = colon + 1;
    }
    if (parts.size() < 3 || parts.size() > 4 || parts[0].empty())
      return Status::InvalidArgument(
          "fault spec: rule '" + rule +
          "' is not <site>:<kind>:<hit>[:<count>]");
    StatusOr<FaultKind> kind = ParseKind(parts[1]);
    if (!kind.ok()) return kind.status();
    if (!KindAppliesAt(*kind, parts[0]))
      return Status::InvalidArgument(
          "fault spec: kind '" + parts[1] + "' cannot fire at site '" +
          parts[0] +
          "' (sites ending in .data take flip|short|crash, all others "
          "fail|enospc|short|reset|stall|crash)");
    StatusOr<uint64_t> first_hit = ParseCount(parts[2], "hit number");
    if (!first_hit.ok()) return first_hit.status();
    if (*first_hit == 0)
      return Status::InvalidArgument(
          "fault spec: hit numbers are 1-based, got 0 in '" + rule + "'");
    uint64_t count = 1;
    if (parts.size() == 4) {
      StatusOr<uint64_t> parsed_count = ParseCount(parts[3], "count");
      if (!parsed_count.ok()) return parsed_count.status();
      count = *parsed_count;
    }
    parsed[parts[0]].push_back({*kind, *first_hit, count});
  }

  std::lock_guard<std::mutex> lock(state->mutex);
  state->rules = std::move(parsed);
  state->hits.clear();
  enabled_.store(!state->rules.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void FaultInjector::Reset() {
  Impl* state = impl_.load(std::memory_order_acquire);
  if (state == nullptr) return;
  std::lock_guard<std::mutex> lock(state->mutex);
  state->rules.clear();
  state->hits.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::Hit(std::string_view site, FaultKind* kind) {
  if (!enabled()) return false;
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mutex);
  const auto rules = state->rules.find(site);
  if (rules == state->rules.end()) return false;
  const uint64_t hit = ++state->hits[std::string(site)];
  for (const Impl::Rule& rule : rules->second) {
    if (hit < rule.first_hit) continue;
    if (rule.count != 0 && hit >= rule.first_hit + rule.count) continue;
    *kind = rule.kind;
    return true;
  }
  return false;
}

Status InjectFaultPoint(const char* site) {
  FaultKind kind;
  if (!FaultInjector::Global().Hit(site, &kind)) return Status::OK();
  switch (kind) {
    case FaultKind::kFail:
    case FaultKind::kFlip:  // Configure admits flip only at data sites
      return Status::Internal(StrFormat("injected fault at %s", site));
    case FaultKind::kEnospc:
      return Status::Internal(
          StrFormat("injected fault at %s: No space left on device", site));
    case FaultKind::kShort:
      return Status::Internal(
          StrFormat("injected short I/O at %s", site));
    case FaultKind::kReset:
      return Status::Unavailable(
          StrFormat("injected fault at %s: Connection reset by peer", site));
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return Status::OK();
    case FaultKind::kCrash:
      // Simulates a SIGKILL/OOM-kill at this exact point: no destructors,
      // no buffers flushed, no atexit — the durable state on disk is
      // whatever the operations before this point made durable.
      ::_exit(kFaultCrashExitCode);
  }
  return Status::OK();
}

bool InjectDataFault(const char* site, std::string* data) {
  FaultKind kind;
  if (!FaultInjector::Global().Hit(site, &kind)) return false;
  switch (kind) {
    case FaultKind::kFlip:
      if (!data->empty()) (*data)[data->size() / 2] ^= 0x10;
      return true;
    case FaultKind::kShort:
      data->resize(data->size() / 2);
      return true;
    case FaultKind::kCrash:
      ::_exit(kFaultCrashExitCode);
    case FaultKind::kFail:
    case FaultKind::kEnospc:
    case FaultKind::kReset:
    case FaultKind::kStall:
      // Status-shaped kinds are serviced by InjectFaultPoint, and
      // Configure rejects them at data sites; never corrupt in an
      // undefined way.
      return false;
  }
  return false;
}

}  // namespace dehealth
