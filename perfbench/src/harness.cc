#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "io/forum_io.h"

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point from) { return MsBetween(from, Clock::now()); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::strtod(line.c_str() + length + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // "5" resets the peak resident set size
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Mix(uint64_t hash, long long value) {
  auto bits = static_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash ^= bits & 0xff;
    hash *= kFnvPrime;
    bits >>= 8;
  }
  return hash;
}

}  // namespace

uint64_t ChecksumCandidates(const dehealth::CandidateSets& candidates) {
  uint64_t hash = kFnvOffset;
  for (const auto& set : candidates) {
    hash = Mix(hash, static_cast<long long>(set.size()));
    for (int v : set) hash = Mix(hash, v);
  }
  return hash;
}

uint64_t ChecksumInts(const std::vector<int>& values) {
  uint64_t hash = Mix(kFnvOffset, static_cast<long long>(values.size()));
  for (int v : values) hash = Mix(hash, v);
  return hash;
}

bool WriteIntRows(const std::string& path,
                  const std::vector<std::vector<long long>>& rows) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) out << (i ? " " : "") << row[i];
    out << '\n';
  }
  return static_cast<bool>(out);
}

bool ReadIntRows(const std::string& path,
                 std::vector<std::vector<long long>>* rows) {
  std::ifstream in(path);
  if (!in) return false;
  rows->clear();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<long long> row;
    long long value = 0;
    while (fields >> value) row.push_back(value);
    rows->push_back(std::move(row));
  }
  return true;
}

void Report::Value(const std::string& name, double value,
                   const std::string& unit) {
  char number[64];
  std::snprintf(number, sizeof number, "%.17g",
                std::isfinite(value) ? value : 0.0);
  values_ += (values_.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) {
    correct_ = false;
    ++failed_;
  }
  checks_ += (checks_.empty() ? "" : ", ") + std::string("{\"name\": \"") +
             name + "\", \"ok\": " + (ok ? "true" : "false") +
             ", \"detail\": \"" + dehealth::EscapeJson(detail) + "\"}";
}

void Report::Note(const std::string& name, const std::string& text) {
  notes_ += (notes_.empty() ? "" : ", ") + std::string("\"") + name +
            "\": \"" + dehealth::EscapeJson(text) + "\"";
}

void Report::Emit() const {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"values\": {%s}, \"checks\": [%s], \"notes\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), values_.c_str(),
      checks_.c_str(), notes_.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
