#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace dehealth::obs {

namespace {

/// The one-branch fast path: Span construction loads this and bails. A
/// namespace-scope atomic (not a magic static) so the disabled cost is a
/// relaxed load with no initialization guard.
std::atomic<bool> g_tracing_enabled{false};

}  // namespace

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Per-thread event buffer. Each append takes the buffer's own mutex —
/// uncontended except during the final drain, so the enabled-span cost
/// stays in the tens of nanoseconds. The destructor hands any remaining
/// events to the tracer, so short-lived pool threads never lose spans.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  uint32_t tid = 0;
  uint32_t depth = 0;
  bool registered = false;

  void EnsureRegistered() {
    if (!registered) {
      tid = Tracer::Global().RegisterThread(this);
      registered = true;
    }
  }

  ~ThreadBuffer() {
    if (registered) Tracer::Global().UnregisterThread(this);
  }
};

namespace {

ThreadBuffer& LocalBuffer() {
  static thread_local ThreadBuffer buffer;
  buffer.EnsureRegistered();
  return buffer;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives static dtors
  return *tracer;
}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint32_t Tracer::RegisterThread(ThreadBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.push_back(buffer);
  return next_tid_++;
}

void Tracer::UnregisterThread(ThreadBuffer* buffer) {
  // Same lock order as StopAndCollect (tracer mutex, then the buffer's):
  // the dying thread's events move to the orphan list so they survive the
  // buffer, and the registry entry goes away before the pointer dangles.
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.erase(std::remove(threads_.begin(), threads_.end(), buffer),
                 threads_.end());
  std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
  orphaned_.insert(orphaned_.end(), buffer->events.begin(),
                   buffer->events.end());
  buffer->events.clear();
}

Status Tracer::Start(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enabled_.load(std::memory_order_relaxed))
    return Status::FailedPrecondition("Tracer: already recording");
  // Drop leftovers from a previous session (events recorded between a Stop
  // and this Start, or a DrainForTest race) so the new trace starts clean.
  for (ThreadBuffer* buffer : threads_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  orphaned_.clear();
  path_ = path;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
  g_tracing_enabled.store(true, std::memory_order_relaxed);
  return Status();
}

void Tracer::StartForTest() {
  Status ignored = Start(std::string());
  (void)ignored;
}

std::vector<TraceEvent> Tracer::StopAndCollect() {
  enabled_.store(false, std::memory_order_relaxed);
  g_tracing_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> events;
  events.swap(orphaned_);
  for (ThreadBuffer* buffer : threads_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.tid < b.tid;
            });
  return events;
}

std::vector<TraceEvent> Tracer::DrainForTest() { return StopAndCollect(); }

Status Tracer::Stop() {
  if (!recording()) return Status();
  const std::vector<TraceEvent> events = StopAndCollect();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path.swap(path_);
  }
  if (path.empty()) return Status();
  const bool chrome = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    return Status::Internal("Tracer: cannot open trace file '" + path + "'");
  out << FormatTrace(events, chrome);
  out.flush();
  if (!out)
    return Status::Internal("Tracer: failed writing trace file '" + path +
                            "'");
  return Status();
}

Span::Span(const char* category, const char* name) {
  if (!TracingEnabled()) return;  // the entire disabled-tracing cost
  active_ = true;
  category_ = category;
  name_ = name;
  ThreadBuffer& buffer = LocalBuffer();
  depth_ = buffer.depth++;
  start_ns_ = Tracer::Global().NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end_ns = Tracer::Global().NowNs();
  TraceEvent event;
  event.category = category_;
  event.name = name_;
  event.start_ns = start_ns_;
  event.duration_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  event.depth = depth_;
  event.arg_name = arg_name_;
  event.arg_value = arg_value_;
  event.arg2_name = arg2_name_;
  event.arg2_value = arg2_value_;
  ThreadBuffer& buffer = LocalBuffer();
  event.tid = buffer.tid;
  if (buffer.depth > 0) --buffer.depth;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(event);
}

namespace {

void AppendEventJson(std::string& out, const TraceEvent& e, bool chrome) {
  char buffer[512];
  const double start_us = static_cast<double>(e.start_ns) / 1000.0;
  const double dur_us = static_cast<double>(e.duration_ns) / 1000.0;
  if (chrome) {
    std::snprintf(buffer, sizeof(buffer),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"cat\":\"%s\","
                  "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f",
                  e.tid, e.category, e.name, start_us, dur_us);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "{\"cat\":\"%s\",\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"dur_us\":%.3f,\"tid\":%u,\"depth\":%u",
                  e.category, e.name, start_us, dur_us, e.tid, e.depth);
  }
  out += buffer;
  if (e.arg_name != nullptr) {
    std::snprintf(buffer, sizeof(buffer), ",\"args\":{\"%s\":%" PRId64,
                  e.arg_name, e.arg_value);
    out += buffer;
    if (e.arg2_name != nullptr) {
      std::snprintf(buffer, sizeof(buffer), ",\"%s\":%" PRId64, e.arg2_name,
                    e.arg2_value);
      out += buffer;
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string FormatTrace(const std::vector<TraceEvent>& events, bool chrome) {
  std::string out;
  if (chrome) {
    out += "{\"traceEvents\":[\n";
    for (size_t i = 0; i < events.size(); ++i) {
      AppendEventJson(out, events[i], /*chrome=*/true);
      if (i + 1 < events.size()) out += ',';
      out += '\n';
    }
    out += "]}\n";
    return out;
  }
  for (const TraceEvent& event : events) {
    AppendEventJson(out, event, /*chrome=*/false);
    out += '\n';
  }
  return out;
}

}  // namespace dehealth::obs
