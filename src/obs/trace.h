#ifndef DEHEALTH_OBS_TRACE_H_
#define DEHEALTH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace dehealth::obs {

/// One completed span. `category`/`name`/`arg_name` must be string
/// literals (the tracer stores the pointers, never copies).
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  uint64_t start_ns = 0;     // monotonic, relative to Tracer::Start
  uint64_t duration_ns = 0;
  uint32_t tid = 0;          // tracer-assigned, dense from 0
  uint32_t depth = 0;        // nesting depth within the thread
  const char* arg_name = nullptr;  // optional integer arguments
  int64_t arg_value = 0;
  const char* arg2_name = nullptr;
  int64_t arg2_value = 0;
};

/// True when the process tracer is recording. One relaxed atomic load —
/// this is the entire cost of a compiled-in Span while tracing is off.
bool TracingEnabled();

/// The process-wide span tracer behind `--trace-out`: spans record into
/// per-thread buffers (one uncontended mutex acquisition per completed
/// span, no allocation beyond vector growth), and Stop() collects every
/// buffer, orders events by start time, and writes them out:
///
///   - path ending in ".json": one Chrome trace_event document
///     ({"traceEvents": [...]}) loadable in chrome://tracing / Perfetto;
///   - any other path: JSONL, one object per line with cat/name/start_us/
///     dur_us/tid/depth (and args when set).
///
/// Determinism contract: tracing reads the monotonic clock and writes the
/// trace file — it never touches an RNG stream or any attack output, so a
/// traced run's results are bitwise-identical to an untraced run's.
class Tracer {
 public:
  /// The process tracer (never destroyed, like Registry::Global()).
  static Tracer& Global();

  /// Starts recording, clearing any events left from a previous session.
  /// FailedPrecondition when already recording.
  Status Start(const std::string& path);

  /// Stops recording, drains every thread buffer, and writes the trace to
  /// the path given to Start(). No-op OK when not recording.
  Status Stop();

  bool recording() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since Start() on the monotonic clock.
  uint64_t NowNs() const;

  /// Test hook: start recording without a file; DrainForTest stops and
  /// returns the events (sorted by start time) instead of writing them.
  void StartForTest();
  std::vector<TraceEvent> DrainForTest();

 private:
  friend class Span;
  friend struct ThreadBuffer;

  Tracer() = default;

  /// Registers the calling thread's buffer (assigns its tid); called once
  /// per thread on first span.
  uint32_t RegisterThread(struct ThreadBuffer* buffer);
  /// Forgets a dying thread's buffer, inheriting its remaining events;
  /// called from ThreadBuffer's destructor.
  void UnregisterThread(struct ThreadBuffer* buffer);

  /// Disables recording and moves every buffered event into the returned
  /// vector, sorted by (start_ns, tid).
  std::vector<TraceEvent> StopAndCollect();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  std::mutex mutex_;  // guards path_, threads_, orphaned_, next_tid_
  std::string path_;
  std::vector<struct ThreadBuffer*> threads_;
  std::vector<TraceEvent> orphaned_;
  uint32_t next_tid_ = 0;
};

/// RAII span: construction notes the start time, destruction records the
/// completed TraceEvent into the thread's buffer. When tracing is disabled
/// the constructor is a single branch and the destructor another — cheap
/// enough to leave compiled into every subsystem permanently.
///
///   obs::Span span("serve", "execute_batch");
///   span.SetArg("batch_size", batch.size());
class Span {
 public:
  Span(const char* category, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an integer argument (e.g. a batch size). A span holds two:
  /// a name already set gets the new value, and any other name fills the
  /// second slot. `name` must be a string literal. No-op when tracing is
  /// off.
  void SetArg(const char* name, int64_t value) {
    if (!active_) return;
    if (arg_name_ == nullptr || std::strcmp(arg_name_, name) == 0) {
      arg_name_ = name;
      arg_value_ = value;
    } else {
      arg2_name_ = name;
      arg2_value_ = value;
    }
  }

 private:
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  int64_t arg_value_ = 0;
  const char* arg2_name_ = nullptr;
  int64_t arg2_value_ = 0;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;
};

/// Serializes events the way Stop() writes them; exposed for tests.
/// `chrome` selects the trace_event document format, otherwise JSONL.
std::string FormatTrace(const std::vector<TraceEvent>& events, bool chrome);

}  // namespace dehealth::obs

#endif  // DEHEALTH_OBS_TRACE_H_
