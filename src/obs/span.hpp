// Span tracing (DESIGN.md §3.8): SYNCON_SPAN("phase/name") opens an RAII
// span whose completion is pushed into a fixed-capacity ring buffer. The
// recorder is exported as Chrome trace-event JSON (obs/export.hpp), which
// Perfetto and chrome://tracing load directly.
//
// Cost model: span capture has its own switch, obs::spans_enabled(), off by
// default and independent of obs::enabled() — metrics can be on while no
// span is taken. Off, a SpanGuard is two relaxed loads and a branch — no
// clock read, no allocation, no lock. On, each completed span takes two
// steady_clock reads and one short mutex-guarded ring-buffer push; the ring
// never grows after set_capacity, so long runs stay bounded (oldest spans
// are overwritten). Only code that reads the ring turns capture on.
//
// Span names are path-like, coarse phase labels (the taxonomy lives in
// DESIGN.md §3.8): "model/stamp", "relation/register", "relation/evaluate",
// "batch/sweep", "online/deliver", "online/resync_serve", "monitor/ingest",
// "des/run". Names must be string literals (the recorder stores the
// pointer, not a copy).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace syncon::obs {

namespace detail {
extern std::atomic<bool> g_spans_enabled;
}  // namespace detail

/// True iff SYNCON_SPAN records into TraceRecorder::global(). Off by
/// default; independent of obs::enabled(), so a metrics-only run (the
/// daemon, the scrape server) does not fill a ring nobody reads.
inline bool spans_enabled() {
  return detail::g_spans_enabled.load(std::memory_order_relaxed);
}

/// Flips span capture globally. Thread-safe; spans already open keep the
/// state they started with.
void set_spans_enabled(bool on);

/// One completed span. `name` must point at a string literal.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint32_t thread = 0;
};

/// Microseconds since the process's telemetry epoch (steady clock).
std::uint64_t now_us();

/// Small dense id of the calling thread (0 for the first thread seen).
std::uint32_t current_thread_slot();

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder used by SYNCON_SPAN.
  static TraceRecorder& global();

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Resizes the ring; drops everything recorded so far.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  void record(const char* name, std::uint64_t start_us,
              std::uint64_t duration_us);

  /// Retained spans, oldest first (at most capacity(); earlier spans of a
  /// long run are overwritten).
  std::vector<SpanEvent> events() const;
  /// Spans recorded since the last clear, including overwritten ones.
  std::uint64_t recorded_total() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// Per-name aggregate over a recorder's retained spans.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
  double mean_us() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_us) /
                            static_cast<double>(count);
  }
};

/// Aggregates the retained spans by name, name-sorted.
std::vector<SpanStats> aggregate_spans(const TraceRecorder& recorder);

/// RAII span: records into TraceRecorder::global() iff span capture was
/// enabled at construction.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (spans_enabled()) {
      name_ = name;
      start_ = now_us();
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) {
      TraceRecorder::global().record(name_, start_, now_us() - start_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace syncon::obs

#define SYNCON_SPAN_CONCAT2(a, b) a##b
#define SYNCON_SPAN_CONCAT(a, b) SYNCON_SPAN_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define SYNCON_SPAN(name) \
  ::syncon::obs::SpanGuard SYNCON_SPAN_CONCAT(syncon_span_, __COUNTER__)(name)
