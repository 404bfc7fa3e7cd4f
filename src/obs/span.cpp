#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "support/contracts.hpp"

namespace syncon::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_spans_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_spans_enabled(bool on) {
  detail::g_spans_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                            epoch)
          .count());
}

std::uint32_t current_thread_slot() {
  static std::mutex mutex;
  static std::uint32_t next = 0;
  thread_local std::uint32_t slot = [] {
    std::lock_guard<std::mutex> lock(mutex);
    return next++;
  }();
  return slot;
}

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  SYNCON_REQUIRE(capacity > 0, "trace recorder needs capacity >= 1");
  ring_.reserve(capacity_);
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  SYNCON_REQUIRE(capacity > 0, "trace recorder needs capacity >= 1");
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  next_ = 0;
  total_ = 0;
}

std::size_t TraceRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void TraceRecorder::record(const char* name, std::uint64_t start_us,
                           std::uint64_t duration_us) {
  const SpanEvent event{name, start_us, duration_us, current_thread_slot()};
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;  // overwrite the oldest
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<SpanEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceRecorder::recorded_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::vector<SpanStats> aggregate_spans(const TraceRecorder& recorder) {
  std::map<std::string, SpanStats> by_name;
  for (const SpanEvent& e : recorder.events()) {
    SpanStats& s = by_name[e.name];
    if (s.count == 0) s.name = e.name;
    ++s.count;
    s.total_us += e.duration_us;
    s.max_us = std::max(s.max_us, e.duration_us);
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
  return out;
}

}  // namespace syncon::obs
