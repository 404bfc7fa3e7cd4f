// Global telemetry switch (DESIGN.md §3.8). Instrumentation sites across
// the library guard every metric recording on obs::enabled(), which is a
// single relaxed atomic load — with telemetry off (the default) the hot
// paths pay one predictable branch and nothing else: no clock reads, no
// registry lookups, no allocations. Spans and the flight ring have their
// own switches (obs::spans_enabled(), obs::flight_enabled()).
#pragma once

#include <atomic>

namespace syncon::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True iff telemetry recording is on. Off by default.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips metric recording globally. Thread-safe.
void set_enabled(bool on);

}  // namespace syncon::obs
