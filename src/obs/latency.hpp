// Detection-latency attribution (DESIGN.md §3.13): every watch firing is
// decomposed into a contiguous waterfall of named pipeline stages —
//
//   observe    first report of the pair seen → last report folded
//   track      last report folded → both actions completed
//   gap_wait   completion → evaluation dispatch (dwell on open gaps /
//              resync waits / re-fire rearm; ~0 on the clean path)
//   evaluate   evaluate_online() runtime
//   fire       callback dispatch
//
// measured on the monitor's wall clock (obs::now_us()). Stage boundaries
// are clamped monotone, so a waterfall's stages always sum exactly to its
// end-to-end detection latency. Two extra stages live outside the per-
// verdict waterfall because they happen in other components: "delivered"
// (send → receive in *application* time, from OnlineSystem) and
// "wal_replay" (crash-recovery replay, from the durability layer); both
// publish into the same syncon_detect_latency_{stage}_us histogram family,
// as does "resync_wait" (wall-µs dwell of each closed gap episode).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace syncon::obs {

/// One stage of a waterfall. Stages are contiguous: stage i+1 starts where
/// stage i ends.
struct StageSpan {
  std::string stage;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint64_t end_us() const { return start_us + duration_us; }
};

/// The per-verdict latency breakdown write_online_report renders.
struct Waterfall {
  std::string x, y;          // the watched pair
  bool holds = false;
  bool definite = false;     // confidence of this firing
  int fire_index = 1;        // 1 = first firing, 2 = re-fire after repair, …
  std::uint64_t start_us = 0;
  std::vector<StageSpan> stages;

  std::uint64_t end_us() const {
    return stages.empty() ? start_us : stages.back().end_us();
  }
  /// End-to-end detection latency; equals the sum of the stage durations.
  std::uint64_t total_us() const { return end_us() - start_us; }
  /// True iff stages are contiguous, in order, and anchored at start_us —
  /// the invariant tests and ci_obs_smoke assert on.
  bool monotone() const;
};

/// Every stage that publishes into the syncon_detect_latency_{stage}_us
/// histogram family: the in-waterfall stages in pipeline order, then the
/// three recorded outside the per-verdict waterfall.
enum class Stage : std::uint8_t {
  kObserve,
  kTrack,
  kGapWait,
  kEvaluate,
  kFire,
  kResyncWait,
  kWalReplay,
  kDelivered,
};

/// The in-waterfall stage taxonomy (observe … fire), pipeline order; entry
/// i names Stage(i).
std::span<const char* const> detect_stages();

/// Records one stage duration into syncon_detect_latency_{stage}_us
/// (exponential µs buckets) when telemetry is enabled; no-op otherwise.
/// Each stage's histogram is looked up once per process, so a sample
/// allocates nothing and takes no lock.
void record_stage_latency(Stage stage, std::uint64_t us);

/// Renders waterfalls as an aligned text table (one row per stage).
void write_waterfalls(std::ostream& os, std::span<const Waterfall> falls);

/// JSON array form ("syncon-waterfalls-v1") for tooling / CI assertions.
void write_waterfalls_json(std::ostream& os, std::span<const Waterfall> falls);

}  // namespace syncon::obs
