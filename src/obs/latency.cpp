#include "obs/latency.hpp"

#include <array>
#include <atomic>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/table.hpp"

namespace syncon::obs {

namespace {

constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kDelivered) + 1;
// Indexed by Stage; metric names are syncon_detect_latency_<name>_us.
constexpr std::array<const char*, kStageCount> kStageNames = {
    "observe",  "track",       "gap_wait",   "evaluate",
    "fire",     "resync_wait", "wal_replay", "delivered"};
// observe … fire: the stages a per-verdict waterfall is made of.
constexpr std::size_t kDetectStageCount = 5;

}  // namespace

bool Waterfall::monotone() const {
  std::uint64_t cursor = start_us;
  for (const StageSpan& s : stages) {
    if (s.start_us != cursor) return false;
    cursor = s.end_us();  // duration_us is unsigned: never runs backwards
  }
  return true;
}

std::span<const char* const> detect_stages() {
  return std::span<const char* const>(kStageNames).first(kDetectStageCount);
}

void record_stage_latency(Stage stage, std::uint64_t us) {
  if (!enabled()) return;
  // Resolved on a stage's first sample and cached: a stage that never
  // records never registers. Racing first samples resolve to the same
  // registry entry, so the unsynchronized fill is benign.
  static std::array<std::atomic<Histogram*>, kStageCount> table{};
  const auto index = static_cast<std::size_t>(stage);
  std::atomic<Histogram*>& slot = table[index];
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    h = &MetricRegistry::global().histogram(
        std::string("syncon_detect_latency_") + kStageNames[index] + "_us",
        HistogramSpec::exponential(1.0, 1048576.0));
    slot.store(h, std::memory_order_release);
  }
  h->record(static_cast<double>(us));
}

void write_waterfalls(std::ostream& os, std::span<const Waterfall> falls) {
  TextTable table({"pair", "verdict", "fire", "stage", "start µs", "µs"});
  for (const Waterfall& w : falls) {
    const std::string pair = w.x + "|" + w.y;
    const std::string verdict = std::string(w.holds ? "holds" : "fails") +
                                (w.definite ? " (definite)" : " (pending)");
    for (std::size_t i = 0; i < w.stages.size(); ++i) {
      const StageSpan& s = w.stages[i];
      table.new_row()
          .add_cell(i == 0 ? pair : std::string())
          .add_cell(i == 0 ? verdict : std::string())
          .add_cell(i == 0 ? "#" + std::to_string(w.fire_index)
                           : std::string())
          .add_cell(s.stage)
          .add_cell(with_thousands(s.start_us))
          .add_cell(with_thousands(s.duration_us));
    }
    table.new_row()
        .add_cell(std::string())
        .add_cell(std::string())
        .add_cell(std::string())
        .add_cell(std::string("= total"))
        .add_cell(with_thousands(w.start_us))
        .add_cell(with_thousands(w.total_us()));
  }
  table.print(os);
}

void write_waterfalls_json(std::ostream& os, std::span<const Waterfall> falls) {
  os << "{\n  \"schema\": \"syncon-waterfalls-v1\",\n  \"waterfalls\": [";
  bool first = true;
  for (const Waterfall& w : falls) {
    os << (first ? "\n" : ",\n");
    os << "    {\"x\": \"" << w.x << "\", \"y\": \"" << w.y
       << "\", \"holds\": " << (w.holds ? "true" : "false")
       << ", \"definite\": " << (w.definite ? "true" : "false")
       << ", \"fire\": " << w.fire_index << ", \"start_us\": " << w.start_us
       << ", \"total_us\": " << w.total_us()
       << ", \"monotone\": " << (w.monotone() ? "true" : "false")
       << ", \"stages\": [";
    bool first_stage = true;
    for (const StageSpan& s : w.stages) {
      os << (first_stage ? "" : ", ");
      os << "{\"stage\": \"" << s.stage << "\", \"start_us\": " << s.start_us
         << ", \"duration_us\": " << s.duration_us << "}";
      first_stage = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
}

}  // namespace syncon::obs
