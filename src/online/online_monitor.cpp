#include "online/online_monitor.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

const char* to_string(Confidence c) {
  return c == Confidence::Definite ? "definite" : "pending-gap";
}

OnlineMonitor::OnlineMonitor(const OnlineSystem& system)
    : system_(&system),
      process_count_(system.process_count()),
      gaps_(system.process_count()),
      crashed_(system.process_count(), false) {}

OnlineMonitor::OnlineMonitor(std::size_t process_count)
    : system_(nullptr),
      process_count_(process_count),
      gaps_(process_count),
      crashed_(process_count, false) {
  SYNCON_REQUIRE(process_count > 0, "need at least one process");
}

void OnlineMonitor::begin(const std::string& label) {
  SYNCON_REQUIRE(!label.empty(), "actions need a label");
  SYNCON_REQUIRE(!open_.count(label) && !completed_.count(label),
                 "duplicate action label '" + label + "'");
  open_.emplace(label, IntervalTracker(label));
  if (latency_tracking_) timing_[label].begin_us = obs::now_us();
}

void OnlineMonitor::record(const std::string& label, EventId e) {
  SYNCON_REQUIRE(system_ != nullptr,
                 "record() reads the running system; a feed-only monitor "
                 "must ingest() event reports instead");
  const auto it = open_.find(label);
  SYNCON_REQUIRE(it != open_.end(), "no open action labeled '" + label + "'");
  it->second.add(*system_, e);
  note_action_report(label);
}

const IntervalSummary& OnlineMonitor::complete(const std::string& label) {
  const auto it = open_.find(label);
  SYNCON_REQUIRE(it != open_.end(), "no open action labeled '" + label + "'");
  SYNCON_REQUIRE(!it->second.empty(),
                 "completing '" + label + "' with no recorded events" +
                     (system_ == nullptr
                          ? " — every report may have been lost; checkpoint() "
                            "an authoritative snapshot and resync first"
                          : ""));
  auto [pos, inserted] = completed_.emplace(label, it->second.summary());
  SYNCON_ASSERT(inserted, "label uniqueness invariant broken");
  // Keep the tracker: a late report recovered after a loss can still repair
  // this summary (degraded mode). forget() releases it.
  sealed_.insert(open_.extract(it));
  if (latency_tracking_) timing_[label].completed_us = obs::now_us();
  fire_ready_watches();
  return pos->second;
}

bool OnlineMonitor::is_open(const std::string& label) const {
  return open_.count(label) != 0;
}

bool OnlineMonitor::is_complete(const std::string& label) const {
  return completed_.count(label) != 0;
}

std::size_t OnlineMonitor::recorded_events(const std::string& label) const {
  const auto it = open_.find(label);
  SYNCON_REQUIRE(it != open_.end(), "no open action labeled '" + label + "'");
  return it->second.event_count();
}

const IntervalSummary* OnlineMonitor::summary(const std::string& label) const {
  const auto it = completed_.find(label);
  return it == completed_.end() ? nullptr : &it->second;
}

void OnlineMonitor::forget(const std::string& label) {
  SYNCON_REQUIRE(completed_.count(label) != 0,
                 "no completed action labeled '" + label + "'");
  completed_.erase(label);
  sealed_.erase(label);
  timing_.erase(label);
  std::erase_if(relation_watches_, [&](const RelationWatch& w) {
    return w.x == label || w.y == label;
  });
  std::erase_if(deadline_watches_, [&](const DeadlineWatch& w) {
    return w.x == label || w.y == label;
  });
}

std::vector<std::string> OnlineMonitor::open_actions() const {
  std::vector<std::string> out;
  out.reserve(open_.size());
  for (const auto& [label, tracker] : open_) out.push_back(label);
  return out;
}

bool OnlineMonitor::observe(const WireMessage& report) {
  SYNCON_SPAN("monitor/ingest");
  degraded_ = true;
  ++reports_seen_;
  if (!gaps_.witness(report.source)) {
    ++duplicate_reports_;
    return false;
  }
  gaps_.claim(report.clock);
  note_gap_state();
  if (!gaps_.has_gap()) rearm_after_recovery(nullptr);
  fire_ready_watches();
  return true;
}

bool OnlineMonitor::ingest(const std::string& label,
                           const WireMessage& report, std::int64_t when) {
  SYNCON_SPAN("monitor/ingest");
  const auto open_it = open_.find(label);
  const auto sealed_it = sealed_.find(label);
  SYNCON_REQUIRE(open_it != open_.end() || sealed_it != sealed_.end(),
                 "no open or completed action labeled '" + label + "'");
  degraded_ = true;
  ++reports_seen_;
  if (!gaps_.witness(report.source)) {
    ++duplicate_reports_;
    return false;
  }
  gaps_.claim(report.clock);
  note_action_report(label);
  if (open_it != open_.end()) {
    open_it->second.add(report.source, report.clock, when);
  } else {
    // Late report for a completed action: repair the sealed summary and let
    // the watches that consumed it re-fire with the corrected verdict.
    sealed_it->second.add(report.source, report.clock, when);
    completed_[label] = sealed_it->second.summary();
    rearm_after_recovery(&label);
  }
  note_gap_state();
  if (!gaps_.has_gap()) rearm_after_recovery(nullptr);
  fire_ready_watches();
  return true;
}

bool OnlineMonitor::try_observe(const WireMessage& report) {
  if (!valid_report(report)) {
    quarantine(report);
    return false;
  }
  return observe(report);
}

bool OnlineMonitor::try_ingest(const std::string& label,
                               const WireMessage& report, std::int64_t when) {
  if (!valid_report(report)) {
    quarantine(report);
    return false;
  }
  return ingest(label, report, when);
}

bool OnlineMonitor::valid_report(const WireMessage& report) const {
  // Everything a genuine report satisfies and garbage usually does not:
  // range checks the gap tracker would otherwise abort on, plus the Fidge
  // invariant — the clock of event (p, i) has own component i + 1 (the
  // convention counts the dummy). A corrupt frame that still passes all of
  // this carries a self-consistent clock and folds in harmlessly.
  return report.source.process < process_count_ && report.source.index >= 1 &&
         report.clock.size() == process_count_ &&
         report.clock[report.source.process] == report.source.index + 1;
}

void OnlineMonitor::quarantine(const WireMessage& report) {
  ++quarantined_;
  if (obs::enabled()) {
    static obs::Counter& c = obs::MetricRegistry::global().counter(
        "syncon_monitor_quarantined_reports_total");
    c.add();
  }
  obs::flight(obs::FlightKind::kQuarantine, obs::FlightRecord::kNoProcess,
              obs::pack_event(report.source));
  obs::flight_auto_dump("quarantine");
}

void OnlineMonitor::set_resync_policy(const ResyncPolicy& policy) {
  SYNCON_REQUIRE(policy.budget >= 1 && policy.initial_backoff >= 1 &&
                     policy.max_backoff >= policy.initial_backoff,
                 "resync policy needs budget >= 1 and an ordered backoff "
                 "range");
  resync_policy_ = policy;
  resync_episode_attempts_ = 0;
  resync_backoff_ = policy.initial_backoff;
  resync_exhausted_ = false;
}

std::optional<RetransmitRequest> OnlineMonitor::next_resync(
    std::uint64_t now, std::size_t limit) {
  if (!gaps_.has_gap()) {
    resync_episode_attempts_ = 0;
    resync_backoff_ = resync_policy_.initial_backoff;
    resync_exhausted_ = false;
    return std::nullopt;
  }
  const std::size_t missing_now = gaps_.missing_count();
  if (resync_episode_attempts_ > 0 && missing_now < resync_last_missing_) {
    // The last round recovered something — the server is alive; a slow
    // chunked recovery must not burn the budget. Fresh episode.
    resync_episode_attempts_ = 0;
    resync_backoff_ = resync_policy_.initial_backoff;
    resync_exhausted_ = false;
  }
  if (resync_episode_attempts_ >= resync_policy_.budget) {
    if (!resync_exhausted_) {
      resync_exhausted_ = true;
      ++resync_give_ups_;
      if (obs::enabled()) {
        static obs::Counter& c = obs::MetricRegistry::global().counter(
            "syncon_monitor_resync_give_ups_total");
        c.add();
      }
    }
    return std::nullopt;  // gaps stay PendingGap for good
  }
  if (resync_episode_attempts_ > 0 && now < resync_next_at_) {
    return std::nullopt;  // backing off
  }
  ++resync_episode_attempts_;
  ++resync_attempts_;
  resync_last_missing_ = missing_now;
  resync_next_at_ = now + resync_backoff_;
  resync_backoff_ = std::min(resync_backoff_ * 2, resync_policy_.max_backoff);
  if (obs::enabled()) {
    static obs::Counter& c = obs::MetricRegistry::global().counter(
        "syncon_monitor_resync_attempts_total");
    c.add();
  }
  RetransmitRequest request = gaps_.resync_request(limit);
  obs::flight(obs::FlightKind::kResyncRequest, obs::FlightRecord::kNoProcess,
              request.events.size(), resync_episode_attempts_);
  return request;
}

void OnlineMonitor::checkpoint(const VectorClock& snapshot) {
  degraded_ = true;
  gaps_.claim(snapshot);
  obs::flight(obs::FlightKind::kCheckpoint, obs::FlightRecord::kNoProcess);
  note_gap_state();
}

VectorClock OnlineMonitor::watermark_pin() const {
  VectorClock pin(process_count_, 0);
  for (ProcessId p = 0; p < process_count_; ++p) {
    pin.set(p, gaps_.contiguous_prefix(p) + 1);
  }
  // Open (unevaluated) actions keep their component events servable: the
  // pin holds at the least referenced index until the action completes and
  // its watches have consumed the summary.
  for (const auto& [label, tracker] : open_) {
    for (const auto& [q, least] : tracker.least_indices()) {
      pin.set(q, std::min<ClockValue>(pin.at(q), least));
    }
  }
  return pin;
}

void OnlineMonitor::adopt_checkpoint(const RetentionCheckpoint& checkpoint) {
  SYNCON_REQUIRE(checkpoint.cut.size() == process_count_,
                 "checkpoint cut has " +
                     std::to_string(checkpoint.cut.size()) +
                     " components, monitor covers " +
                     std::to_string(process_count_) + " processes");
  degraded_ = true;
  for (ProcessId p = 0; p < process_count_; ++p) {
    // The surface clock vouches for the frontier a late joiner can never
    // see reports for; anything it claims beyond the cut is a real gap the
    // normal resync path recovers.
    gaps_.claim(checkpoint.surface_clocks[p]);
    if (checkpoint.cut[p] > 0) gaps_.forgive(p, checkpoint.cut[p] - 1);
  }
  obs::flight(obs::FlightKind::kCheckpoint, obs::FlightRecord::kNoProcess,
              checkpoint.sequence);
  note_gap_state();
  if (!gaps_.has_gap()) rearm_after_recovery(nullptr);
  fire_ready_watches();
}

void OnlineMonitor::note_gap_state() {
  const bool open_now = gaps_.has_gap();
  if (open_now && !gap_open_) {
    gap_open_ = true;
    gap_opened_at_report_ = reports_seen_;
    gap_opened_us_ = obs::now_us();
    obs::flight(obs::FlightKind::kGapOpen, obs::FlightRecord::kNoProcess,
                gaps_.missing_count());
  } else if (!open_now && gap_open_) {
    gap_open_ = false;
    const std::uint64_t open_us = obs::now_us() - gap_opened_us_;
    if (obs::enabled()) {
      // Duration measured in reports observed while the gap stayed open —
      // the monitor's own deterministic clock, unlike wall time.
      static obs::Histogram& open_reports =
          obs::MetricRegistry::global().histogram(
              "syncon_monitor_gap_open_reports",
              obs::HistogramSpec::exponential(1.0, 4096.0));
      open_reports.record(
          static_cast<double>(reports_seen_ - gap_opened_at_report_));
    }
    // The wall-clock dwell behind PendingGap verdicts — the resync leg of
    // the detection-latency taxonomy (outside the per-verdict waterfall,
    // since one gap episode can taint many verdicts).
    obs::record_stage_latency(obs::Stage::kResyncWait, open_us);
    obs::flight(obs::FlightKind::kGapClose, obs::FlightRecord::kNoProcess,
                reports_seen_ - gap_opened_at_report_, open_us);
  }
}

void OnlineMonitor::mark_crashed(ProcessId p) {
  SYNCON_REQUIRE(p < process_count_, "process id out of range");
  crashed_[p] = true;
  obs::flight(obs::FlightKind::kCrash, p);
}

bool OnlineMonitor::is_crashed(ProcessId p) const {
  SYNCON_REQUIRE(p < process_count_, "process id out of range");
  return crashed_[p];
}

std::vector<ProcessId> OnlineMonitor::crashed_processes() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < process_count_; ++p) {
    if (crashed_[p]) out.push_back(p);
  }
  return out;
}

std::vector<std::string> OnlineMonitor::doomed_actions() const {
  std::vector<std::string> out;
  for (const auto& [label, tracker] : open_) {
    for (const ProcessId p : tracker.nodes()) {
      if (crashed_[p]) {
        out.push_back(label);
        break;
      }
    }
  }
  return out;
}

std::vector<EventId> OnlineMonitor::unrecoverable_reports() const {
  std::vector<EventId> out;
  for (const EventId& e : gaps_.missing()) {
    if (crashed_[e.process]) out.push_back(e);
  }
  return out;
}

void OnlineMonitor::watch(const RelationId& relation, const std::string& x,
                          const std::string& y, RelationCallback callback) {
  SYNCON_REQUIRE(callback != nullptr, "watch needs a callback");
  relation_watches_.push_back(
      RelationWatch{relation, x, y, std::move(callback)});
  fire_ready_watches();
}

void OnlineMonitor::watch_deadline(const TimingConstraint& constraint,
                                   const std::string& x, const std::string& y,
                                   DeadlineCallback callback) {
  SYNCON_REQUIRE(callback != nullptr, "watch needs a callback");
  SYNCON_REQUIRE(constraint.min_gap <= constraint.max_gap,
                 "constraint window must be ordered");
  deadline_watches_.push_back(
      DeadlineWatch{constraint, x, y, std::move(callback)});
  fire_ready_watches();
}

Duration OnlineMonitor::anchor_time(const IntervalSummary& s, Anchor a) {
  return a == Anchor::Start ? s.start_time : s.end_time;
}

Confidence OnlineMonitor::current_confidence() const {
  // Conservative: any outstanding gap taints every verdict — a lost report
  // could be a component event of any action (even one whose node set does
  // not show the lost event's process: all of an action's events on that
  // process may have been lost). See DESIGN.md §3.7.
  return degraded_ && gaps_.has_gap() ? Confidence::PendingGap
                                      : Confidence::Definite;
}

std::vector<OnlineMonitor::HealthMetric> OnlineMonitor::health_metrics()
    const {
  return {
      {"syncon_monitor_open_actions", "open actions", open_.size()},
      {"syncon_monitor_completed_summaries", "completed summaries",
       retained()},
      {"syncon_monitor_reports_seen", "reports observed", reports_seen_},
      {"syncon_monitor_duplicate_reports", "duplicate reports suppressed",
       duplicate_reports_},
      {"syncon_monitor_known_lost_reports", "known-lost reports",
       missing_report_count()},
      {"syncon_monitor_quarantined_reports", "quarantined reports",
       quarantined_},
      {"syncon_monitor_resync_attempts", "resync attempts", resync_attempts_},
      {"syncon_monitor_resync_give_ups", "resync budget exhaustions",
       resync_give_ups_},
      {"syncon_monitor_definite_fires", "definite watch firings",
       definite_fires_},
      {"syncon_monitor_pending_fires", "pending-gap watch firings",
       pending_fires_},
      {"syncon_monitor_crashed_processes", "crashed processes",
       crashed_processes().size()},
  };
}

void OnlineMonitor::publish_metrics() const {
  auto& registry = obs::MetricRegistry::global();
  for (const HealthMetric& m : health_metrics()) {
    registry.gauge(m.metric).set(static_cast<std::int64_t>(m.value));
  }
}

void OnlineMonitor::note_action_report(const std::string& label) {
  if (!latency_tracking_) return;
  ActionTiming& t = timing_[label];
  const std::uint64_t now = obs::now_us();
  if (t.first_report_us == 0) t.first_report_us = now;
  t.last_report_us = now;
}

void OnlineMonitor::emit_waterfall(const std::string& x, const std::string& y,
                                   bool holds, Confidence confidence,
                                   int fires, std::uint64_t eval0_us,
                                   std::uint64_t eval1_us,
                                   std::uint64_t fired_us) {
  const auto timing_of = [&](const std::string& label) {
    const auto it = timing_.find(label);
    return it == timing_.end() ? ActionTiming{} : it->second;
  };
  const ActionTiming tx = timing_of(x);
  const ActionTiming ty = timing_of(y);
  // Earliest stamp either action carries; a zero stamp means "tracking was
  // not on yet" and contributes nothing.
  const auto min_nonzero = [](std::uint64_t a, std::uint64_t b) {
    if (a == 0) return b;
    if (b == 0) return a;
    return std::min(a, b);
  };
  std::uint64_t start = min_nonzero(min_nonzero(tx.begin_us, ty.begin_us),
                                    min_nonzero(tx.first_report_us,
                                                ty.first_report_us));
  if (start == 0 || start > eval0_us) start = eval0_us;

  obs::Waterfall w;
  w.x = x;
  w.y = y;
  w.holds = holds;
  w.definite = confidence == Confidence::Definite;
  w.fire_index = fires;
  w.start_us = start;
  // Contiguous, clamped boundaries: each stage begins where the previous
  // ended, so the waterfall is monotone by construction and its durations
  // sum exactly to the end-to-end latency.
  const std::uint64_t bounds[] = {
      start,
      std::max(tx.last_report_us, ty.last_report_us),   // observe ends
      std::max(tx.completed_us, ty.completed_us),       // track ends
      eval0_us,                                         // gap_wait ends
      eval1_us,                                         // evaluate ends
      fired_us,                                         // fire ends
  };
  std::uint64_t cursor = start;
  const auto stages = obs::detect_stages();
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const std::uint64_t end = std::max(cursor, bounds[s + 1]);
    w.stages.push_back(
        obs::StageSpan{std::string(stages[s]), cursor, end - cursor});
    obs::record_stage_latency(static_cast<obs::Stage>(s), end - cursor);
    cursor = end;
  }
  obs::flight(obs::FlightKind::kVerdict, obs::FlightRecord::kNoProcess,
              static_cast<std::uint64_t>(holds) |
                  (static_cast<std::uint64_t>(w.definite) << 1),
              w.total_us());
  waterfalls_.push_back(std::move(w));
  while (waterfalls_.size() > kMaxWaterfalls) waterfalls_.pop_front();
}

void OnlineMonitor::rearm_after_recovery(const std::string* label) {
  const bool all_clear = !gaps_.has_gap();
  const auto rearm = [&](auto& watch) {
    if (watch.fires == 0 || watch.armed) return;
    const bool repaired =
        label != nullptr && (watch.x == *label || watch.y == *label);
    const bool upgradable = all_clear && watch.last == Confidence::PendingGap;
    if (repaired || upgradable) watch.armed = true;
  };
  for (RelationWatch& w : relation_watches_) rearm(w);
  for (DeadlineWatch& w : deadline_watches_) rearm(w);
}

void OnlineMonitor::fire_ready_watches() {
  // Callbacks may re-enter the monitor (register further watches, complete
  // more actions): iterate by index so vector growth is safe, and suppress
  // recursive firing — the outer pass will pick up anything new. Callbacks
  // must not call forget() (it compacts the watch vectors).
  if (firing_) return;
  firing_ = true;
  bool fired_any = true;
  while (fired_any) {  // repeat: a callback may make earlier watches ready
    fired_any = false;
    for (std::size_t i = 0; i < relation_watches_.size(); ++i) {
      if (!relation_watches_[i].armed) continue;
      const IntervalSummary* sx = summary(relation_watches_[i].x);
      const IntervalSummary* sy = summary(relation_watches_[i].y);
      if (sx == nullptr || sy == nullptr) continue;
      const Confidence conf = current_confidence();
      relation_watches_[i].armed = false;
      relation_watches_[i].last = conf;
      ++relation_watches_[i].fires;
      (conf == Confidence::Definite ? definite_fires_ : pending_fires_) += 1;
      fired_any = true;
      const int fires = relation_watches_[i].fires;
      const std::uint64_t eval0 = latency_tracking_ ? obs::now_us() : 0;
      const bool holds =
          evaluate_online(relation_watches_[i].relation, *sx, *sy, counter_);
      const std::uint64_t eval1 = latency_tracking_ ? obs::now_us() : 0;
      // Copy what the callback needs: re-entrant registrations may grow the
      // vector and invalidate references.
      const RelationCallback callback = relation_watches_[i].callback;
      const std::string x = relation_watches_[i].x;
      const std::string y = relation_watches_[i].y;
      callback(x, y, holds, conf);
      if (latency_tracking_) {
        emit_waterfall(x, y, holds, conf, fires, eval0, eval1, obs::now_us());
      }
    }
    for (std::size_t i = 0; i < deadline_watches_.size(); ++i) {
      if (!deadline_watches_[i].armed) continue;
      const IntervalSummary* sx = summary(deadline_watches_[i].x);
      const IntervalSummary* sy = summary(deadline_watches_[i].y);
      if (sx == nullptr || sy == nullptr) continue;
      const Confidence conf = current_confidence();
      deadline_watches_[i].armed = false;
      deadline_watches_[i].last = conf;
      ++deadline_watches_[i].fires;
      (conf == Confidence::Definite ? definite_fires_ : pending_fires_) += 1;
      fired_any = true;
      const int fires = deadline_watches_[i].fires;
      const std::uint64_t eval0 = latency_tracking_ ? obs::now_us() : 0;
      const TimingConstraint constraint = deadline_watches_[i].constraint;
      const DeadlineCallback callback = deadline_watches_[i].callback;
      const std::string x = deadline_watches_[i].x;
      const std::string y = deadline_watches_[i].y;
      if (!sx->fully_timed || !sy->fully_timed) {
        const std::uint64_t eval1 = latency_tracking_ ? obs::now_us() : 0;
        callback(x, y, 0, false, conf);
        if (latency_tracking_) {
          emit_waterfall(x, y, false, conf, fires, eval0, eval1,
                         obs::now_us());
        }
        continue;
      }
      const Duration measured = anchor_time(*sy, constraint.anchor_y) -
                                anchor_time(*sx, constraint.anchor_x);
      const bool ok =
          measured >= constraint.min_gap && measured <= constraint.max_gap;
      const std::uint64_t eval1 = latency_tracking_ ? obs::now_us() : 0;
      callback(x, y, measured, ok, conf);
      if (latency_tracking_) {
        emit_waterfall(x, y, ok, conf, fires, eval0, eval1, obs::now_us());
      }
    }
  }
  firing_ = false;
}

}  // namespace syncon
