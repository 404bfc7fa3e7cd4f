#include "service/daemon.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon::service {

namespace {

/// Records the submit → end-of-batch latency of the op frames one shard
/// applied in a pump against one clock read, on the applying shard's
/// thread, and empties the list. A frame's verdicts are readable only after
/// the pump barrier, so its latency ends where its batch ends.
void record_ingest_latencies(std::vector<std::uint64_t>& enqueued_us) {
  if (enqueued_us.empty()) return;
  if (obs::enabled()) {
    static obs::Histogram& latency = obs::MetricRegistry::global().histogram(
        "syncon_service_ingest_latency_us",
        obs::HistogramSpec::exponential(1.0, 1048576.0));
    const std::uint64_t now = obs::now_us();
    const std::size_t slot = obs::current_thread_slot();
    for (const std::uint64_t t : enqueued_us) {
      latency.record(static_cast<double>(now - t), slot);
    }
  }
  enqueued_us.clear();
}

}  // namespace

FrameView MonitorDaemon::QueuedFrame::view() const {
  static_assert(sizeof(QueuedFrame) <= 64,
                "a queued frame stays one cache line");
  FrameView view;
  view.kind = kind;
  view.tenant = tenant;
  view.seq = seq;
  view.body = std::span<const std::uint8_t>(bytes).subspan(body_offset,
                                                          body_size);
  view.frame_size = bytes.size();
  return view;
}

MonitorDaemon::MonitorDaemon(const DaemonOptions& options, ThreadPool& pool)
    : options_(options), pool_(pool) {
  SYNCON_REQUIRE(options_.shards > 0, "the daemon needs at least one shard");
  SYNCON_REQUIRE(options_.queue_capacity > 0,
                 "shard queues need room for at least one frame");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string MonitorDaemon::journal_object(std::uint64_t tenant) {
  return "tenant-" + std::to_string(tenant);
}

Admission MonitorDaemon::submit(std::span<const std::uint8_t> frame) {
  any_submitted_ = true;
  FrameView view;
  const PeekStatus status = peek_frame(frame, view);
  if (status != PeekStatus::kOk || view.frame_size != frame.size()) {
    // Torn or corrupt on arrival: retrying the same bytes cannot help, so
    // the frame is consumed (accepted) and counted, never applied.
    ++corrupt_submits_;
    return {true, 0};
  }

  Shard& shard = *shards_[view.tenant % shards_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.queue.size() >= options_.queue_capacity) {
      ++rejected_submits_;
      return {false, 1};
    }
    QueuedFrame queued;
    queued.bytes.assign(frame.begin(), frame.end());
    queued.tenant = view.tenant;
    queued.seq = view.seq;
    queued.timed = obs::enabled();
    if (queued.timed) queued.enqueued_us = obs::now_us();
    queued.body_offset = static_cast<std::uint32_t>(view.body.data() -
                                                    frame.data());
    queued.body_size = static_cast<std::uint32_t>(view.body.size());
    queued.kind = view.kind;
    shard.queue.push_back(std::move(queued));
  }
  if (options_.journal != nullptr) {
    const std::string object = journal_object(view.tenant);
    options_.journal->append(object, frame);
    options_.journal->sync(object);
  }
  return {true, 0};
}

bool MonitorDaemon::apply_frame(Shard& shard, const FrameView& frame) {
  if (frame.kind == FrameKind::kHello) {
    if (shard.sessions.count(frame.tenant) != 0) {
      ++shard.quarantined;  // a second hello for a live tenant
      return false;
    }
    std::size_t processes = 0, resync_chunk = 0;
    if (!decode_hello(frame, processes, resync_chunk)) {
      ++shard.quarantined;
      return false;
    }
    shard.sessions.emplace(frame.tenant,
                           std::make_unique<TenantSession>(
                               processes, resync_chunk, frame.seq));
    ++shard.frames_applied;
    return false;
  }

  const auto it = shard.sessions.find(frame.tenant);
  if (it == shard.sessions.end()) {
    ++shard.quarantined;  // frames before (or with a corrupted) hello
    return false;
  }
  TenantSession& session = *it->second;
  TenantOp op;
  bool applied = session.decoder.decode(frame, op);
  if (applied) {
    // The core quarantines an op it rejects instead of throwing; the frame
    // that carried it counts as quarantined, not applied.
    const std::uint64_t rejected = session.core.quarantined();
    session.core.apply(op);
    applied = session.core.quarantined() == rejected;
  }
  if (!applied) {
    ++session.quarantined_frames;
    ++shard.quarantined;
    return false;
  }
  ++shard.frames_applied;
  return true;
}

void MonitorDaemon::pump() {
  pool_.parallel_for(
      shards_.size(),
      [this](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          Shard& shard = *shards_[s];
          {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.batch.swap(shard.queue);
          }
          for (const QueuedFrame& frame : shard.batch) {
            if (apply_frame(shard, frame.view()) && frame.timed) {
              shard.applied_enqueued_us.push_back(frame.enqueued_us);
            }
          }
          shard.batch.clear();
          record_ingest_latencies(shard.applied_enqueued_us);
        }
      },
      shards_.size());
  enforce_memory_budget();
}

void MonitorDaemon::enforce_memory_budget() {
  struct Candidate {
    std::size_t live;
    std::uint64_t tenant;
    TenantSession* session;
  };
  std::vector<Candidate> candidates;
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [tenant, session] : shard->sessions) {
      const std::size_t live = session->core.system().live_log_events();
      total += live;
      candidates.push_back({live, tenant, session.get()});
    }
  }
  live_log_peak_ = std::max(live_log_peak_, total);
  if (options_.memory_budget_events == 0 ||
      total <= options_.memory_budget_events) {
    return;
  }
  // Laggiest first; tenant id breaks ties so the compaction order — and
  // with it every downstream stat — is deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.live != b.live ? a.live > b.live : a.tenant < b.tenant;
            });
  for (const Candidate& candidate : candidates) {
    const std::size_t reclaimed = candidate.session->core.compact_at_pin();
    if (reclaimed > 0) {
      ++compactions_;
      reclaimed_events_ += reclaimed;
      total -= reclaimed;
    }
    if (total <= options_.memory_budget_events) break;
  }
  // Still over budget: every pin is as far along as it gets this pump —
  // the remainder is live state consumers genuinely still need.
}

void MonitorDaemon::recover() {
  SYNCON_REQUIRE(options_.journal != nullptr, "recover needs a journal");
  SYNCON_REQUIRE(!any_submitted_, "recover must precede any submit");
  for (const std::string& name : options_.journal->list()) {
    if (name.rfind("tenant-", 0) != 0) continue;
    const std::vector<std::uint8_t> bytes = options_.journal->read(name);
    std::span<const std::uint8_t> in = bytes;
    while (!in.empty()) {
      FrameView view;
      if (peek_frame(in, view) != PeekStatus::kOk) {
        ++corrupt_submits_;  // torn tail: replay stops at the last clean frame
        break;
      }
      // Applied straight from the journal bytes: the scan above is the
      // frame's one envelope check.
      apply_frame(*shards_[view.tenant % shards_.size()], view);
      in = in.subspan(view.frame_size);
    }
  }
}

const MonitorDaemon::TenantSession* MonitorDaemon::find_session(
    std::uint64_t tenant) const {
  const Shard& shard = *shards_[tenant % shards_.size()];
  const auto it = shard.sessions.find(tenant);
  return it == shard.sessions.end() ? nullptr : it->second.get();
}

const TenantSessionCore* MonitorDaemon::session(std::uint64_t tenant) const {
  const TenantSession* s = find_session(tenant);
  return s == nullptr ? nullptr : &s->core;
}

std::vector<std::string> MonitorDaemon::verdicts(std::uint64_t tenant) const {
  const TenantSessionCore* core = session(tenant);
  return core == nullptr ? std::vector<std::string>{}
                         : core->definite_verdicts();
}

void MonitorDaemon::release(std::uint64_t tenant) {
  Shard& shard = *shards_[tenant % shards_.size()];
  shard.sessions.erase(tenant);
  if (options_.journal != nullptr) {
    const std::string object = journal_object(tenant);
    if (options_.journal->exists(object)) options_.journal->remove(object);
  }
}

DaemonStats MonitorDaemon::stats() const {
  DaemonStats stats;
  stats.rejected_submits = rejected_submits_;
  stats.frames_quarantined = corrupt_submits_;
  stats.live_log_peak = live_log_peak_;
  stats.reclaimed_events = reclaimed_events_;
  stats.compactions = compactions_;
  for (const auto& shard : shards_) {
    stats.frames_applied += shard->frames_applied;
    stats.frames_quarantined += shard->quarantined;
    for (const auto& [tenant, session] : shard->sessions) {
      (void)tenant;
      ++stats.tenants;
      stats.verdicts += session->core.definite_verdicts().size();
      stats.live_log_events += session->core.system().live_log_events();
    }
  }
  stats.live_log_peak = std::max(stats.live_log_peak, stats.live_log_events);
  return stats;
}

void MonitorDaemon::publish_metrics() const {
  auto& registry = obs::MetricRegistry::global();
  const DaemonStats s = stats();
  const auto set = [&registry](const char* name, std::uint64_t v) {
    registry.gauge(name).set(static_cast<std::int64_t>(v));
  };
  set("syncon_service_tenants", s.tenants);
  set("syncon_service_frames_applied", s.frames_applied);
  set("syncon_service_frames_quarantined", s.frames_quarantined);
  set("syncon_service_backpressure_rejects", s.rejected_submits);
  set("syncon_service_verdicts", s.verdicts);
  set("syncon_service_live_log_events", s.live_log_events);
  set("syncon_service_live_log_peak", s.live_log_peak);
  set("syncon_service_reclaimed_events", s.reclaimed_events);
  set("syncon_service_compactions", s.compactions);

  // Per-tenant gauges, smallest tenant ids first, bounded so a 10k-tenant
  // run cannot flood the registry (the FaultyNetwork labeled-gauge idiom).
  std::size_t published = 0;
  std::vector<std::pair<std::uint64_t, const TenantSession*>> ordered;
  for (const auto& shard : shards_) {
    for (const auto& [tenant, session] : shard->sessions) {
      ordered.emplace_back(tenant, session.get());
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [tenant, session] : ordered) {
    if (published >= options_.per_tenant_metric_limit) break;
    const std::string labels = "{tenant=\"" + std::to_string(tenant) + "\"}";
    registry.gauge("syncon_service_tenant_live_log" + labels)
        .set(static_cast<std::int64_t>(
            session->core.system().live_log_events()));
    registry.gauge("syncon_service_tenant_verdicts" + labels)
        .set(static_cast<std::int64_t>(
            session->core.definite_verdicts().size()));
    registry.gauge("syncon_service_tenant_quarantined" + labels)
        .set(static_cast<std::int64_t>(session->quarantined_frames));
    ++published;
  }
}

}  // namespace syncon::service
