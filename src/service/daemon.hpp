// The sharded multi-tenant monitoring daemon core (DESIGN.md §3.15): N
// independent tenant sessions — each a replica OnlineSystem + feed-only
// OnlineMonitor (TenantSessionCore) — hosted behind the tenant wire codec.
//
// Concurrency model: submit() runs on the owner thread and only routes —
// envelope validation (the only CRC scan a frame gets), a bounded per-shard
// queue, optional journaling. pump() is a barrier: ThreadPool::parallel_for
// applies every queued frame, shard s owning exactly the tenants with
// tenant_id % shards == s, so one tenant's frames are always applied in
// order on one thread (delivery determinism survives the fan-out). Between
// pumps the sessions are quiescent and the owner may read stats, compact,
// or publish metrics.
//
// Backpressure: a full shard queue rejects the submit (Admission::accepted
// = false, retry after the next pump) instead of buffering unboundedly —
// the caller keeps FIFO by not advancing that tenant's cursor.
//
// Retention: with a global memory budget set, the owner compacts the
// laggiest sessions (largest live log first) at their monitors' retention
// pins after each pump until the budget holds — compaction never crosses
// what a resync or open action still needs, so verdicts are unaffected.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "service/tenant_codec.hpp"
#include "store/storage.hpp"
#include "support/thread_pool.hpp"

namespace syncon::service {

struct DaemonOptions {
  std::size_t shards = 8;
  /// Frames one shard queue holds before submits are rejected.
  std::size_t queue_capacity = 1024;
  /// Global cap on live log events across every session (0 = unbounded);
  /// enforced after each pump by compacting the laggiest sessions first.
  std::size_t memory_budget_events = 0;
  /// Per-tenant labeled gauges are published for at most this many tenants
  /// (the aggregate gauges always cover everyone).
  std::size_t per_tenant_metric_limit = 64;
  /// Optional durable frame journal: every admitted frame is appended to
  /// object "tenant-<id>" before it is applied, and recover() rebuilds all
  /// sessions by replaying those objects. The envelope doubles as the
  /// journal record format — it already carries the CRC framing.
  StorageBackend* journal = nullptr;
};

/// Outcome of one submit: rejected frames should be retried unchanged
/// after `retry_after_pumps` pump barriers (the queues drain every pump).
struct Admission {
  bool accepted = false;
  std::uint32_t retry_after_pumps = 0;
};

struct DaemonStats {
  std::size_t tenants = 0;
  /// Every accepted (or journal-replayed) frame ends in exactly one of
  /// frames_applied and frames_quarantined. Applied: a hello that opened a
  /// session, or an op its session core accepted.
  std::uint64_t frames_applied = 0;
  /// Envelope-corrupt, unroutable (no session), a second hello for a live
  /// tenant, out-of-sequence or undecodable, or an op the session core
  /// rejected — every way a frame can fail without killing us.
  std::uint64_t frames_quarantined = 0;
  std::uint64_t rejected_submits = 0;
  std::uint64_t verdicts = 0;
  std::size_t live_log_events = 0;
  std::size_t live_log_peak = 0;
  std::uint64_t reclaimed_events = 0;
  std::uint64_t compactions = 0;
};

class MonitorDaemon {
 public:
  MonitorDaemon(const DaemonOptions& options, ThreadPool& pool);

  MonitorDaemon(const MonitorDaemon&) = delete;
  MonitorDaemon& operator=(const MonitorDaemon&) = delete;

  /// Routes one complete envelope (owner thread only). A corrupt envelope
  /// is swallowed and quarantined (accepted — retrying cannot help); a
  /// valid one is queued on its tenant's shard or rejected when that queue
  /// is full.
  Admission submit(std::span<const std::uint8_t> frame);

  /// Applies every queued frame across all shards (barrier), then enforces
  /// the memory budget. Owner thread only.
  void pump();

  /// Replays the journal into fresh sessions (construct-time crash
  /// recovery). Requires a journal and no frames submitted yet.
  void recover();

  /// Aggregate counters; call between pumps.
  DaemonStats stats() const;

  /// The hosted session, or nullptr — identity checks read verdicts here.
  const TenantSessionCore* session(std::uint64_t tenant) const;

  /// Definite verdict log of one tenant (empty for unknown tenants).
  std::vector<std::string> verdicts(std::uint64_t tenant) const;

  /// Drops a finished tenant's session (and its journal object, if any).
  void release(std::uint64_t tenant);

  /// Publishes aggregate + per-tenant gauges into MetricRegistry::global().
  void publish_metrics() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  /// An admitted frame: a copy of its bytes plus the header submit()
  /// already parsed from the CRC-checked envelope, so the pump never scans
  /// the envelope again.
  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    std::uint64_t tenant = 0;
    std::uint64_t seq = 0;
    std::uint64_t enqueued_us = 0;
    std::uint32_t body_offset = 0;  // frames are < kMaxFramePayload + 16
    std::uint32_t body_size = 0;
    FrameKind kind = FrameKind::kHello;
    bool timed = false;  // enqueued_us was read (telemetry on at submit)

    FrameView view() const;
  };

  struct TenantSession {
    TenantSession(std::size_t processes, std::size_t resync_chunk,
                  std::uint64_t hello_seq)
        : core(processes, resync_chunk), decoder(processes, hello_seq) {}
    TenantSessionCore core;
    TenantStreamDecoder decoder;
    std::uint64_t quarantined_frames = 0;
  };

  struct Shard {
    std::mutex mutex;
    std::vector<QueuedFrame> queue;  // guarded by mutex
    // The frames one pump applies: swapped with `queue` under the mutex, so
    // both buffers keep their capacity from pump to pump.
    std::vector<QueuedFrame> batch;
    // Enqueue times of the op frames applied in the current pump, recorded
    // against one clock read when the shard's batch ends. Reused across
    // pumps; owned by the shard's worker like the sessions.
    std::vector<std::uint64_t> applied_enqueued_us;
    // Owned by this shard's worker during pump(), by the owner between
    // pumps (the parallel_for barrier is the handoff). std::map: stats and
    // budget scans see tenants in deterministic order.
    std::map<std::uint64_t, std::unique_ptr<TenantSession>> sessions;
    std::uint64_t frames_applied = 0;
    std::uint64_t quarantined = 0;
  };

  /// Applies one envelope-validated frame; true iff it was an op frame its
  /// session applied (the frames whose ingest latency is recorded).
  bool apply_frame(Shard& shard, const FrameView& frame);
  void enforce_memory_budget();
  const TenantSession* find_session(std::uint64_t tenant) const;
  static std::string journal_object(std::uint64_t tenant);

  DaemonOptions options_;
  ThreadPool& pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t rejected_submits_ = 0;
  std::uint64_t corrupt_submits_ = 0;
  std::size_t live_log_peak_ = 0;
  std::uint64_t reclaimed_events_ = 0;
  std::uint64_t compactions_ = 0;
  bool any_submitted_ = false;
};

}  // namespace syncon::service
