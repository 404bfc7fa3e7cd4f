// Daemon path: a tenant frame becomes a Definite verdict inside the
// sharded MonitorDaemon (DESIGN.md §3.15).
//
//   daemon-faulty   4,000 tenants (P=3, 18 cycles) whose report feeds drop
//                   15%, duplicate 10% and reorder 20%; a 64-tenant window,
//                   batch 8, one shard, no journal, and a memory budget low
//                   enough that compaction runs every pump.
//   daemon-restart  2,000 clean tenants, all resident, journaled to an
//                   in-memory SimStorage. The first half of every stream
//                   goes through a daemon that then crashes; set-up is a new
//                   daemon plus recover(), the pass streams the second
//                   halves (the wide window overflows the shard queues, so
//                   backpressure runs).
//
// Telemetry is on, as syncon_monitord ships it. All frames are encoded
// before timing starts; the timed pass only submits and pumps.
#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "service/daemon.hpp"
#include "service/tenant_codec.hpp"
#include "sim/soak.hpp"
#include "store/storage.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace syncon;
using namespace syncon::service;

struct Shape {
  std::size_t tenants;
  std::size_t window;
  std::size_t batch;
  std::size_t shards;
  std::size_t memory_budget;
  bool faults;
  bool restart;
};

/// daemon-faulty has one shard: its pumps are small (~500 frames), and with
/// 8 shards the pump's hand-off to the pool worker and back (two thread
/// wake-ups on a vCPU that may be halted) took about half of pass_s and set
/// ingest_p99_us. The wake-up time is the hypervisor's, not the daemon's, and
/// varied by more than the bound between runs. With one shard parallel_for
/// runs the pump on the owner thread and never wakes the worker. The sharded
/// pump and its barrier are measured on daemon-restart, whose pumps are ~16x
/// larger.
constexpr Shape kFaulty{4000, 64, 8, 1, 256, true, false};
constexpr Shape kRestart{2000, 2000, 8, 8, 0, false, true};

/// Worker threads of the daemon's pool. A sharded pump runs shard 0 on the
/// owner and the other 7 on the worker, so two threads compute at once.
/// With two workers, host contention stretched the pump barrier and
/// ingest_p99_us drifted up to 1.6x as far as pass_s between runs.
constexpr std::size_t kPumpWorkers = 1;

/// Pool + daemon constructions timed back to back for one set-up sample
/// (workloads without a journal).
constexpr std::size_t kSetupBlock = 16;

struct TenantInput {
  std::uint64_t id = 0;
  std::size_t first_frame = 0;  // the hello
  std::size_t frames = 0;       // hello + one frame per op
  std::vector<std::string> reference;
  std::uint64_t reference_quarantined = 0;
};

/// Every tenant's pre-encoded frames, back to back in one buffer.
struct Inputs {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets{0};  // frame i = [offsets[i], offsets[i+1])
  std::vector<TenantInput> tenants;

  std::span<const std::uint8_t> frame(std::size_t i) const {
    return std::span<const std::uint8_t>(bytes).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
  }
  std::size_t frame_count() const { return offsets.size() - 1; }
};

Inputs generate(const Shape& shape, std::uint64_t seed) {
  TenantWorkload workload;  // P=3, 18 cycles
  if (shape.faults) {
    workload.report_link.drop_probability = 0.15;
    workload.report_link.duplicate_probability = 0.10;
    workload.report_link.reorder_probability = 0.20;
    workload.report_link.min_delay = 1;
    workload.report_link.max_delay = 24;
  }
  Inputs inputs;
  TenantFrameEncoder encoder;
  inputs.tenants.reserve(shape.tenants);
  for (std::uint64_t id = 0; id < shape.tenants; ++id) {
    workload.seed = seed ^ (0x9e3779b97f4a7c15ull * (id + 1));
    TenantScript script = generate_tenant_script(workload);
    TenantInput tenant;
    tenant.id = id;
    tenant.first_frame = inputs.frame_count();
    encoder.encode_hello(id, script.processes, script.resync_chunk,
                         inputs.bytes);
    inputs.offsets.push_back(inputs.bytes.size());
    for (const TenantOp& op : script.ops) {
      encoder.encode_op(id, op, inputs.bytes);
      inputs.offsets.push_back(inputs.bytes.size());
    }
    encoder.release(id);
    tenant.frames = inputs.frame_count() - tenant.first_frame;
    tenant.reference = std::move(script.reference_verdicts);
    tenant.reference_quarantined = script.reference_quarantined;
    inputs.tenants.push_back(std::move(tenant));
  }
  return inputs;
}

/// Journal decorator: counts (and, in traced passes, times) every append
/// and sync the daemon makes on the wrapped backend.
class LedgerStorage final : public StorageBackend {
 public:
  explicit LedgerStorage(StorageBackend& inner) : inner_(inner) {}

  std::vector<std::string> list() const override { return inner_.list(); }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  void append(const std::string& name,
              std::span<const std::uint8_t> data) override {
    Span span(Layer::kAppend);
    inner_.append(name, data);
    ++appends;
    bytes += data.size();
  }
  std::vector<std::uint8_t> read(const std::string& name) const override {
    return inner_.read(name);
  }
  std::size_t size(const std::string& name) const override {
    return inner_.size(name);
  }
  void sync(const std::string& name) override {
    Span span(Layer::kSync);
    inner_.sync(name);
    ++syncs;
  }
  void truncate(const std::string& name, std::size_t new_size) override {
    inner_.truncate(name, new_size);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t bytes = 0;

 private:
  StorageBackend& inner_;
};

/// Exact per-pass counts; every pass of one seed must repeat them.
struct PassCounts {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t submits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t pumps = 0;
  std::uint64_t applied = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t live_log_peak = 0;
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t replayed_frames = 0;
  std::uint64_t resync_attempts = 0;
  std::uint64_t duplicate_reports = 0;
  std::uint64_t definite_fires = 0;
  std::uint64_t pending_fires = 0;
  std::uint64_t mismatched_tenants = 0;
  std::uint64_t failed_frames = 0;
  friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

struct PassResult {
  double pass_s = 0.0;
  std::vector<double> ingest_us;  // first submit attempt -> applying pump
  std::vector<double> wait_us;    // accepted submit -> pump start (traced)
  PassCounts counts;
};

/// Drives frames [begin, end) of every tenant through `daemon`: a sliding
/// window of `window` tenants, each submitting up to `batch` frames per
/// round, a pump per round, rejected frames retried next round (FIFO per
/// tenant). Tenants retire in admission order once fully applied; a retiring
/// tenant is checked (and released when `release`) before its successor is
/// admitted.
class FrameFeeder {
 public:
  FrameFeeder(const Inputs& inputs, const Shape& shape, MonitorDaemon& daemon)
      : inputs_(inputs), shape_(shape), daemon_(daemon) {}

  /// Which frames of every tenant's stream one run drives.
  enum class Part { kAll, kFirstHalf, kSecondHalf };

  void run(Part part, bool release, bool measure, PassResult& out);

 private:
  struct Active {
    std::size_t tenant;
    std::size_t next;
    std::size_t end;
    std::int64_t first_ns;  // first attempt of frame `next`; -1 = untried
  };

  void retire(std::size_t tenant, bool release, PassCounts& counts);

  const Inputs& inputs_;
  const Shape& shape_;
  MonitorDaemon& daemon_;
};

/// Adds one finished tenant's identity check and monitor counters.
void check_tenant(const TenantInput& tenant, const TenantSessionCore* core,
                  PassCounts& counts) {
  const bool ok = core != nullptr && core->definite_verdicts() ==
                                         tenant.reference &&
                  core->quarantined() == tenant.reference_quarantined;
  if (!ok) {
    ++counts.mismatched_tenants;
    counts.failed_frames += tenant.frames;
  }
  if (core == nullptr) return;
  counts.verdicts += core->definite_verdicts().size();
  const OnlineMonitor& monitor = core->monitor();
  counts.resync_attempts += monitor.resync_attempts();
  counts.duplicate_reports += monitor.duplicate_reports();
  counts.definite_fires += monitor.definite_fires();
  counts.pending_fires += monitor.pending_fires();
}

void FrameFeeder::retire(std::size_t tenant, bool release, PassCounts& counts) {
  if (!release) return;  // resident tenants are checked after the pass
  const TenantInput& t = inputs_.tenants[tenant];
  check_tenant(t, daemon_.session(t.id), counts);
  daemon_.release(t.id);
}

void FrameFeeder::run(Part part, bool release, bool measure, PassResult& out) {
  PassCounts& counts = out.counts;
  const bool traced = Tracer::instance().on();
  std::deque<Active> active;
  std::size_t next_tenant = 0;
  const auto admit = [&] {
    const TenantInput& t = inputs_.tenants[next_tenant];
    const std::size_t split = t.first_frame + t.frames / 2;
    const std::size_t end = t.first_frame + t.frames;
    active.push_back(
        {next_tenant, part == Part::kSecondHalf ? split : t.first_frame,
         part == Part::kFirstHalf ? split : end, -1});
    ++next_tenant;
  };
  while (next_tenant < inputs_.tenants.size() && active.size() < shape_.window) {
    admit();
  }

  std::vector<std::int64_t> accepted_first;  // first attempts, this round
  std::vector<std::int64_t> accepted_at;     // acceptance times (traced)
  const std::int64_t t0 = now_ns();
  while (!active.empty()) {
    for (Active& a : active) {
      for (std::size_t k = 0; k < shape_.batch && a.next < a.end; ++k) {
        const std::span<const std::uint8_t> frame = inputs_.frame(a.next);
        if (measure && a.first_ns < 0) a.first_ns = now_ns();
        Admission admission;
        {
          Span span(Layer::kSubmit);
          admission = daemon_.submit(frame);
        }
        ++counts.submits;
        if (!admission.accepted) {
          ++counts.rejects;
          break;  // backpressure: retry after the next pump
        }
        if (measure) {
          accepted_first.push_back(a.first_ns);
          if (traced) accepted_at.push_back(now_ns());
        }
        a.first_ns = -1;
        ++a.next;
        ++counts.frames;
        counts.bytes += frame.size();
      }
    }
    const std::int64_t pump_start = now_ns();
    {
      Span span(Layer::kPump);
      daemon_.pump();
    }
    const std::int64_t pump_end = now_ns();
    ++counts.pumps;
    for (const std::int64_t first : accepted_first) {
      out.ingest_us.push_back(static_cast<double>(pump_end - first) * 1e-3);
    }
    for (const std::int64_t at : accepted_at) {
      out.wait_us.push_back(static_cast<double>(pump_start - at) * 1e-3);
    }
    accepted_first.clear();
    accepted_at.clear();

    while (!active.empty() && active.front().next == active.front().end) {
      retire(active.front().tenant, release, counts);
      active.pop_front();
      if (next_tenant < inputs_.tenants.size()) admit();
    }
  }
  out.pass_s = seconds_between(t0, now_ns());
}

/// Fills the daemon-level counts after a pass.
void finish_counts(const MonitorDaemon& daemon, bool resident,
                   const Inputs& inputs, PassCounts& counts) {
  if (resident) {
    for (const TenantInput& t : inputs.tenants) {
      check_tenant(t, daemon.session(t.id), counts);
    }
  }
  const DaemonStats stats = daemon.stats();
  counts.applied = stats.frames_applied;
  counts.reclaimed = stats.reclaimed_events;
  counts.compactions = stats.compactions;
  counts.live_log_peak = stats.live_log_peak;
}

/// Resync requests the sessions' replicas served (telemetry counter; the
/// session resync loop calls OnlineSystem::serve directly, so the monitors'
/// own resync_attempts() stays 0 on this path).
std::uint64_t resync_serves() {
  return obs::MetricRegistry::global().snapshot().counter_value(
      "syncon_online_resync_serves_total");
}

std::uint64_t histogram_samples() {
  std::uint64_t total = 0;
  for (const auto& entry : obs::MetricRegistry::global().snapshot().entries) {
    if (entry.histogram) total += entry.histogram->count;
  }
  return total;
}

/// What the serial mirror did, for the checks against the daemon.
struct MirrorResult {
  double wall_s = 0.0;
  std::uint64_t compact_calls = 0;
  std::uint64_t compactions = 0;  // calls that reclaimed events
  std::uint64_t reclaimed = 0;
};

/// The serial mirror of the daemon's per-frame work: peek_frame →
/// TenantStreamDecoder::decode → TenantSessionCore::apply on the owner
/// thread, for the same frames, so the decode / apply / compaction split
/// can be timed from outside the library. It replays FrameFeeder's rounds
/// (the same window, `batch` frames per tenant per round, retirement in
/// admission order) and after each round applies the daemon's memory
/// budget rule: while the resident sessions hold more live log events than
/// the budget, compact_at_pin the laggiest first (most live events, then
/// lowest tenant id). With no backpressure this is the daemon's sequence
/// of compact_at_pin calls. Checks verdict identity of every tenant.
MirrorResult run_mirror(const Inputs& inputs, const Shape& shape,
                        Report& report) {
  struct Session {
    std::size_t tenant;
    std::size_t next;  // frame index within the tenant's stream
    std::unique_ptr<TenantStreamDecoder> decoder;
    std::unique_ptr<TenantSessionCore> core;
  };
  MirrorResult result;
  std::uint64_t mismatches = 0;
  std::uint64_t rejected = 0;
  std::deque<Session> active;
  std::size_t next_tenant = 0;
  const auto admit = [&] {
    active.push_back({next_tenant++, 0, nullptr, nullptr});
  };
  while (next_tenant < inputs.tenants.size() && active.size() < shape.window) {
    admit();
  }
  std::vector<Session*> by_lag;
  const std::int64_t t0 = now_ns();
  while (!active.empty()) {
    for (Session& s : active) {
      const TenantInput& tenant = inputs.tenants[s.tenant];
      for (std::size_t k = 0; k < shape.batch && s.next < tenant.frames;
           ++k, ++s.next) {
        FrameView view;
        bool ok = false;
        {
          Span span(Layer::kPeek);
          ok = peek_frame(inputs.frame(tenant.first_frame + s.next), view) ==
               PeekStatus::kOk;
        }
        if (ok && s.next == 0) {
          std::size_t processes = 0, chunk = 0;
          ok = decode_hello(view, processes, chunk);
          if (ok) {
            s.decoder = std::make_unique<TenantStreamDecoder>(processes,
                                                              view.seq);
            s.core = std::make_unique<TenantSessionCore>(processes, chunk);
          }
          if (!ok) ++rejected;
          continue;
        }
        TenantOp op;
        if (ok && s.decoder) {
          Span span(Layer::kDecode);
          ok = s.decoder->decode(view, op);
        }
        if (!ok || !s.core) {
          ++rejected;
          continue;
        }
        Span span(Layer::kApply);
        s.core->apply(op);
      }
    }
    if (shape.memory_budget > 0) {
      std::size_t total = 0;
      by_lag.clear();
      for (Session& s : active) {
        if (!s.core) continue;
        total += s.core->system().live_log_events();
        by_lag.push_back(&s);
      }
      if (total > shape.memory_budget) {
        std::sort(by_lag.begin(), by_lag.end(),
                  [](const Session* a, const Session* b) {
                    const std::size_t la = a->core->system().live_log_events();
                    const std::size_t lb = b->core->system().live_log_events();
                    return la != lb ? la > lb : a->tenant < b->tenant;
                  });
        for (Session* s : by_lag) {
          std::size_t reclaimed = 0;
          {
            Span span(Layer::kCompact);
            reclaimed = s->core->compact_at_pin();
          }
          ++result.compact_calls;
          if (reclaimed > 0) {
            ++result.compactions;
            result.reclaimed += reclaimed;
            total -= reclaimed;
          }
          if (total <= shape.memory_budget) break;
        }
      }
    }
    while (!active.empty() &&
           active.front().next == inputs.tenants[active.front().tenant].frames) {
      const Session& s = active.front();
      if (!s.core ||
          s.core->definite_verdicts() != inputs.tenants[s.tenant].reference) {
        ++mismatches;
      }
      active.pop_front();
      if (next_tenant < inputs.tenants.size()) admit();
    }
  }
  result.wall_s = seconds_between(t0, now_ns());
  report.check(rejected == 0,
               std::to_string(rejected) + " frames rejected by the mirror");
  report.check(mismatches == 0, std::to_string(mismatches) +
                                    " tenants diverged in the serial mirror");
  return result;
}

DaemonOptions daemon_options(const Shape& shape, StorageBackend* journal) {
  DaemonOptions options;
  options.shards = shape.shards;
  options.memory_budget_events = shape.memory_budget;
  options.journal = journal;
  return options;
}

/// Post-crash journal contents of daemon-restart: the first half of every
/// tenant's stream, driven through daemon A, then SimStorage::crash().
std::map<std::string, std::vector<std::uint8_t>> precrash_journal(
    const Inputs& inputs, const Shape& shape, std::size_t workers) {
  SimStorage storage;
  {
    ThreadPool pool(workers);
    MonitorDaemon daemon(daemon_options(shape, &storage), pool);
    FrameFeeder feeder(inputs, shape, daemon);
    PassResult ignored;
    feeder.run(FrameFeeder::Part::kFirstHalf, /*release=*/false,
               /*measure=*/false, ignored);
    pool.drain();
  }
  storage.crash();
  std::map<std::string, std::vector<std::uint8_t>> objects;
  for (const std::string& name : storage.list()) {
    objects.emplace(name, storage.read(name));
  }
  return objects;
}

}  // namespace

int run_daemon(const Options& options, Report& report) {
  const Shape& shape =
      options.workload == "daemon-restart" ? kRestart : kFaulty;
  const std::size_t workers = kPumpWorkers;
  obs::set_enabled(true);  // as syncon_monitord runs

  const std::int64_t g0 = now_ns();
  const Inputs inputs = generate(shape, options.seed);
  report.diagnostic("gen_s", "s", seconds_between(g0, now_ns()));
  std::map<std::string, std::vector<std::uint8_t>> journal_image;
  if (shape.restart) {
    const std::int64_t c0 = now_ns();
    journal_image = precrash_journal(inputs, shape, workers);
    report.diagnostic("precrash_s", "s", seconds_between(c0, now_ns()));
  }
  report.diagnostic("pool_workers", "count", static_cast<double>(workers));
  report.diagnostic("frames_encoded", "count",
                    static_cast<double>(inputs.frame_count()));

  std::vector<double> setup_s;
  std::vector<double> recover_s;
  std::vector<double> pass_on_s;   // telemetry on, untraced
  std::vector<double> pass_off_s;  // telemetry off, untraced (traced run)
  std::vector<double> traced_s;
  std::vector<double> p50_us, p99_us, wait_p50_us;
  std::vector<double> hist_samples;
  std::vector<double> serves;  // resync serves per telemetry-on pass
  LayerLedger ledger;
  Tracer& tracer = Tracer::instance();

  // Set-up without a journal is cheap: it is timed before every measured
  // pass as the mean of a short block of constructions, so the samples span
  // the run like the passes do.
  std::unique_ptr<ThreadPool> pool;
  const auto time_setup = [&] {
    std::vector<std::unique_ptr<ThreadPool>> pools(kSetupBlock);
    std::vector<std::unique_ptr<MonitorDaemon>> daemons(kSetupBlock);
    const std::int64_t s0 = now_ns();
    for (std::size_t rep = 0; rep < kSetupBlock; ++rep) {
      pools[rep] = std::make_unique<ThreadPool>(workers);
      daemons[rep] = std::make_unique<MonitorDaemon>(
          daemon_options(shape, nullptr), *pools[rep]);
    }
    setup_s.push_back(seconds_between(s0, now_ns()) /
                      static_cast<double>(kSetupBlock));
    // Teardown (daemons, then pools) is not set-up: untimed.
  };

  PassCounts expected;
  bool have_expected = false;
  std::uint64_t count_mismatches = 0;
  std::uint64_t attempted = 0, failed = 0;
  PassBudget budget(options.seconds, 3, 200);
  // The first pass warms the allocator and caches; it is checked like every
  // other pass but not timed.
  bool warmup = true;
  while (warmup || budget.more()) {
    // Untraced runs measure every pass with telemetry on. Traced runs cycle
    // telemetry-on, telemetry-off (for obs.cost_share) and traced passes.
    const std::size_t phase =
        options.trace && !warmup ? budget.passes() % 3 : 0;
    const bool traced = phase == 2;
    obs::set_enabled(phase != 1);

    std::unique_ptr<SimStorage> storage;
    std::unique_ptr<LedgerStorage> journal;
    std::unique_ptr<MonitorDaemon> daemon;
    PassResult result;
    if (shape.restart) {
      storage = std::make_unique<SimStorage>();
      for (const auto& [name, bytes] : journal_image) {
        storage->append(name, bytes);
        storage->sync(name);
      }
      journal = std::make_unique<LedgerStorage>(*storage);
      const std::int64_t s0 = now_ns();
      pool = std::make_unique<ThreadPool>(workers);
      daemon = std::make_unique<MonitorDaemon>(
          daemon_options(shape, journal.get()), *pool);
      const std::int64_t r0 = now_ns();
      daemon->recover();
      const std::int64_t s1 = now_ns();
      if (phase == 0 && !warmup) {
        setup_s.push_back(seconds_between(s0, s1));
        recover_s.push_back(seconds_between(r0, s1));
        budget.spend(seconds_between(s0, s1), /*pass=*/false);
      }
      result.counts.replayed_frames = daemon->stats().frames_applied;
    } else {
      if (phase == 0 && !warmup) time_setup();
      // A fresh pool every pass, as on daemon-restart: where the workers
      // land on the host is drawn anew, so the median over passes does not
      // hang on one placement.
      pool = std::make_unique<ThreadPool>(workers);
      daemon = std::make_unique<MonitorDaemon>(daemon_options(shape, nullptr),
                                               *pool);
    }

    const std::uint64_t hist0 = histogram_samples();
    const std::uint64_t serves0 = resync_serves();
    // With one shard the whole pass runs on this thread; it moves to the
    // next CPU every pass (OwnerPin). The pool was made first, unpinned.
    std::optional<OwnerPin> pin;
    if (shape.shards == 1) pin.emplace(budget.passes());
    FrameFeeder feeder(inputs, shape, *daemon);
    tracer.reset_totals();
    tracer.set_on(traced);
    feeder.run(shape.restart ? FrameFeeder::Part::kSecondHalf
                              : FrameFeeder::Part::kAll,
               /*release=*/!shape.restart, /*measure=*/true, result);
    tracer.set_on(false);
    if (!warmup) budget.spend(result.pass_s);

    PassCounts& c = result.counts;
    if (journal) {
      c.appends = journal->appends;
      c.syncs = journal->syncs;
      c.journal_bytes = journal->bytes;
    }
    finish_counts(*daemon, shape.restart, inputs, c);
    c.quarantined = c.frames - (c.applied - c.replayed_frames);
    c.failed_frames += c.quarantined;
    c.applied -= c.replayed_frames;
    attempted += c.frames;
    failed += c.failed_frames;
    if (!have_expected) {
      expected = c;
      have_expected = true;
    } else if (!(c == expected)) {
      ++count_mismatches;
    }

    if (warmup) {
      warmup = false;
    } else if (phase == 0) {
      pass_on_s.push_back(result.pass_s);
      p50_us.push_back(quantile(result.ingest_us, 0.5));
      p99_us.push_back(quantile(result.ingest_us, 0.99));
      hist_samples.push_back(static_cast<double>(histogram_samples() - hist0));
      serves.push_back(static_cast<double>(resync_serves() - serves0));
    } else if (phase == 1) {
      pass_off_s.push_back(result.pass_s);
    } else {
      traced_s.push_back(result.pass_s);
      wait_p50_us.push_back(quantile(result.wait_us, 0.5));
      const double frames = static_cast<double>(c.frames);
      ledger.add_pass(result.pass_s,
                      {{Layer::kSubmit, static_cast<double>(c.submits)},
                       {Layer::kPump, frames},
                       {Layer::kAppend, static_cast<double>(c.appends)},
                       {Layer::kSync, static_cast<double>(c.syncs)}});
    }
    pool->drain();
    daemon.reset();
    pool.reset();
  }
  const double rss = peak_rss_mib();
  obs::set_enabled(true);

  report.attempted(attempted);
  report.failed(failed);
  report.check(count_mismatches == 0,
               "deterministic counts differ between passes of one run");
  report.check(expected.mismatched_tenants == 0,
               std::to_string(expected.mismatched_tenants) +
                   " tenants' verdict logs differ from their reference");
  report.check(expected.quarantined == 0,
               std::to_string(expected.quarantined) + " frames quarantined");
  report.check(expected.applied == expected.frames,
               "not every submitted frame was applied");
  report.check(!serves.empty() && std::adjacent_find(serves.begin(), serves.end(),
                                                     std::not_equal_to<>()) ==
                                      serves.end(),
               "resync serves differ between passes of one run");

  report.end_to_end("setup_s", "s", setup_s);
  report.end_to_end("pass_s", "s", pass_on_s);
  report.end_to_end("ingest_p50_us", "us", p50_us);
  report.end_to_end("ingest_p99_us", "us", p99_us);
  report.end_to_end("peak_rss_mib", "MiB", {rss});
  report.diagnostic("passes", "count", static_cast<double>(pass_on_s.size()));

  const PassCounts& c = expected;
  report.count("frames", c.frames);
  report.count("bytes", c.bytes);
  report.count("submits", c.submits);
  report.count("rejects", c.rejects);
  report.count("pumps", c.pumps);
  report.count("verdicts", c.verdicts);
  report.count("reclaimed", c.reclaimed);
  report.count("compactions", c.compactions);
  report.count("live_log_peak", c.live_log_peak);
  report.count("appends", c.appends);
  report.count("syncs", c.syncs);
  report.count("journal_bytes", c.journal_bytes);
  report.count("replayed_frames", c.replayed_frames);
  report.count("resync_attempts", c.resync_attempts);
  report.count("resync_serves", static_cast<std::uint64_t>(serves.front()));
  report.count("duplicate_reports", c.duplicate_reports);
  report.count("definite_fires", c.definite_fires);
  report.count("pending_fires", c.pending_fires);
  report.count("quarantined", c.quarantined);

  if (options.trace) {
    // Serial mirror: the decode / apply / compaction split.
    tracer.reset_totals();
    tracer.set_on(true);
    const MirrorResult mirror = run_mirror(inputs, shape, report);
    tracer.set_on(false);
    if (c.rejects == 0) {
      // Same rounds, same rule: the mirror must compact exactly as the
      // daemon did, so its compaction timings are the daemon's work.
      report.check(mirror.compactions == c.compactions &&
                       mirror.reclaimed == c.reclaimed,
                   "serial mirror compactions (" +
                       std::to_string(mirror.compactions) + ", " +
                       std::to_string(mirror.reclaimed) +
                       " reclaimed) differ from the daemon's (" +
                       std::to_string(c.compactions) + ", " +
                       std::to_string(c.reclaimed) + ")");
    }
    const double frames = static_cast<double>(inputs.frame_count());
    ledger.add_pass(mirror.wall_s,
                    {{Layer::kPeek, frames},
                     {Layer::kDecode, frames - static_cast<double>(
                                                   inputs.tenants.size())},
                     {Layer::kApply, frames - static_cast<double>(
                                                  inputs.tenants.size())},
                     {Layer::kCompact,
                      static_cast<double>(mirror.compact_calls)}});
    ledger.emit(report);
    report.diagnostic("mirror_s", "s", mirror.wall_s);
    report.diagnostic("mirror_compact_calls", "count",
                      static_cast<double>(mirror.compact_calls));

    const double submits = static_cast<double>(c.submits);
    report.layer("service.submits", "count", submits);
    report.layer("service.rejects", "count", static_cast<double>(c.rejects));
    report.layer("service.accept_ratio", "ratio",
                 submits > 0 ? static_cast<double>(c.frames) / submits : 0.0);
    report.layer("service.wait_us", "us", median(wait_p50_us));
    report.layer("service.pumps", "count", static_cast<double>(c.pumps));
    report.layer("service.frames_per_pump", "count",
                 c.pumps > 0 ? static_cast<double>(c.frames) /
                                   static_cast<double>(c.pumps)
                             : 0.0);
    report.layer("online.resync_serves", "count", serves.front());
    report.layer("online.duplicate_reports", "count",
                 static_cast<double>(c.duplicate_reports));
    report.layer("online.definite_fires", "count",
                 static_cast<double>(c.definite_fires));
    report.layer("online.pending_fires", "count",
                 static_cast<double>(c.pending_fires));
    report.layer("cuts.reclaimed_events", "count",
                 static_cast<double>(c.reclaimed));
    report.layer("cuts.compactions", "count",
                 static_cast<double>(c.compactions));
    report.layer("cuts.live_log_peak", "count",
                 static_cast<double>(c.live_log_peak));
    report.layer("store.appends", "count", static_cast<double>(c.appends));
    report.layer("store.syncs", "count", static_cast<double>(c.syncs));
    report.layer("store.bytes", "bytes", static_cast<double>(c.journal_bytes));
    report.layer("store.replayed_frames", "count",
                 static_cast<double>(c.replayed_frames));
    if (shape.restart) {
      // Recovery is set-up work: timed as one call, its share is of set-up.
      const double recover = median(recover_s);
      report.layer("store.recover_s", "s", recover);
      report.layer("store.recover.ns_per_op", "ns",
                   c.replayed_frames > 0
                       ? recover * 1e9 / static_cast<double>(c.replayed_frames)
                       : 0.0);
      report.layer("store.recover.share", "ratio", recover / median(setup_s));
    }
    report.layer("obs.histogram_samples", "count", median(hist_samples));
    const double on = median(pass_on_s);
    report.layer("obs.cost_share", "ratio",
                 on > 0 ? 1.0 - median(pass_off_s) / on : 0.0);
    report.layer("trace.overhead_s", "s", median(traced_s) - on);
  }
  pool.reset();
  return 0;
}

}  // namespace perfbench
