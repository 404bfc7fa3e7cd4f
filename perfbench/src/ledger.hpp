// Measurement plumbing shared by every workload of the benchmark program:
// a monotonic clock, sample sets with median / tail summaries, the traced
// run's span recorder (per-layer self time, ns per operation, share of the
// measuring pass), and the report that prints every metric by name with
// its unit and ends stdout with one JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Peak resident set size of this process in MiB (getrusage high water).
double peak_rss_mib();

/// Worker threads for the pool of an offline sweep: min(3, hw - 1).
/// BatchEvaluator splits a sweep into thread_count() shards and runs shard 0
/// on the caller, so one worker stays idle and at most min(3, hw - 1)
/// threads compute at once. That leaves one hardware thread to the OS and
/// the harness, so the sweep's barrier does not wait on a preempted shard.
std::size_t sweep_workers();

/// Pins the calling thread to one CPU of the process's allowed set while
/// alive, chosen round-robin by `turn`; restores the whole set on exit.
///
/// On a shared host the vCPUs run at different speeds at one time (what
/// their hardware siblings run differs), and a thread left alone stays on
/// one or two of them for a whole run. Serial work measured on the owner
/// thread then took the speed of whichever vCPU it drew: offline ingest of
/// one seed moved by 14% between runs while pass_s held. Moving the owner
/// to the next CPU every pass gives every run the same mix of vCPUs.
/// Threads inherit the mask of the thread that creates them, so pools are
/// created before the pin.
class OwnerPin {
 public:
  explicit OwnerPin(std::size_t turn);
  ~OwnerPin();
  OwnerPin(const OwnerPin&) = delete;
  OwnerPin& operator=(const OwnerPin&) = delete;

 private:
  bool pinned_ = false;
};

/// Order statistics over one metric's samples.
struct Summary {
  double median = 0.0;
  /// Highest percentile p (in %) that leaves at least 10 samples above it;
  /// 0 when there are fewer than 11 samples.
  double tail_pct = 0.0;
  double tail = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t count = 0;
};

/// q-quantile of `values` (linear interpolation, q in [0, 1]). Reorders.
double quantile(std::vector<double>& values, double q);
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);

// --- traced run ------------------------------------------------------------

/// Layers the traced run attributes time to. Names match the per-layer
/// metric prefixes in BENCHMARK.json.
enum class Layer : std::uint8_t {
  kParse,      // monitor.parse    read_trace / read_intervals
  kStamp,      // model.stamp      Timestamps construction
  kRegister,   // nonatomic.register  RelationEvaluator::add_event
  kSweep,      // relations.sweep  BatchEvaluator::all_pairs
  kSubmit,     // service.submit   MonitorDaemon::submit (self)
  kPump,       // service.pump     MonitorDaemon::pump
  kPeek,       // service.peek     peek_frame (serial mirror)
  kDecode,     // service.decode   TenantStreamDecoder::decode (mirror)
  kApply,      // online.apply     TenantSessionCore::apply (mirror)
  kCompact,    // cuts.compact     TenantSessionCore::compact_at_pin (mirror)
  kAppend,     // store.append     StorageBackend::append (decorator)
  kSync,       // store.sync       StorageBackend::sync (decorator)
  kCount
};

const char* layer_name(Layer layer);

/// Records spans around layer calls while enabled. Aggregates exact
/// per-layer totals and self time (inclusive minus enclosed child spans)
/// over every span, and keeps the first `kKeptSpans` spans verbatim for the
/// span file written at exit. Single-threaded: spans are opened on the
/// owner thread only.
class Tracer {
 public:
  struct Totals {
    std::uint64_t spans = 0;
    std::int64_t inclusive_ns = 0;
    std::int64_t self_ns = 0;
  };

  static Tracer& instance();

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void open(Layer layer);
  void close();

  /// Per-layer totals since the last reset_totals(); kept spans survive.
  const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  void reset_totals();

  /// Writes kept spans as CSV (layer,start_ns,duration_ns,depth).
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kKeptSpans = 1u << 18;
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Kept {
    std::int64_t start_ns;
    std::int64_t duration_ns;
    Layer layer;
    std::uint8_t depth;
  };

  bool on_ = false;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  Totals totals_[static_cast<std::size_t>(Layer::kCount)] = {};
};

/// RAII span; a no-op (one branch) while tracing is off.
class Span {
 public:
  explicit Span(Layer layer) : on_(Tracer::instance().on()) {
    if (on_) Tracer::instance().open(layer);
  }
  ~Span() {
    if (on_) Tracer::instance().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Per-layer figures of the traced passes: per-pass medians of self time
/// and operation counts, plus the measuring pass's wall time.
class LayerLedger {
 public:
  /// Folds the tracer totals of one traced pass that took `pass_s` wall
  /// seconds and performed `ops[layer]` operations per layer.
  void add_pass(double pass_s,
                const std::map<Layer, double>& ops);

  /// Emits `<layer>_s`, `<layer>.ns_per_op` and `<layer>.share` for every
  /// layer (zeros for layers this workload does not exercise).
  void emit(Report& report) const;

 private:
  std::map<Layer, std::vector<double>> self_s_;
  std::map<Layer, std::vector<double>> ns_per_op_;
  std::map<Layer, std::vector<double>> share_;
};

// --- report ----------------------------------------------------------------

class Report {
 public:
  /// An end-to-end metric: its reported value is the median of `samples`.
  void end_to_end(const std::string& name, const std::string& unit,
                  std::vector<double> samples);
  /// A per-layer metric (one value; already a per-pass median).
  void layer(const std::string& name, const std::string& unit, double value);
  /// A deterministic count that must repeat exactly for a given seed.
  void count(const std::string& name, std::uint64_t value);
  /// A diagnostic printed but not part of the result line.
  void diagnostic(const std::string& name, const std::string& unit,
                  double value);
  /// Records one verification outcome; any failure clears `correct`.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return correct_; }

  /// Prints the human-readable tables and, last, the JSON result line with
  /// the end-to-end metrics (trace off) or the per-layer metrics (trace on,
  /// zero-filled for layers the workload does not exercise).
  void print(bool traced);

 private:
  struct Metric {
    std::string unit;
    Summary summary;
    double value = 0.0;
  };
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, Metric> diagnostics_;
  std::map<std::string, std::uint64_t> counts_;
  std::vector<std::string> failures_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // span files of traced runs ("" = none)
};

/// Keeps a measuring loop going: at least `min_passes`, then until the
/// budget of `seconds` of measured time is spent (or `max_passes`).
class PassBudget {
 public:
  PassBudget(double seconds, std::size_t min_passes, std::size_t max_passes)
      : seconds_(seconds), min_(min_passes), max_(max_passes) {}
  bool more() const {
    return passes_ < min_ || (passes_ < max_ && spent_ < seconds_);
  }
  /// Counts `s` measured seconds; `pass` = false for set-up time that is
  /// measured alongside a pass.
  void spend(double s, bool pass = true) {
    spent_ += s;
    passes_ += pass ? 1 : 0;
  }
  std::size_t passes() const { return passes_; }

 private:
  double seconds_;
  std::size_t min_;
  std::size_t max_;
  double spent_ = 0.0;
  std::size_t passes_ = 0;
};

int run_offline(const Options& options, Report& report);
int run_daemon(const Options& options, Report& report);

}  // namespace perfbench
