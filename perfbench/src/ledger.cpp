#include "ledger.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

namespace perfbench {

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::size_t sweep_workers() {
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(3, hw - 1);
}

namespace {

/// The CPUs this process may run on, as found before any pinning.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  return allowed;
}

}  // namespace

OwnerPin::OwnerPin(std::size_t turn) {
  const cpu_set_t& allowed = allowed_cpus();
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = static_cast<int>(turn % static_cast<std::size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

OwnerPin::~OwnerPin() {
  if (pinned_) sched_setaffinity(0, sizeof(cpu_set_t), &allowed_cpus());
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.median = quantile(values, 0.5);
  s.q1 = quantile(values, 0.25);
  s.q3 = quantile(values, 0.75);
  // Highest "nice" percentile with at least 10 samples strictly above it.
  for (const double pct : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double above = static_cast<double>(s.count) * (1.0 - pct / 100.0);
    if (above >= 10.0) {
      s.tail_pct = pct;
      s.tail = quantile(values, pct / 100.0);
      break;
    }
  }
  return s;
}

// --- tracer ----------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kParse: return "monitor.parse";
    case Layer::kStamp: return "model.stamp";
    case Layer::kRegister: return "nonatomic.register";
    case Layer::kSweep: return "relations.sweep";
    case Layer::kSubmit: return "service.submit";
    case Layer::kPump: return "service.pump";
    case Layer::kPeek: return "service.peek";
    case Layer::kDecode: return "service.decode";
    case Layer::kApply: return "online.apply";
    case Layer::kCompact: return "cuts.compact";
    case Layer::kAppend: return "store.append";
    case Layer::kSync: return "store.sync";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::open(Layer layer) {
  stack_.push_back({layer, now_ns(), 0});
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - span.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(span.layer)];
  ++t.spans;
  t.inclusive_ns += duration;
  t.self_ns += duration - span.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (kept_.size() < kKeptSpans) {
    kept_.push_back({span.start_ns, duration, span.layer,
                     static_cast<std::uint8_t>(stack_.size())});
  }
}

void Tracer::reset_totals() {
  for (Totals& t : totals_) t = Totals{};
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "layer,start_ns,duration_ns,depth\n";
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const Kept& k : kept_) {
    out << layer_name(k.layer) << ',' << (k.start_ns - origin) << ','
        << k.duration_ns << ',' << static_cast<int>(k.depth) << '\n';
  }
  return static_cast<bool>(out);
}

void LayerLedger::add_pass(double pass_s, const std::map<Layer, double>& ops) {
  const Tracer& tracer = Tracer::instance();
  for (const auto& [layer, n] : ops) {
    const Tracer::Totals& t = tracer.totals(layer);
    const double self_s = static_cast<double>(t.self_ns) * 1e-9;
    self_s_[layer].push_back(self_s);
    ns_per_op_[layer].push_back(
        n > 0 ? static_cast<double>(t.inclusive_ns) / n : 0.0);
    share_[layer].push_back(pass_s > 0 ? self_s / pass_s : 0.0);
  }
}

void LayerLedger::emit(Report& report) const {
  const auto med = [](const std::map<Layer, std::vector<double>>& m,
                      Layer layer) {
    const auto it = m.find(layer);
    return it == m.end() ? 0.0 : median(it->second);
  };
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    const std::string name = layer_name(layer);
    report.layer(name + "_s", "s", med(self_s_, layer));
    report.layer(name + ".ns_per_op", "ns", med(ns_per_op_, layer));
    report.layer(name + ".share", "ratio", med(share_, layer));
  }
}

// --- report ----------------------------------------------------------------

void Report::end_to_end(const std::string& name, const std::string& unit,
                        std::vector<double> samples) {
  Metric m;
  m.unit = unit;
  m.summary = summarize(std::move(samples));
  m.value = m.summary.median;
  end_to_end_[name] = m;
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value) {
  layers_[name] = Metric{unit, {}, value};
}

void Report::count(const std::string& name, std::uint64_t value) {
  counts_[name] = value;
}

void Report::diagnostic(const std::string& name, const std::string& unit,
                        double value) {
  diagnostics_[name] = Metric{unit, {}, value};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.push_back(what);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

/// Per-layer counts and ratios beyond the per-layer time triples. A traced
/// run reports every one of them; a workload that does not exercise a
/// layer reports 0 for it.
constexpr std::pair<const char*, const char*> kLayerFigures[] = {
    {"monitor.parse_bytes", "bytes"},    {"model.clock_entries", "count"},
    {"nonatomic.intervals", "count"},    {"relations.evaluations", "count"},
    {"relations.comparisons", "count"},  {"relations.holding", "count"},
    {"service.submits", "count"},        {"service.rejects", "count"},
    {"service.accept_ratio", "ratio"},   {"service.wait_us", "us"},
    {"service.pumps", "count"},          {"service.frames_per_pump", "count"},
    {"online.resync_serves", "count"},
    {"online.duplicate_reports", "count"},
    {"online.definite_fires", "count"},  {"online.pending_fires", "count"},
    {"cuts.reclaimed_events", "count"},  {"cuts.compactions", "count"},
    {"cuts.live_log_peak", "count"},     {"store.appends", "count"},
    {"store.syncs", "count"},            {"store.bytes", "bytes"},
    {"store.replayed_frames", "count"},  {"store.recover_s", "s"},
    {"store.recover.ns_per_op", "ns"},   {"store.recover.share", "ratio"},
    {"obs.histogram_samples", "count"},
    {"obs.cost_share", "ratio"},         {"trace.overhead_s", "s"},
};

void Report::print(bool traced) {
  if (traced) {
    for (const auto& [name, unit] : kLayerFigures) {
      if (layers_.count(name) == 0) layer(name, unit, 0.0);
    }
  }
  std::printf("%-16s %12s %12s %12s %7s %12s %7s  %s\n",
              "end-to-end", "median", "q1", "q3", "tail", "tail value",
              "samples", "unit");
  for (const auto& [name, m] : end_to_end_) {
    const Summary& s = m.summary;
    char tail[32] = "-";
    char tail_value[32] = "-";
    if (s.tail_pct > 0) {
      std::snprintf(tail, sizeof tail, "p%g", s.tail_pct);
      std::snprintf(tail_value, sizeof tail_value, "%.6g", s.tail);
    }
    std::printf("%-16s %12.6g %12.6g %12.6g %7s %12s %7zu  %s\n",
                name.c_str(), s.median, s.q1, s.q3, tail, tail_value, s.count,
                m.unit.c_str());
  }
  if (!layers_.empty()) {
    std::printf("\n%-34s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, m] : layers_) {
      std::printf("%-34s %14.6g  %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("\n%-34s %14s  %s\n", "diagnostic", "value", "unit");
  for (const auto& [name, m] : diagnostics_) {
    std::printf("%-34s %14.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-34s %14.6g  %s\n", "failed_frac", failed_frac, "ratio");
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  // Deterministic counts: one line, identical for every run of one seed.
  std::string counts = "counts {";
  bool first = true;
  for (const auto& [name, v] : counts_) {
    counts += (first ? "\"" : ", \"") + name + "\": " + std::to_string(v);
    first = false;
  }
  std::printf("%s}\n", counts.c_str());

  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    attempted_, 1));
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : traced ? layers_ : end_to_end_) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
