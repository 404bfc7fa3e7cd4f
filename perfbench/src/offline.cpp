// Offline path: trace + interval text in, all 32 relations for every
// ordered interval pair out (Problem 4 ii).
//
//   offline-pairs  P=64, ~400 events/process, 400 intervals over 12 nodes:
//                  the all-pairs sweep dominates (relations / nonatomic).
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "model/timestamps.hpp"
#include "monitor/trace_io.hpp"
#include "relations/batch.hpp"
#include "relations/evaluator.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace syncon;

struct Shape {
  std::size_t processes;
  std::size_t events_per_process;
  std::size_t intervals;
  std::size_t nodes;
};

constexpr Shape kPairs{64, 400, 400, 12};

/// Intervals whose ingest latency one pass measures (a window that rotates
/// over the intervals from pass to pass).
constexpr std::size_t kIngestSamples = 24;

/// Pool constructions timed back to back for one set-up sample.
constexpr std::size_t kSetupBlock = 8;

/// The generated inputs: the text a recorded trace would arrive as.
struct Inputs {
  std::string trace_text;
  std::string interval_text;
};

Inputs generate(const Shape& shape, std::uint64_t seed) {
  WorkloadConfig config;
  config.process_count = shape.processes;
  config.events_per_process = shape.events_per_process;
  config.topology = Topology::Random;
  config.seed = seed;
  const Execution exec = generate_execution(config);
  Xoshiro256StarStar rng(seed ^ 0x5bd1e995u);
  IntervalSpec spec;
  spec.node_count = shape.nodes;
  spec.max_events_per_node = 3;
  const std::vector<NonatomicEvent> intervals =
      random_intervals(exec, rng, spec, shape.intervals);
  Inputs inputs;
  inputs.trace_text = trace_to_string(exec);
  std::ostringstream os;
  write_intervals(os, intervals);
  inputs.interval_text = os.str();
  return inputs;
}

/// Everything one pass produced; kept alive for the output checks.
struct PassOutput {
  std::unique_ptr<Execution> exec;
  std::unique_ptr<Timestamps> ts;
  std::unique_ptr<RelationEvaluator> eval;
  BatchEvaluator::Result result;
  double pass_s = 0.0;
};

std::unique_ptr<PassOutput> run_pass(const Inputs& inputs, ThreadPool& pool,
                                     std::vector<std::int64_t>& register_ns) {
  auto out = std::make_unique<PassOutput>();
  std::istringstream trace_in(inputs.trace_text);
  std::istringstream interval_in(inputs.interval_text);

  const std::int64_t t0 = now_ns();
  {
    Span span(Layer::kParse);
    out->exec = std::make_unique<Execution>(read_trace(trace_in));
  }
  {
    Span span(Layer::kStamp);
    out->ts = std::make_unique<Timestamps>(*out->exec);
  }
  std::vector<NonatomicEvent> intervals;
  {
    Span span(Layer::kParse);
    intervals = read_intervals(interval_in, *out->exec);
  }
  out->eval = std::make_unique<RelationEvaluator>(*out->ts);
  register_ns.clear();
  for (NonatomicEvent& interval : intervals) {
    const std::int64_t a = now_ns();
    {
      Span span(Layer::kRegister);
      out->eval->add_event(std::move(interval));
    }
    register_ns.push_back(now_ns() - a);
  }
  const BatchEvaluator batch(*out->eval, &pool);
  {
    Span span(Layer::kSweep);
    out->result = batch.all_pairs(/*pruned=*/false);
  }
  out->pass_s = seconds_between(t0, now_ns());
  return out;
}

struct PassCounts {
  std::uint64_t comparisons = 0;
  std::uint64_t causality_checks = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t holding = 0;
  std::uint64_t pairs = 0;
  friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

PassCounts counts_of(const PassOutput& out) {
  return {out.result.cost.integer_comparisons,
          out.result.cost.causality_checks, out.result.evaluated_total(),
          out.result.holding_total(), out.result.pairs.size()};
}

/// Position of ordered pair (x, y) in an x-major all_pairs result.
std::size_t pair_index(std::size_t x, std::size_t y, std::size_t n) {
  return x * (n - 1) + (y < x ? y : y - 1);
}

/// Offline ingest latency of intervals [first, first + kIngestSamples)
/// (mod n): one interval record's registration, as timed in the pass, plus
/// answering all 32 relations between it and every other registered
/// interval in both argument orders, serially on the calling thread — the
/// latency from an interval arriving at an evaluator that holds the rest
/// to all of its relations being known. Each answer must equal the pass's
/// sweep; returns the number that differ. Appends each interval's latency
/// to ingest_us[interval].
std::uint64_t measure_ingest(const PassOutput& out,
                             const std::vector<std::int64_t>& register_ns,
                             std::size_t first,
                             std::vector<std::vector<double>>& ingest_us) {
  const RelationEvaluator& eval = *out.eval;
  const std::size_t n = eval.event_count();
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < kIngestSamples && n > 1; ++k) {
    const std::size_t x = (first + k) % n;
    const EventHandle hx = eval.handle_at(x);
    QueryCost cost;
    const std::int64_t a = now_ns();
    for (std::size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      const EventHandle hy = eval.handle_at(y);
      const auto xy = eval.all_holding(hx, hy, &cost);
      const auto yx = eval.all_holding(hy, hx, &cost);
      if (xy.holding != out.result.pairs[pair_index(x, y, n)].relations.holding ||
          yx.holding != out.result.pairs[pair_index(y, x, n)].relations.holding) {
        ++mismatches;
      }
    }
    ingest_us[x].push_back(
        static_cast<double>(now_ns() - a + register_ns[x]) * 1e-3);
  }
  return mismatches;
}

/// Parallel sweep == serial sweep (holding sets and exact per-pair and
/// total QueryCost), and a seeded sample of pair/relation answers equal to
/// the naive proxy quantification (Table 1 evaluated directly).
void check_output(const PassOutput& out, std::uint64_t seed, Report& report) {
  const BatchEvaluator serial(*out.eval, nullptr);
  const BatchEvaluator::Result reference = serial.all_pairs(false);
  const auto& got = out.result.pairs;
  report.check(got.size() == reference.pairs.size(),
               "parallel sweep pair count differs from serial");
  std::uint64_t pair_mismatches = 0;
  for (std::size_t i = 0; i < got.size() && i < reference.pairs.size(); ++i) {
    const auto& a = got[i];
    const auto& b = reference.pairs[i];
    if (a.x != b.x || a.y != b.y || a.relations.holding != b.relations.holding ||
        !(a.relations.cost == b.relations.cost)) {
      ++pair_mismatches;
    }
  }
  report.attempted(got.size());
  report.failed(pair_mismatches);
  report.check(pair_mismatches == 0,
               std::to_string(pair_mismatches) +
                   " pairs differ between parallel and serial sweeps");
  report.check(out.result.cost == reference.cost,
               "parallel sweep QueryCost total differs from serial");

  const std::size_t n = out.eval->event_count();
  Xoshiro256StarStar rng(seed ^ 0xc2b2ae35u);
  const std::size_t samples = 256;
  std::uint64_t answer_mismatches = 0;
  for (std::size_t s = 0; s < samples && n > 1; ++s) {
    const std::size_t x = rng.below(n);
    std::size_t y = rng.below(n - 1);
    if (y >= x) ++y;
    const BatchEvaluator::PairRelations& pair = got[pair_index(x, y, n)];
    const EventHandle hx = out.eval->handle_at(x);
    const EventHandle hy = out.eval->handle_at(y);
    report.check(pair.x == hx && pair.y == hy,
                 "all_pairs result is not in x-major order");
    for (const RelationId& id : all_relation_ids()) {
      const bool naive = evaluate_proxy_naive(
          id.relation, out.eval->proxy(hx, id.proxy_x),
          out.eval->proxy(hy, id.proxy_y), *out.ts, Semantics::Weak);
      bool fast = false;
      for (const RelationId& h : pair.relations.holding) fast |= h == id;
      if (naive != fast) ++answer_mismatches;
    }
  }
  report.attempted(samples * 32);
  report.failed(answer_mismatches);
  report.check(answer_mismatches == 0,
               std::to_string(answer_mismatches) +
                   " sampled relation answers differ from the naive oracle");
}

}  // namespace

int run_offline(const Options& options, Report& report) {
  const Shape& shape = kPairs;
  const std::size_t workers = sweep_workers();

  const std::int64_t g0 = now_ns();
  const Inputs inputs = generate(shape, options.seed);
  report.diagnostic("gen_s", "s", seconds_between(g0, now_ns()));
  report.diagnostic("pool_workers", "count", static_cast<double>(workers));

  // Set-up: the pool the sweep runs on, constructed until ready to accept
  // the first input. Timed before every pass as the mean of a short block
  // of constructions, so the samples span the run like the passes do.
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    std::vector<std::unique_ptr<ThreadPool>> pools(kSetupBlock);
    const std::int64_t s0 = now_ns();
    for (auto& block_pool : pools) {
      block_pool = std::make_unique<ThreadPool>(workers);
    }
    setup_s.push_back(seconds_between(s0, now_ns()) /
                      static_cast<double>(kSetupBlock));
  };  // teardown of the block is not set-up: untimed
  auto pool = std::make_unique<ThreadPool>(workers);

  // Warm-up pass (page cache, allocator), not measured.
  std::vector<std::int64_t> register_ns;
  std::unique_ptr<PassOutput> last = run_pass(inputs, *pool, register_ns);
  const PassCounts expected = counts_of(*last);

  Tracer& tracer = Tracer::instance();
  std::vector<double> pass_s;
  // Ingest latencies per interval record, over every pass that measured it.
  std::vector<std::vector<double>> ingest_us(shape.intervals);
  std::vector<double> traced_pass_s;
  LayerLedger ledger;
  const double parse_bytes =
      static_cast<double>(inputs.trace_text.size() + inputs.interval_text.size());
  const double clock_entries = static_cast<double>(
      last->exec->total_real_count() * last->exec->process_count());
  PassBudget budget(options.seconds, 5, 400);
  std::uint64_t count_mismatches = 0;
  std::uint64_t ingest_mismatches = 0;
  std::size_t ingest_first = 0;
  while (budget.more()) {
    // A traced run alternates plain and traced passes so the tracing
    // overhead is measured against the same conditions.
    const bool traced = options.trace && budget.passes() % 2 == 1;
    last.reset();
    if (!traced) time_setup();
    // A fresh pool every pass: where the workers land on the host is drawn
    // anew, so the median over passes does not hang on one placement.
    pool = std::make_unique<ThreadPool>(workers);
    tracer.set_on(traced);
    tracer.reset_totals();
    // The pass's serial steps and the ingest measurement run on this
    // thread; it moves to the next CPU every pass (OwnerPin). The pool is
    // made first, so its workers are not pinned.
    const OwnerPin pin(budget.passes());
    last = run_pass(inputs, *pool, register_ns);
    tracer.set_on(false);
    budget.spend(last->pass_s);
    if (!(counts_of(*last) == expected)) ++count_mismatches;
    if (traced) {
      traced_pass_s.push_back(last->pass_s);
      ledger.add_pass(last->pass_s,
                      {{Layer::kParse, parse_bytes},
                       {Layer::kStamp, clock_entries},
                       {Layer::kRegister, static_cast<double>(shape.intervals)},
                       {Layer::kSweep,
                        static_cast<double>(expected.evaluations)}});
    } else {
      pass_s.push_back(last->pass_s);
      const std::int64_t i0 = now_ns();
      ingest_mismatches +=
          measure_ingest(*last, register_ns, ingest_first, ingest_us);
      budget.spend(seconds_between(i0, now_ns()), /*pass=*/false);
      ingest_first += kIngestSamples;
    }
  }
  const double rss = peak_rss_mib();

  report.check(count_mismatches == 0,
               "deterministic counts differ between passes of one run");
  report.check(ingest_mismatches == 0,
               std::to_string(ingest_mismatches) +
                   " ingest answers differ from the pass's sweep");
  check_output(*last, options.seed, report);

  report.end_to_end("setup_s", "s", setup_s);
  report.end_to_end("pass_s", "s", pass_s);
  // Offline ingest: per interval record, registration plus all of its
  // relations answered (measure_ingest). An interval's latency is the
  // median of its measurements, so one preempted measurement does not set
  // it; the quantiles are over the interval records.
  std::vector<double> record_us;
  for (std::vector<double>& samples : ingest_us) {
    if (!samples.empty()) record_us.push_back(median(std::move(samples)));
  }
  report.end_to_end("ingest_p99_us", "us", {quantile(record_us, 0.99)});
  report.end_to_end("ingest_p50_us", "us", std::move(record_us));
  report.end_to_end("peak_rss_mib", "MiB", {rss});
  report.diagnostic("passes", "count", static_cast<double>(pass_s.size()));
  report.diagnostic("ingest_samples_per_pass", "count",
                    static_cast<double>(kIngestSamples));

  report.count("comparisons", expected.comparisons);
  report.count("causality_checks", expected.causality_checks);
  report.count("evaluations", expected.evaluations);
  report.count("holding", expected.holding);
  report.count("pairs", expected.pairs);
  report.count("parse_bytes", static_cast<std::uint64_t>(parse_bytes));
  report.count("clock_entries", static_cast<std::uint64_t>(clock_entries));

  if (options.trace) {
    ledger.emit(report);
    report.layer("monitor.parse_bytes", "bytes", parse_bytes);
    report.layer("model.clock_entries", "count", clock_entries);
    report.layer("nonatomic.intervals", "count",
                 static_cast<double>(shape.intervals));
    report.layer("relations.evaluations", "count",
                 static_cast<double>(expected.evaluations));
    report.layer("relations.comparisons", "count",
                 static_cast<double>(expected.comparisons));
    report.layer("relations.holding", "count",
                 static_cast<double>(expected.holding));
    report.layer("trace.overhead_s", "s",
                 median(traced_pass_s) - median(pass_s));
  }
  return 0;
}

}  // namespace perfbench
