// E8 — end-to-end scaling implied by the abstract's efficiency claim:
// relation-evaluation cost as the system grows. Sweeps the process count
// and the interval node-spans, reporting operations per query for the
// |X|·|Y| naive, |N_X|·|N_Y| proxy-naive and linear fast tiers, including
// where the tiers' costs cross over.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

void print_scaling() {
  banner("E8: bench_scaling", "abstract / Section 1 efficiency claim",
         "operation counts per relation query as |N_X| = |N_Y| grows");
  TextTable table({"|P|", "|N|", "|X| events", "naive checks",
                   "proxy checks", "fast cmps", "fast vs proxy", "fast vs naive"});
  for (const std::size_t processes : {8u, 16u, 32u, 64u, 128u}) {
    Substrate s(standard_workload(processes, 60, 7000 + processes),
                standard_spec(2, 2), 2, 1);
    const std::size_t span = processes / 2;
    Xoshiro256StarStar rng(17);
    QueryCost naive_c, proxy_c, fast_c;
    std::size_t x_events = 0;
    const int kTrials = 100;
    for (int t = 0; t < kTrials; ++t) {
      const NonatomicEvent x =
          random_interval(s.exec, rng, standard_spec(span, 4), "X");
      const NonatomicEvent y =
          random_interval(s.exec, rng, standard_spec(span, 4), "Y");
      x_events += x.size();
      const EventCuts xc(*s.ts, x), yc(*s.ts, y);
      for (const Relation r : kAllRelations) {
        (void)evaluate_naive(r, x, y, *s.ts, Semantics::Weak, &naive_c);
        (void)evaluate_proxy_naive(r, x, y, *s.ts, Semantics::Weak,
                                   &proxy_c);
        (void)evaluate_fast(r, xc, yc, fast_c);
      }
    }
    const double queries = kTrials * 8.0;
    const double naive = static_cast<double>(naive_c.causality_checks) / queries;
    const double proxy = static_cast<double>(proxy_c.causality_checks) / queries;
    const double fast = static_cast<double>(fast_c.integer_comparisons) / queries;
    table.new_row()
        .add_cell(processes)
        .add_cell(span)
        .add_cell(static_cast<double>(x_events) / kTrials, 1)
        .add_cell(naive, 1)
        .add_cell(proxy, 1)
        .add_cell(fast, 1)
        .add_cell(proxy / fast, 1)
        .add_cell(naive / fast, 1);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected shape: fast stays linear in |N|, so 'fast vs proxy' "
              "grows ~linearly with |N|\nand 'fast vs naive' faster still "
              "(|X| > |N_X|).\n\n");

  // Characterize the workloads so the numbers above are interpretable.
  TextTable traits({"|P|", "events", "msg density", "concurrency",
                    "critical path", "parallelism"});
  for (const std::size_t processes : {8u, 32u, 128u}) {
    Substrate s(standard_workload(processes, 60, 7000 + processes),
                standard_spec(2, 2), 2, 1);
    const ExecutionMetrics m = measure_execution(*s.ts, 10000, 5);
    traits.new_row()
        .add_cell(processes)
        .add_cell(m.events)
        .add_cell(m.message_density, 2)
        .add_cell(m.concurrency_ratio, 2)
        .add_cell(m.critical_path)
        .add_cell(m.parallelism, 1);
  }
  std::printf("workload characterization:\n%s\n", traits.to_string().c_str());
}

// Wall-clock per query at growing scale, all tiers.
void BM_QueryAtScale(benchmark::State& state) {
  const auto processes = static_cast<std::size_t>(state.range(0));
  const int tier = static_cast<int>(state.range(1));  // 0 naive 1 proxy 2 fast
  static std::vector<std::unique_ptr<Substrate>> cache;
  Substrate* sub = nullptr;
  for (auto& c : cache) {
    if (c->exec.process_count() == processes) sub = c.get();
  }
  if (sub == nullptr) {
    cache.push_back(std::make_unique<Substrate>(
        standard_workload(processes, 60, 7000 + processes),
        standard_spec(processes / 2, 4), 8, 3));
    sub = cache.back().get();
  }
  const NonatomicEvent& x = sub->intervals[0];
  const NonatomicEvent& y = sub->intervals[1];
  const EventCuts xc(*sub->ts, x), yc(*sub->ts, y);
  QueryCost counter;
  int r = 0;
  for (auto _ : state) {
    const auto rel = static_cast<Relation>(r);
    bool v = false;
    switch (tier) {
      case 0:
        v = evaluate_naive(rel, x, y, *sub->ts, Semantics::Weak);
        break;
      case 1:
        v = evaluate_proxy_naive(rel, x, y, *sub->ts, Semantics::Weak);
        break;
      default:
        v = evaluate_fast(rel, xc, yc, counter);
    }
    benchmark::DoNotOptimize(v);
    r = (r + 1) % 8;
  }
  static const char* tiers[] = {"naive", "proxy", "fast"};
  state.SetLabel(std::string(tiers[tier]) + " |P|=" +
                 std::to_string(processes));
}

void register_scaling() {
  for (const std::int64_t p : {16, 64, 128}) {
    for (const std::int64_t tier : {0, 1, 2}) {
      benchmark::RegisterBenchmark("query_at_scale", BM_QueryAtScale)
          ->Args({p, tier});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_scaling();
  register_scaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
