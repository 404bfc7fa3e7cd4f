// E3 — reproduces Theorem 19: testing ¬≪(↓Y, X↑) needs only
// min(|N_X|, |N_Y|) integer comparisons. Sweeps |N_X| and |N_Y|
// independently, measuring worst-case comparisons against the bound and the
// wall-clock advantage over a full |P|-component scan.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cuts/ll_relation.hpp"
#include "support/stats.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr std::size_t kProcesses = 64;
constexpr std::size_t kEventsPerProcess = 80;

Substrate& substrate() {
  static Substrate s(standard_workload(kProcesses, kEventsPerProcess),
                     standard_spec(4, 4), 4, 31415);
  return s;
}

// Samples an interval pair with the requested node-set sizes and runs the
// R4-style test (cut pair ∪⇓Y vs ∩⇑X — the pair for which both probe sides
// are sound).
void print_theorem19() {
  banner("E3: bench_theorem19_ll", "Theorem 19",
         "¬≪(↓Y, X↑) cost vs min(|N_X|, |N_Y|), sweeping node-set sizes");
  Substrate& s = substrate();
  Xoshiro256StarStar rng(777);

  TextTable table({"|N_X|", "|N_Y|", "bound min()", "max cmps measured",
                   "mean cmps", "violations of bound"});
  for (const std::size_t nx : {2u, 8u, 16u, 32u, 64u}) {
    for (const std::size_t ny : {2u, 16u, 64u}) {
      IntHistogram hist;
      for (int trial = 0; trial < 300; ++trial) {
        const NonatomicEvent x =
            random_interval(s.exec, rng, standard_spec(nx, 3), "X");
        const NonatomicEvent y =
            random_interval(s.exec, rng, standard_spec(ny, 3), "Y");
        const EventCuts xc(*s.ts, x), yc(*s.ts, y);
        QueryCost counter;
        const auto& probe = x.node_count() <= y.node_count() ? x.node_set()
                                                             : y.node_set();
        (void)theorem19_violated(yc.union_past(), xc.intersect_future(),
                                 probe, counter);
        hist.add(counter.integer_comparisons);
      }
      const std::uint64_t bound = std::min(nx, ny);
      table.new_row()
          .add_cell(nx)
          .add_cell(ny)
          .add_cell(bound)
          .add_cell(hist.max_value())
          .add_cell(hist.mean(), 2)
          .add_cell(hist.count_above(bound));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void BM_LLProbeMinSide(benchmark::State& state) {
  Substrate& s = substrate();
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(1000 + n);
  const NonatomicEvent x =
      random_interval(s.exec, rng, standard_spec(n, 3), "X");
  const NonatomicEvent y =
      random_interval(s.exec, rng, standard_spec(n, 3), "Y");
  const EventCuts xc(*s.ts, x), yc(*s.ts, y);
  QueryCost counter;
  for (auto _ : state) {
    const bool v = theorem19_violated(yc.union_past(), xc.intersect_future(),
                                      x.node_set(), counter);
    benchmark::DoNotOptimize(v);
  }
}

void BM_LLFullScan(benchmark::State& state) {
  Substrate& s = substrate();
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(1000 + n);
  const NonatomicEvent x =
      random_interval(s.exec, rng, standard_spec(n, 3), "X");
  const NonatomicEvent y =
      random_interval(s.exec, rng, standard_spec(n, 3), "Y");
  const EventCuts xc(*s.ts, x), yc(*s.ts, y);
  const Cut down = yc.cut(PosetCut::UnionPast);
  const Cut up = xc.cut(PosetCut::IntersectFuture);
  for (auto _ : state) {
    const bool v = !ll(down, up);  // canonical |P|-component scan
    benchmark::DoNotOptimize(v);
  }
}

BENCHMARK(BM_LLProbeMinSide)->Arg(2)->Arg(8)->Arg(32)->Arg(64);
BENCHMARK(BM_LLFullScan)->Arg(2)->Arg(8)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  print_theorem19();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
