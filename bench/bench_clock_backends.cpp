// E-clock — VectorClock under scale (DESIGN.md §3.11): sweeps
// |P| = 64 / 256 / 1024 measuring
//
//   * the online monotone stamping sweep (per-process running clocks:
//     tick the owner, join the piggybacked clock), O(|P|) per receive;
//   * offline Timestamps construction (per-event stored clocks);
//   * the Theorem 19 probe over cut timestamps (component reads through
//     at(); flat in |P|);
//   * wire bytes per message for the delta codec (online/wire_codec)
//     against raw dense serialization.
//
// The stamping workload is locality-heavy: processes talk almost entirely
// within a small cluster, with rare cross-cluster messages. That keeps the
// per-message changed-set small — the regime real systems live in and the
// one the wire codec's change-list encoding exploits.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/vector_clock.hpp"
#include "obs/metrics.hpp"
#include "online/wire_codec.hpp"
#include "relations/fast.hpp"

namespace {

using namespace syncon;
using namespace syncon::bench;

constexpr int kRoundsPerProcess = 96;

// One step of the online sweep: process `p` executes an event and (src !=
// kNoSrc) absorbs the current clock of process `src`.
struct Step {
  std::uint32_t p;
  std::uint32_t src;
  static constexpr std::uint32_t kNoSrc = 0xffffffffu;
};

constexpr std::uint32_t kClusterSize = 4;

std::vector<Step> cluster_script(std::size_t procs, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Step> script;
  script.reserve(procs * kRoundsPerProcess);
  const auto n = static_cast<std::uint32_t>(procs);
  for (int round = 0; round < kRoundsPerProcess; ++round) {
    for (std::uint32_t p = 0; p < n; ++p) {
      Step s{p, Step::kNoSrc};
      const std::uint64_t roll = rng.below(512);
      const std::uint32_t base = (p / kClusterSize) * kClusterSize;
      const std::uint32_t width = std::min(kClusterSize, n - base);
      if (roll < 448) {
        // Ring neighbor within the cluster.
        s.src = base + (p - base + width - 1) % width;
        if (s.src == p) s.src = Step::kNoSrc;
      } else if (roll < 449) {
        // Rare remote contact. Kept rare on purpose: remote knowledge is
        // re-gossiped through every cluster merge, so even a 3% remote rate
        // makes each join's changed-set approach |P| within a few rounds.
        s.src = static_cast<std::uint32_t>(rng.below(procs));
        if (s.src == p) s.src = Step::kNoSrc;
      }
      script.push_back(s);
    }
  }
  return script;
}

struct SweepResult {
  std::uint64_t checksum = 0;
  double seconds = 0;  // stamping loop only — construction excluded
};

SweepResult run_sweep(std::size_t procs, const std::vector<Step>& script) {
  std::vector<VectorClock> cur(procs, VectorClock(procs, 1));
  const auto start = std::chrono::steady_clock::now();
  for (const Step& s : script) {
    VectorClock& t = cur[s.p];
    t.tick(s.p);
    if (s.src != Step::kNoSrc) t.merge_max(cur[s.src]);
  }
  const auto stop = std::chrono::steady_clock::now();
  SweepResult r;
  for (std::size_t p = 0; p < procs; ++p) r.checksum += cur[p].at(p);
  r.seconds = std::chrono::duration<double>(stop - start).count();
  return r;
}

void BM_OnlineStampSweep(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const std::vector<Step> script = cluster_script(procs, 42);
  // Manual timing: an online monitor constructs its clocks once and stamps
  // forever, so the per-iteration construction must not count.
  for (auto _ : state) {
    const SweepResult r = run_sweep(procs, script);
    benchmark::DoNotOptimize(r.checksum);
    state.SetIterationTime(r.seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(script.size()));
}

void BM_OfflineTimestamps(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const Execution exec = generate_execution(standard_workload(procs, 8));
  for (auto _ : state) {
    const Timestamps ts(exec);
    benchmark::DoNotOptimize(ts.forward_ref(exec.topological_order().back()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(exec.topological_order().size()));
}

void BM_Theorem19Probe(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const Execution exec = generate_execution(standard_workload(procs, 8));
  const Timestamps ts(exec);
  Xoshiro256StarStar rng(271);
  const NonatomicEvent x = random_interval(exec, rng, standard_spec(8, 3), "X");
  const NonatomicEvent y = random_interval(exec, rng, standard_spec(8, 3), "Y");
  const EventCuts xc(ts, x), yc(ts, y);
  QueryCost counter;
  for (auto _ : state) {
    const bool v = theorem19_violated(yc.union_past(), xc.intersect_future(),
                                      x.node_set(), counter);
    benchmark::DoNotOptimize(v);
  }
}

void BM_WireBytesPerMessage(benchmark::State& state) {
  const auto procs = static_cast<std::size_t>(state.range(0));
  const std::vector<Step> script = cluster_script(procs, 43);
  // Replay the sweep once, recording the per-process clocks message by
  // message on one link, then measure codec throughput and bytes.
  std::vector<VectorClock> cur(procs, VectorClock(procs, 1));
  std::vector<WireMessage> stream;
  for (const Step& s : script) {
    cur[s.p].tick(s.p);
    if (s.src != Step::kNoSrc) cur[s.p].merge_max(cur[s.src]);
    if (s.p == 0) {
      stream.push_back(WireMessage{
          {0, static_cast<EventIndex>(stream.size() + 1)}, cur[0]});
    }
  }
  std::size_t total_bytes = 0;
  for (auto _ : state) {
    LinkEncoder enc(procs, 16);
    std::vector<std::uint8_t> bytes;
    for (const WireMessage& m : stream) enc.encode(m, bytes);
    total_bytes = bytes.size();
    benchmark::DoNotOptimize(bytes.data());
  }
  std::size_t dense_bytes = 0;
  for (const WireMessage& m : stream) {
    dense_bytes += sizeof(EventId) + m.clock.size() * sizeof(ClockValue);
  }
  const double ratio_pct =
      100.0 * static_cast<double>(total_bytes) /
      static_cast<double>(dense_bytes == 0 ? 1 : dense_bytes);
  state.counters["bytes_per_msg"] = benchmark::Counter(
      static_cast<double>(total_bytes) / static_cast<double>(stream.size()));
  state.counters["dense_bytes_per_msg"] = benchmark::Counter(
      static_cast<double>(dense_bytes) / static_cast<double>(stream.size()));
  state.counters["delta_vs_dense_pct"] = benchmark::Counter(ratio_pct);
  // Publish the per-|P| compression ratio into the telemetry snapshot
  // (SYNCON_BENCH_JSON) alongside the codec's own frame/byte counters,
  // which the timed loop above populated via LinkEncoder::encode. Gauges
  // hold integers, so the ratio goes out in basis points (5.275% -> 528).
  if (obs::enabled()) {
    obs::MetricRegistry::global()
        .gauge("syncon_wire_delta_vs_dense_ratio_bp_p" +
               std::to_string(procs))
        .set(static_cast<std::int64_t>(std::llround(100.0 * ratio_pct)));
  }
}

void print_sweep_table() {
  banner("E-clock: bench_clock_backends", "VectorClock (DESIGN.md §3.11)",
         "online stamping sweep ns/event, |P| = 64/256/1024");
  TextTable table({"|P|", "ns/event"});
  for (const std::size_t procs : {64u, 256u, 1024u}) {
    const std::vector<Step> script = cluster_script(procs, 42);
    const int reps = procs >= 1024 ? 3 : 10;
    double seconds = 0;
    std::uint64_t sink = 0;
    for (int i = 0; i < reps; ++i) {
      const SweepResult r = run_sweep(procs, script);
      sink += r.checksum;
      seconds += r.seconds;
    }
    benchmark::DoNotOptimize(sink);
    table.new_row().add_cell(procs).add_cell(
        seconds * 1e9 / static_cast<double>(reps) /
            static_cast<double>(script.size()),
        1);
  }
  std::printf("%s\n", table.to_string().c_str());
}

BENCHMARK(BM_OnlineStampSweep)
    ->Arg(64)->Arg(256)->Arg(1024)->UseManualTime();
BENCHMARK(BM_OfflineTimestamps)->Arg(64)->Arg(256);
BENCHMARK(BM_Theorem19Probe)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireBytesPerMessage)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  print_sweep_table();
  syncon::bench::start_telemetry();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  syncon::bench::finish_telemetry("bench_clock_backends");
  benchmark::Shutdown();
  return 0;
}
