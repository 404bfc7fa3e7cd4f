// Air-defence control — the real-time application of the paper's reference
// [11]. Radars detect, a track processor fuses, a command post authorizes,
// batteries engage; the monitor then verifies the timing doctrine of every
// engagement round as synchronization conditions over nonatomic events.
//
// Run: ./air_defense [--radars=N] [--batteries=N] [--rounds=N] [--seed=N]
#include <cstdio>

#include "monitor/global_condition.hpp"
#include "monitor/monitor.hpp"
#include "sim/air_defense_des.hpp"
#include "sim/scenarios.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "timing/timing_constraints.hpp"

using namespace syncon;

namespace {

// With --des, the trace comes from the discrete-event engine (radar scan
// timers, processing delays, sampled network latencies) instead of the
// structural generator, and carries a genuine timeline.
int run_des_mode(std::size_t radars, std::size_t batteries,
                 std::size_t rounds, std::uint64_t seed, double loss) {
  AirDefenseDesConfig cfg;
  cfg.radars = radars;
  cfg.batteries = batteries;
  cfg.rounds = rounds;
  cfg.network.seed = seed;
  cfg.network.loss_probability = loss;
  const DesEngine::Result r = make_air_defense_des(cfg);
  std::printf("DES mode: %zu events over %lld µs of simulated time%s\n\n",
              r.execution->total_real_count(),
              static_cast<long long>(r.times->horizon()),
              loss > 0 ? " (lossy network)" : "");

  SyncMonitor monitor(r.execution);
  for (const NonatomicEvent& iv : r.intervals) monitor.add_interval(iv);
  monitor.attach_times(r.times);

  TextTable table({"round", "completed", "detect<engage",
                   "response (µs)", "within 60ms"});
  const TimingConstraint response{"resp", Anchor::Start, Anchor::End, 0,
                                  60'000};
  bool all_ok = true;
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::string suffix = "/" + std::to_string(k);
    const auto detect = monitor.find("detect" + suffix);
    const auto engage = monitor.find("engage" + suffix);
    if (!detect || !engage) {
      table.new_row()
          .add_cell(std::to_string(k))
          .add_cell(false)
          .add_cell(std::string("-"))
          .add_cell(std::string("-"))
          .add_cell(std::string("-"));
      all_ok = false;
      continue;
    }
    const bool ordered = monitor.check("R1(U,L)", "detect" + suffix,
                                       "engage" + suffix);
    const auto timing =
        monitor.check_deadline(response, "detect" + suffix, "engage" + suffix);
    all_ok = all_ok && ordered && timing.satisfied;
    table.new_row()
        .add_cell(std::to_string(k))
        .add_cell(true)
        .add_cell(ordered)
        .add_cell(static_cast<std::int64_t>(timing.measured_gap))
        .add_cell(timing.satisfied);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("doctrine %s on this simulated run.\n",
              all_ok ? "HOLDS" : "IS VIOLATED (lost rounds or deadline)");
  return all_ok ? 0 : 2;
}

int example_main(int argc, char** argv) {
  CliParser cli("air_defense",
                "verify engagement doctrine on a simulated air-defence run");
  cli.add_option("radars", "3", "number of radar processes");
  cli.add_option("batteries", "2", "number of battery processes");
  cli.add_option("rounds", "4", "number of engagement rounds");
  cli.add_option("seed", "42", "simulation seed");
  cli.add_flag("des", "use the discrete-event engine (true timeline)");
  cli.add_option("loss", "0.0", "message loss probability (with --des)");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_flag("des")) {
    return run_des_mode(cli.get_uint("radars"), cli.get_uint("batteries"),
                        cli.get_uint("rounds"), cli.get_uint("seed"),
                        cli.get_double("loss"));
  }

  AirDefenseConfig cfg;
  cfg.radars = cli.get_uint("radars");
  cfg.batteries = cli.get_uint("batteries");
  cfg.rounds = cli.get_uint("rounds");
  cfg.seed = cli.get_uint("seed");

  const Scenario scenario = make_air_defense(cfg);
  std::printf("scenario '%s': %zu processes, %zu events, %zu intervals\n\n",
              scenario.name().c_str(), scenario.execution().process_count(),
              scenario.execution().total_real_count(),
              scenario.intervals().size());

  SyncMonitor monitor(scenario.execution_ptr());
  for (const NonatomicEvent& iv : scenario.intervals()) {
    monitor.add_interval(iv);
  }

  // The engagement doctrine, stated as synchronization conditions:
  //  D1: detection completes before any engagement starts   R1(U,L)
  //  D2: command decides before every battery fires          R1(U,L)
  //  D3: no battery engages before its round's track fusion  !R4 reversed
  const SyncCondition d1 = SyncCondition::parse("R1(U,L)");
  const SyncCondition d3 = SyncCondition::parse("R4(L,U)");

  TextTable table({"round", "detect<engage", "decide<engage",
                   "engage-before-track?", "verdict"});
  bool all_ok = true;
  for (std::size_t k = 0; k < cfg.rounds; ++k) {
    const std::string suffix = "/" + std::to_string(k);
    const auto detect = monitor.handle("detect" + suffix);
    const auto track = monitor.handle("track" + suffix);
    const auto decide = monitor.handle("decide" + suffix);
    const auto engage = monitor.handle("engage" + suffix);
    const bool c1 = monitor.check(d1, detect, engage);
    const bool c2 = monitor.check(d1, decide, engage);
    const bool c3 = monitor.check(d3, engage, track);  // must be false
    const bool ok = c1 && c2 && !c3;
    all_ok = all_ok && ok;
    table.new_row()
        .add_cell(std::to_string(k))
        .add_cell(c1)
        .add_cell(c2)
        .add_cell(c3)
        .add_cell(std::string(ok ? "OK" : "VIOLATED"));
  }
  std::printf("%s\n", table.to_string().c_str());

  // Cross-round pipelining: consecutive detection waves need not be ordered
  // (radars keep scanning), but decisions serialize through the command post.
  std::printf("cross-round structure:\n");
  for (std::size_t k = 0; k + 1 < cfg.rounds; ++k) {
    const std::string a = "decide/" + std::to_string(k);
    const std::string b = "decide/" + std::to_string(k + 1);
    std::printf("  %s fully-before %s : %s\n", a.c_str(), b.c_str(),
                monitor.check("R1(U,L)", a, b) ? "yes" : "no");
  }

  // The same doctrine as ONE multi-interval specification (GlobalCondition):
  // readable, storable, and checked in a single call.
  std::string spec;
  for (std::size_t k = 0; k < cfg.rounds; ++k) {
    const std::string r = std::to_string(k);
    if (!spec.empty()) spec += " & ";
    spec += "R1[U,L](detect/" + r + ", engage/" + r + ") & !R4[L,U](engage/" +
            r + ", detect/" + r + ")";
  }
  const GlobalCondition doctrine = GlobalCondition::parse(spec);
  std::printf("single-specification doctrine over %zu intervals: %s\n\n",
              doctrine.labels().size(),
              doctrine.evaluate(monitor) ? "HOLDS" : "VIOLATED");

  // Quantitative layer: detect→engage response time per round against a
  // 50ms deadline (synthetic wall clock drawn over the causal structure).
  TimingModel model;
  model.mean_step = 800;      // µs of local processing between events
  model.min_latency = 300;    // network latency window
  model.max_latency = 4000;
  model.seed = cfg.seed;
  const PhysicalTimes times = assign_times(scenario.execution(), model);
  LatencyProfile response(TimingConstraint{
      "detect→engage", Anchor::Start, Anchor::End, 0, 50'000});
  TextTable timing({"round", "detect start (µs)", "engage end (µs)",
                    "response (µs)", "within 50ms"});
  for (std::size_t k = 0; k < cfg.rounds; ++k) {
    const NonatomicEvent& d = scenario.interval("detect/" + std::to_string(k));
    const NonatomicEvent& e = scenario.interval("engage/" + std::to_string(k));
    const auto result = check_constraint(times, response.constraint(), d, e);
    response.record(times, d, e);
    timing.new_row()
        .add_cell(std::to_string(k))
        .add_cell(static_cast<std::int64_t>(start_time(times, d)))
        .add_cell(static_cast<std::int64_t>(end_time(times, e)))
        .add_cell(static_cast<std::int64_t>(result.measured_gap))
        .add_cell(result.satisfied);
  }
  std::printf("\nresponse-time analysis (synthetic wall clock):\n%s",
              timing.to_string().c_str());
  std::printf("p50 = %.0f µs, worst = %lld µs, violations = %zu/%zu\n",
              response.quantile(0.5),
              static_cast<long long>(response.worst_gap()),
              response.violations(), response.samples());

  std::printf("\ndoctrine %s on this trace.\n",
              all_ok ? "HOLDS" : "IS VIOLATED");
  return all_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return run_tool("air_defense", argc, argv, example_main);
}
