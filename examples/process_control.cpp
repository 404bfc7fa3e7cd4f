// Industrial process control: a sensor → controller → actuator loop with
// feedback. Demonstrates (a) the interaction-type classifier on the loop's
// stages and (b) strict-vs-weak semantics and Defn-3 proxies on the same
// data — the API surface a control engineer would use to audit cycle
// timing from a trace.
//
// Run: ./process_control [--sensors=N] [--actuators=N] [--cycles=N]
#include <cstdio>

#include "nonatomic/cut_timestamps.hpp"
#include "relations/fast.hpp"
#include "relations/interaction_types.hpp"
#include "sim/scenarios.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace syncon;

namespace {

int example_main(int argc, char** argv) {
  CliParser cli("process_control",
                "audit control-loop cycle timing from a recorded trace");
  cli.add_option("sensors", "4", "number of sensor processes");
  cli.add_option("actuators", "2", "number of actuator processes");
  cli.add_option("cycles", "5", "number of control cycles");
  cli.add_option("seed", "7", "simulation seed");
  if (!cli.parse(argc, argv)) return 1;

  ProcessControlConfig cfg;
  cfg.sensors = cli.get_uint("sensors");
  cfg.actuators = cli.get_uint("actuators");
  cfg.cycles = cli.get_uint("cycles");
  cfg.seed = cli.get_uint("seed");

  const Scenario scenario = make_process_control(cfg);
  const Timestamps ts(scenario.execution());
  std::printf("plant: %zu sensors, 1 controller, %zu actuators; %zu cycles, "
              "%zu events\n\n",
              cfg.sensors, cfg.actuators, cfg.cycles,
              scenario.execution().total_real_count());

  // Interaction matrix of cycle-0 stages with every cycle-1 stage.
  const char* stages[] = {"sample", "compute", "actuate"};
  TextTable matrix({"interaction", "sample/1", "compute/1", "actuate/1"});
  for (const char* a : stages) {
    matrix.new_row().add_cell(std::string(a) + "/0");
    const NonatomicEvent& x = scenario.interval(std::string(a) + "/0");
    const EventCuts xc(ts, x);
    for (const char* b : stages) {
      const NonatomicEvent& y = scenario.interval(std::string(b) + "/1");
      const EventCuts yc(ts, y);
      QueryCost counter;
      const RelationProfile p = relation_profile(xc, yc, counter);
      matrix.add_cell(std::string(to_string(classify(p))) + "/" +
                      to_string(forward_grade(p)));
    }
  }
  std::printf("interaction types (class/forward-grade), cycle 0 vs cycle 1:\n%s\n",
              matrix.to_string().c_str());

  // Strict vs weak semantics on overlapping actions: compare compute/0
  // against itself extended with the command event — shared events make the
  // fast (weak) conditions differ from the strict definitions.
  const NonatomicEvent& compute0 = scenario.interval("compute/0");
  const EventCuts cc(ts, compute0);
  QueryCost counter;
  const bool weak_self = evaluate_fast(Relation::R4, cc, cc, counter);
  std::printf("R4(compute/0, compute/0): weak(⪯) = %s — every event "
              "trivially ⪯ itself;\nstrict(≺) on the same pair would be "
              "decided by the evaluator's overlap-aware fallback.\n\n",
              weak_self ? "true" : "false");

  // Defn 3 proxies: the controller's compute stage is linearly ordered, so
  // it has global extrema; a multi-sensor sample stage does not.
  const auto compute_begin = compute0.proxy_global(ProxyKind::Begin, ts);
  const auto sample_begin =
      scenario.interval("sample/0").proxy_global(ProxyKind::Begin, ts);
  std::printf("Defn-3 global begin proxy: compute/0 %s, sample/0 %s\n",
              compute_begin ? "exists (linear action)" : "missing",
              sample_begin ? "exists" : "missing (concurrent sensors)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_tool("process_control", argc, argv, example_main);
}
