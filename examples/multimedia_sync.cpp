// Distributed multimedia synchronization: a server multicasts frame groups
// to clients; the application needs fine-grained guarantees like "the
// dispatch of group k precedes every render of group k" and "group k renders
// complete before group k+2 dispatch" (a double-buffering condition) — both
// are single relation queries on nonatomic events.
//
// Run: ./multimedia_sync [--clients=N] [--groups=N] [--seed=N]
#include <cstdio>

#include "monitor/monitor.hpp"
#include "sim/scenarios.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace syncon;

namespace {

int example_main(int argc, char** argv) {
  CliParser cli("multimedia_sync",
                "check frame-group synchronization of a streaming session");
  cli.add_option("clients", "3", "number of stream clients");
  cli.add_option("groups", "6", "number of frame groups");
  cli.add_option("feedback", "2", "groups between client sync feedback");
  cli.add_option("seed", "11", "simulation seed");
  if (!cli.parse(argc, argv)) return 1;

  MultimediaConfig cfg;
  cfg.clients = cli.get_uint("clients");
  cfg.groups = cli.get_uint("groups");
  cfg.feedback_period = cli.get_uint("feedback");
  cfg.seed = cli.get_uint("seed");

  const Scenario scenario = make_multimedia(cfg);
  SyncMonitor monitor(scenario.execution_ptr());
  for (const NonatomicEvent& iv : scenario.intervals()) {
    monitor.add_interval(iv);
  }
  std::printf("stream: 1 server + %zu clients, %zu frame groups, %zu events\n\n",
              cfg.clients, cfg.groups,
              scenario.execution().total_real_count());

  // S1: dispatch/k fully precedes render/k (causal delivery).
  // S2: renders of group k are NOT internally ordered across clients
  //     (clients render independently): R3(L,L) on (render, render) false.
  // S3: double buffering: every render of group k precedes the dispatch of
  //     group k+F (the rate-adaptation feedback closes the loop every F
  //     groups): R1(U,U) between render/k and dispatch/k+F.
  TextTable table({"group", "S1 dispatch<render", "S2 clients independent",
                   "S3 closed-loop"});
  const std::size_t f = cfg.feedback_period == 0 ? 2 : cfg.feedback_period;
  bool all_ok = true;
  for (std::size_t g = 0; g < cfg.groups; ++g) {
    const std::string suffix = "/" + std::to_string(g);
    const auto dispatch = monitor.handle("dispatch" + suffix);
    const auto render = monitor.handle("render" + suffix);
    const bool s1 = monitor.check(SyncCondition::parse("R1(U,L)"), dispatch,
                                  render);
    const bool s2 =
        cfg.clients < 2 ||
        !monitor.check(SyncCondition::parse("R3(L,L)"), render, render);
    bool s3 = true;
    std::string s3_text = "n/a";
    // Groups with g % F == 0 end in client feedback, which the server folds
    // into the very next dispatch: every render of such a group precedes
    // dispatch/g+1.
    if (g % f == 0 && g + 1 < cfg.groups) {
      const auto later = monitor.handle("dispatch/" + std::to_string(g + 1));
      s3 = monitor.check(SyncCondition::parse("R2(U,U)"), render, later);
      s3_text = s3 ? "yes" : "NO";
    }
    all_ok = all_ok && s1 && s2 && s3;
    table.new_row()
        .add_cell(std::to_string(g))
        .add_cell(s1)
        .add_cell(s2)
        .add_cell(s3_text);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Which relations hold between consecutive render groups? (Problem 4 ii)
  std::printf("relations between render/0 and render/1:\n");
  for (const RelationId& id : monitor.relations_between(
           monitor.handle("render/0"), monitor.handle("render/1"))) {
    std::printf("  %s\n", to_string(id).c_str());
  }

  std::printf("\nsynchronization conditions %s.\n",
              all_ok ? "HOLD" : "VIOLATED");
  return all_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return run_tool("multimedia_sync", argc, argv, example_main);
}
