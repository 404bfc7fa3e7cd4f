// Distributed mutual exclusion verification (the use case demonstrated in
// the paper's reference [11]): critical-section occupancies recorded in a
// trace are nonatomic events; pairwise exclusion is the synchronization
// condition R1(U,L)(A,B) ∨ R1(U,L)(B,A).
//
// The example builds a token-passing mutex execution, verifies it, then
// injects a faulty occupancy (a node that enters without the token) and
// shows the checker catching the overlap.
//
// Run: ./mutual_exclusion [--processes=N] [--handovers=N]
#include <cstdio>

#include <memory>
#include <string>
#include <vector>

#include "monitor/monitor.hpp"
#include "monitor/mutex_checker.hpp"
#include "support/cli.hpp"

using namespace syncon;

namespace {

struct MutexTrace {
  std::shared_ptr<const Execution> exec;
  std::vector<NonatomicEvent> occupancies;
};

// Token-ring mutex: the token visits processes round-robin; the holder's
// critical section is {acquire/receive, work, release/send}.
MutexTrace build_token_ring(std::size_t processes, std::size_t handovers,
                            bool inject_rogue) {
  ExecutionBuilder b(processes);
  struct Pending {
    std::string label;
    std::vector<EventId> events;
  };
  std::vector<Pending> pendings;

  ProcessId holder = 0;
  // First occupancy: process 0 owns the token initially.
  EventId work0 = b.local(holder);
  EventId send_event;
  MessageToken token = b.send(holder, &send_event);
  pendings.push_back({"cs/0@p0", {work0, send_event}});

  std::vector<EventId> rogue_events;
  for (std::size_t k = 1; k <= handovers; ++k) {
    const auto next = static_cast<ProcessId>((holder + 1) % processes);
    const EventId acquire = b.receive(next, token);
    const EventId work = b.local(next);
    if (inject_rogue && k == handovers / 2) {
      // A process grabs the resource without holding the token, concurrent
      // with the legitimate holder.
      const auto rogue =
          static_cast<ProcessId>((next + 1) % processes);
      rogue_events.push_back(b.local(rogue));
      rogue_events.push_back(b.local(rogue));
    }
    EventId release;
    token = b.send(next, &release);
    pendings.push_back({"cs/" + std::to_string(k) + "@p" +
                            std::to_string(next),
                        {acquire, work, release}});
    holder = next;
  }
  // Park the token so the trace closes cleanly.
  b.receive(static_cast<ProcessId>((holder + 1) % processes), token);

  MutexTrace out;
  out.exec = std::make_shared<const Execution>(b.build());
  for (Pending& p : pendings) {
    out.occupancies.emplace_back(*out.exec, std::move(p.events),
                                 std::move(p.label));
  }
  if (!rogue_events.empty()) {
    out.occupancies.emplace_back(*out.exec, std::move(rogue_events),
                                 "cs/rogue");
  }
  return out;
}

int verify(const MutexTrace& trace, const char* title) {
  SyncMonitor monitor(trace.exec);
  std::vector<std::string> labels;
  for (const NonatomicEvent& occ : trace.occupancies) {
    monitor.add_interval(occ);
    labels.push_back(occ.label());
  }
  const MutexReport report = check_mutual_exclusion(monitor, labels);
  std::printf("%s: %zu occupancies, %zu pairs checked -> %s\n", title,
              labels.size(), report.pairs_checked,
              report.ok() ? "mutual exclusion HOLDS" : "VIOLATIONS FOUND");
  for (const MutexViolation& v : report.violations) {
    std::printf("  overlap between %s and %s\n", v.first.c_str(),
                v.second.c_str());
  }
  std::printf("  cost: %llu integer comparisons total\n\n",
              static_cast<unsigned long long>(
                  monitor.evaluator().accumulated_cost().integer_comparisons));
  return report.ok() ? 0 : 1;
}

int example_main(int argc, char** argv) {
  CliParser cli("mutual_exclusion",
                "verify critical-section exclusion on token-ring traces");
  cli.add_option("processes", "4", "number of processes in the ring");
  cli.add_option("handovers", "8", "number of token handovers");
  if (!cli.parse(argc, argv)) return 1;
  const std::size_t n = cli.get_uint("processes");
  const std::size_t h = cli.get_uint("handovers");

  const int clean =
      verify(build_token_ring(n, h, /*inject_rogue=*/false), "clean trace");
  const int rogue =
      verify(build_token_ring(n, h, /*inject_rogue=*/true), "rogue trace");

  if (clean != 0) {
    std::printf("unexpected: clean trace reported a violation\n");
    return 2;
  }
  if (rogue == 0) {
    std::printf("unexpected: rogue occupancy went undetected\n");
    return 2;
  }
  std::printf("as expected: the clean trace verifies, the rogue trace is "
              "rejected.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_tool("mutual_exclusion", argc, argv, example_main);
}
