// Quickstart: build a small distributed execution by hand, group events into
// two nonatomic events, and ask which of the paper's causality relations
// hold between them — both through the one-shot API and the caching
// RelationEvaluator.
//
// Run: ./quickstart
#include <cstdio>

#include "model/execution.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/evaluator.hpp"
#include "relations/fast.hpp"
#include "support/table.hpp"

using namespace syncon;

int main() {
  // Three processes. P0 computes and sends; P1 relays; P2 consumes.
  //   p0: a1 a2 s(->p1)
  //   p1: r(<-p0) b1 s(->p2)
  //   p2: c1 r(<-p1) c2
  ExecutionBuilder builder(3);
  const EventId a1 = builder.local(0);
  const EventId a2 = builder.local(0);
  const MessageToken m0 = builder.send(0);
  const EventId r1 = builder.receive(1, m0);
  const EventId b1 = builder.local(1);
  const MessageToken m1 = builder.send(1);
  const EventId c1 = builder.local(2);
  const EventId r2 = builder.receive(2, m1);
  const EventId c2 = builder.local(2);
  const Execution exec = builder.build();

  // One-time timestamping of the trace (Defns 13/14).
  const Timestamps ts(exec);

  // X = the producer-side action, Y = the consumer-side action.
  const NonatomicEvent x(exec, {a1, a2, r1, b1}, "produce");
  const NonatomicEvent y(exec, {c1, r2, c2}, "consume");

  std::printf("execution: %zu processes, %zu events, %zu messages\n",
              exec.process_count(), exec.total_real_count(),
              exec.messages().size());
  std::printf("X = '%s' spans %zu nodes; Y = '%s' spans %zu nodes\n\n",
              x.label().c_str(), x.node_count(), y.label().c_str(),
              y.node_count());

  // Low-level API: evaluate the eight Table 1 relations directly on X, Y.
  TextTable table({"relation", "meaning", "holds", "comparisons"});
  const char* meanings[] = {
      "all X before all Y", "all Y after all X",  "each x before some y",
      "some y after all X", "some x before all Y", "each y after some x",
      "some x before some y", "some y after some x"};
  const EventCuts xc(ts, x), yc(ts, y);
  int i = 0;
  for (const Relation r : kAllRelations) {
    QueryCost counter;
    const bool holds = evaluate_fast(r, xc, yc, counter);
    table.new_row()
        .add_cell(std::string(to_string(r)))
        .add_cell(std::string(meanings[i++]))
        .add_cell(holds)
        .add_cell(counter.integer_comparisons);
  }
  std::printf("Table 1 relations between X and Y (linear-time evaluation):\n");
  std::printf("%s\n", table.to_string().c_str());

  // High-level API: the 32-relation set R on proxies, with caching.
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(x);
  const auto hy = eval.add_event(y);
  const auto all = eval.all_holding(hx, hy);
  std::printf("of the 32 proxy relations, %zu hold (%zu conditions "
              "evaluated; R1' and R4' repeat R1 and R4):\n",
              all.holding.size(), all.evaluated);
  for (const RelationId& id : all.holding) {
    std::printf("  %s\n", to_string(id).c_str());
  }
  std::printf("\ntotal integer comparisons spent: %llu\n",
              static_cast<unsigned long long>(all.cost.integer_comparisons));
  return 0;
}
