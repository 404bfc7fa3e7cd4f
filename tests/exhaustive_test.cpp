// Exhaustive verification on small universes: EVERY pair of nonempty event
// subsets of a small execution, for all eight relations, fast vs the
// BFS-closure oracle — no sampling, no blind spots. Complements the
// randomized sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "model/reachability.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

std::vector<EventId> all_real_events(const Execution& exec) {
  std::vector<EventId> out;
  for (ProcessId p = 0; p < exec.process_count(); ++p) {
    for (EventIndex k = 1; k <= exec.real_count(p); ++k) {
      out.push_back(EventId{p, k});
    }
  }
  return out;
}

std::vector<NonatomicEvent> all_subsets(const Execution& exec) {
  const std::vector<EventId> events = all_real_events(exec);
  std::vector<NonatomicEvent> out;
  const std::size_t n = events.size();
  // 1u << n is UB for n >= 32 and silently wraps well before the loop below
  // becomes intractable; keep the shift in std::size_t and refuse universes
  // that could not be enumerated anyway.
  SYNCON_REQUIRE(n < 20,
                 "all_subsets: universe too large for exhaustive enumeration");
  for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
    std::vector<EventId> members;
    for (std::size_t b = 0; b < n; ++b) {
      if (mask & (std::size_t{1} << b)) members.push_back(events[b]);
    }
    out.emplace_back(exec, std::move(members));
  }
  return out;
}

void exhaustive_check(const Execution& exec) {
  const Timestamps ts(exec);
  const ReachabilityOracle oracle(exec);
  const std::vector<NonatomicEvent> subsets = all_subsets(exec);
  std::vector<EventCuts> cuts;
  cuts.reserve(subsets.size());
  for (const NonatomicEvent& s : subsets) cuts.emplace_back(ts, s);

  for (std::size_t x = 0; x < subsets.size(); ++x) {
    for (std::size_t y = 0; y < subsets.size(); ++y) {
      for (const Relation r : kAllRelations) {
        QueryCost counter;
        const bool fast = evaluate_fast(r, cuts[x], cuts[y], counter);
        const bool truth =
            evaluate_oracle(r, subsets[x], subsets[y], oracle,
                            Semantics::Weak);
        ASSERT_EQ(fast, truth)
            << to_string(r) << " x=" << x << " y=" << y;
        ASSERT_LE(counter.integer_comparisons,
                  theorem20_bound(r, subsets[x].node_count(),
                                  subsets[y].node_count()));
      }
    }
  }
}

TEST(ExhaustiveTest, TwoProcessChainWithMessage) {
  // 2 processes, 5 real events, 1 message: 31 subsets, 961 pairs, 7,688
  // relation evaluations against the oracle.
  ExecutionBuilder b(2);
  b.local(0);
  const MessageToken m = b.send(0);
  b.local(1);
  b.receive(1, m);
  b.local(1);
  exhaustive_check(b.build());
}

TEST(ExhaustiveTest, ThreeProcessTriangle) {
  // 3 processes, 6 events, messages 0→1 and 1→2: 63 subsets, 3,969 pairs.
  ExecutionBuilder b(3);
  const MessageToken m1 = b.send(0);
  b.local(0);
  const EventId r1 = b.receive(1, m1);
  (void)r1;
  const MessageToken m2 = b.send(1);
  b.receive(2, m2);
  b.local(2);
  exhaustive_check(b.build());
}

TEST(ExhaustiveTest, FullyConcurrentSixEvents) {
  ExecutionBuilder b(3);
  for (ProcessId p = 0; p < 3; ++p) {
    b.local(p);
    b.local(p);
  }
  exhaustive_check(b.build());
}

TEST(ExhaustiveTest, CrossingMessages) {
  // Two messages crossing between two processes.
  ExecutionBuilder b(2);
  const MessageToken m1 = b.send(0);
  const MessageToken m2 = b.send(1);
  b.receive(0, m2);
  b.receive(1, m1);
  b.local(0);
  exhaustive_check(b.build());
}

}  // namespace
}  // namespace syncon
