#include "relations/fast.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace syncon {

namespace {

// ¬≪(down, up) probed at the X side (nodes of N_X): for each i ∈ N_X the
// up-cut surface is compared against the down-cut at one integer comparison.
bool violated_at(const VectorClock& down, const VectorClock& up,
                 std::span<const ProcessId> nodes, QueryCost& counter) {
  return theorem19_violated(down, up, nodes, counter);
}

// Per-node conjunctive tests (R1/R2 via X's nodes): for every i ∈ N_X the
// single-event cut x↑ of the per-node greatest x has surface index(x) at i,
// so ¬≪(down, x↑) probed at {i} is one comparison: down[i] >= index(x)+1.
bool all_x_tests_pass(const VectorClock& down, const NonatomicEvent& x,
                      QueryCost& counter) {
  for (const ProcessId i : x.node_set()) {
    ++counter.integer_comparisons;
    if (down.at(i) < x.greatest_on(i).index + 1) return false;
  }
  return true;
}

// Dual per-node tests (R1'/R3' via Y's nodes): ↓y of the per-node least y
// has surface index(y) at j, so ¬≪(↓y, up) probed at {j} is one comparison:
// index(y)+1 >= up[j].
bool all_y_tests_pass(const VectorClock& up, const NonatomicEvent& y,
                      QueryCost& counter) {
  for (const ProcessId j : y.node_set()) {
    ++counter.integer_comparisons;
    if (y.least_on(j).index + 1 < up.at(j)) return false;
  }
  return true;
}

}  // namespace

FastDebugHooks& fast_debug_hooks() {
  static FastDebugHooks hooks;
  return hooks;
}

bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                   QueryCost& counter) {
  SYNCON_REQUIRE(&x.timestamps() == &y.timestamps(),
                 "cut timestamps of different executions");
  const NonatomicEvent& ex = x.event();
  const NonatomicEvent& ey = y.event();
  const bool x_side_smaller = ex.node_count() <= ey.node_count();

  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      // ∀x: ¬≪(∩⇓Y, x↑), or equivalently ∀y: ¬≪(↓y, ∪⇑X); pick the
      // cheaper route — min(|N_X|, |N_Y|) comparisons.
      if (x_side_smaller) {
        return all_x_tests_pass(y.intersect_past(), ex, counter);
      }
      return all_y_tests_pass(x.union_future(), ey, counter);

    case Relation::R2:
      // ∀x: ¬≪(∪⇓Y, x↑) — |N_X| comparisons. The debug hook swaps in the
      // wrong down-cut (∩⇓Y — R1's condition) for the conformance
      // subsystem's planted-bug tests.
      return all_x_tests_pass(fast_debug_hooks().wrong_r2 ? y.intersect_past()
                                                          : y.union_past(),
                              ex, counter);

    case Relation::R2p:
      // ¬≪(∪⇓Y, ∪⇑X) probed at N_Y — |N_Y| comparisons (the ∪⇑X surface
      // is not early at N_X nodes; probing N_X is unsound, DESIGN.md §3.3b).
      return violated_at(y.union_past(), x.union_future(), ey.node_set(),
                         counter);

    case Relation::R3:
      // ¬≪(∩⇓Y, ∩⇑X) probed at N_X — |N_X| comparisons (dual of R2').
      return violated_at(y.intersect_past(), x.intersect_future(),
                         ex.node_set(), counter);

    case Relation::R3p:
      // ∀y: ¬≪(↓y, ∩⇑X) — |N_Y| comparisons.
      return all_y_tests_pass(x.intersect_future(), ey, counter);

    case Relation::R4:
    case Relation::R4p:
      // ¬≪(∪⇓Y, ∩⇑X): a violation is visible at both N_X and N_Y
      // (Key Idea 2), so probe the smaller — min(|N_X|, |N_Y|).
      return violated_at(y.union_past(), x.intersect_future(),
                         x_side_smaller ? ex.node_set() : ey.node_set(),
                         counter);
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
    case Relation::R3:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2p:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return std::min(n_x, n_y);
    case Relation::R2:
      return n_x;
    case Relation::R3p:
      return n_y;
  }
  return 0;
}

}  // namespace syncon
