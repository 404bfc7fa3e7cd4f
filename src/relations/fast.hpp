// The paper's contribution: linear-time evaluation of the Table 1 relations
// using the ≪ relation on cut timestamps (Table 1 third column, Theorems 19
// and 20).
//
// evaluate_fast computes the relations under Weak (⪯) semantics — exactly
// what the ≪-based conditions decide (DESIGN.md §3.3); for disjoint X and Y
// this coincides with the strict definitions.
//
// The six distinct conditions (R1 ≡ R1', R2, R2', R3, R3', R4 ≡ R4') are
// written once, below, as inline functions over the dense CutView of X and
// of Y. evaluate_fast answers one relation with them; evaluate_all_fast
// runs them for the four proxy combinations of a pair (24 evaluations) and
// returns the 32-relation holding set.
//
// Comparison budgets (verified by instrumentation; see DESIGN.md §3.3b for
// why R2' and R3 differ from the paper's statement):
//   R1, R1', R4, R4'  —  min(|N_X|, |N_Y|)
//   R2, R3            —  |N_X|
//   R2', R3'          —  |N_Y|
#pragma once

#include <array>
#include <cstdint>

#include "cuts/ll_relation.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/relation.hpp"
#include "support/contracts.hpp"

namespace syncon {

/// Test-only fault injection for the conformance subsystem (src/check): the
/// shrinker's own test suite plants a deliberately wrong condition here and
/// asserts the differential fuzzer finds it and minimizes the failing trace.
/// Off by default; never enable outside tests.
struct FastDebugHooks {
  /// Evaluate R2 with ∩⇓Y in place of ∪⇓Y (R1's down-cut — a strictly
  /// stronger condition, so the fast path under-reports R2).
  bool wrong_r2 = false;
};
inline FastDebugHooks& fast_debug_hooks() {
  static FastDebugHooks hooks;
  return hooks;
}

namespace fast_detail {

inline const ClockValue* cut(const CutView& v, PosetCut which) {
  return v.counts[static_cast<std::size_t>(which)];
}

// Per-node conjunctive tests via X's nodes: for every i ∈ N_X the
// single-event cut x↑ of the per-node greatest x has surface index(x) at i,
// so ¬≪(down, x↑) probed at {i} is one comparison: down[i] >= index(x)+1.
inline bool all_x_tests_pass(const ClockValue* down, const CutView& x,
                             QueryCost& counter) {
  for (std::size_t k = 0; k < x.nodes.size(); ++k) {
    ++counter.integer_comparisons;
    if (down[x.nodes[k]] < x.greatest_rank[k]) return false;
  }
  return true;
}

// Dual per-node tests via Y's nodes: ↓y of the per-node least y has surface
// index(y) at j, so ¬≪(↓y, up) probed at {j} is one comparison:
// index(y)+1 >= up[j].
inline bool all_y_tests_pass(const ClockValue* up, const CutView& y,
                             QueryCost& counter) {
  for (std::size_t k = 0; k < y.nodes.size(); ++k) {
    ++counter.integer_comparisons;
    if (y.least_rank[k] < up[y.nodes[k]]) return false;
  }
  return true;
}

}  // namespace fast_detail

/// R1 ≡ R1': ∀x: ¬≪(∩⇓Y, x↑), or equivalently ∀y: ¬≪(↓y, ∪⇑X); the
/// cheaper route — min(|N_X|, |N_Y|) comparisons.
inline bool r1_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  if (x.nodes.size() <= y.nodes.size()) {
    return all_x_tests_pass(cut(y, PosetCut::IntersectPast), x, counter);
  }
  return all_y_tests_pass(cut(x, PosetCut::UnionFuture), y, counter);
}

/// R2: ∀x: ¬≪(∪⇓Y, x↑) — |N_X| comparisons. The debug hook swaps in the
/// wrong down-cut (∩⇓Y — R1's condition) for the conformance subsystem's
/// planted-bug tests.
inline bool r2_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  return all_x_tests_pass(cut(y, fast_debug_hooks().wrong_r2
                                     ? PosetCut::IntersectPast
                                     : PosetCut::UnionPast),
                          x, counter);
}

/// R2': ¬≪(∪⇓Y, ∪⇑X) probed at N_Y — |N_Y| comparisons (the ∪⇑X surface is
/// not early at N_X nodes; probing N_X is unsound, DESIGN.md §3.3b).
inline bool r2p_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  return theorem19_violated(cut(y, PosetCut::UnionPast),
                            cut(x, PosetCut::UnionFuture), y.nodes, counter);
}

/// R3: ¬≪(∩⇓Y, ∩⇑X) probed at N_X — |N_X| comparisons (dual of R2').
inline bool r3_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  return theorem19_violated(cut(y, PosetCut::IntersectPast),
                            cut(x, PosetCut::IntersectFuture), x.nodes,
                            counter);
}

/// R3': ∀y: ¬≪(↓y, ∩⇑X) — |N_Y| comparisons.
inline bool r3p_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  return all_y_tests_pass(cut(x, PosetCut::IntersectFuture), y, counter);
}

/// R4 ≡ R4': ¬≪(∪⇓Y, ∩⇑X); a violation is visible at both N_X and N_Y
/// (Key Idea 2), so probe the smaller — min(|N_X|, |N_Y|).
inline bool r4_holds(const CutView& x, const CutView& y, QueryCost& counter) {
  using namespace fast_detail;
  return theorem19_violated(
      cut(y, PosetCut::UnionPast), cut(x, PosetCut::IntersectFuture),
      x.nodes.size() <= y.nodes.size() ? x.nodes : y.nodes, counter);
}

/// R(X, Y) from the dense views of X and Y. The counter accumulates one
/// integer comparison per node probed.
inline bool evaluate_fast(Relation r, const CutView& x, const CutView& y,
                          QueryCost& counter) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      return r1_holds(x, y, counter);
    case Relation::R2:
      return r2_holds(x, y, counter);
    case Relation::R2p:
      return r2p_holds(x, y, counter);
    case Relation::R3:
      return r3_holds(x, y, counter);
    case Relation::R3p:
      return r3p_holds(x, y, counter);
    case Relation::R4:
    case Relation::R4p:
      return r4_holds(x, y, counter);
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

/// Evaluates R(X, Y) from the cached cut timestamps of X and Y.
bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                   QueryCost& counter);

/// Conditions evaluate_all_fast evaluates per pair: 6 distinct ones for
/// each of the 4 proxy combinations.
inline constexpr std::size_t kFusedEvaluations = 24;

/// Problem 4(ii) for one pair: the 32-relation holding set of (X, Y) from
/// the views of each side's two proxies (indexed by ProxyKind). Runs the six
/// distinct conditions once per proxy combination — 24 evaluations; R1' and
/// R4' take the answers of R1 and R4.
RelationSet evaluate_all_fast(const std::array<CutView, 2>& x,
                              const std::array<CutView, 2>& y,
                              QueryCost& counter);

/// Worst-case integer-comparison budget of evaluate_fast for the given node
/// set sizes (the corrected Theorem 20 bound).
std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y);

/// The bound as literally claimed by the paper's Theorem 20 (min() for R2'
/// and R3); kept so the benchmark can report both.
std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y);

}  // namespace syncon
