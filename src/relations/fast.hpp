// The paper's contribution: linear-time evaluation of the Table 1 relations
// using the ≪ relation on cut timestamps (Table 1 third column, Theorems 19
// and 20).
//
// evaluate_fast computes the relations under Weak (⪯) semantics — exactly
// what the ≪-based conditions decide (DESIGN.md §3.3); for disjoint X and Y
// this coincides with the strict definitions.
//
// Comparison budgets (verified by instrumentation; see DESIGN.md §3.3b for
// why R2' and R3 differ from the paper's statement):
//   R1, R1', R4, R4'  —  min(|N_X|, |N_Y|)
//   R2, R3            —  |N_X|
//   R2', R3'          —  |N_Y|
#pragma once

#include <cstdint>

#include "cuts/ll_relation.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/relation.hpp"

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
FastDebugHooks& fast_debug_hooks();

/// Evaluates R(X, Y) from the cached cut timestamps of X and Y. The counter
/// accumulates one integer comparison per node probed.
bool evaluate_fast(Relation r, const EventCuts& x, const EventCuts& y,
                   QueryCost& counter);

/// Worst-case integer-comparison budget of evaluate_fast for the given node
/// set sizes (the corrected Theorem 20 bound).
std::uint64_t theorem20_bound(Relation r, std::size_t n_x, std::size_t n_y);

/// The bound as literally claimed by the paper's Theorem 20 (min() for R2'
/// and R3); kept so the benchmark can report both.
std::uint64_t theorem20_paper_bound(Relation r, std::size_t n_x,
                                    std::size_t n_y);

}  // namespace syncon
