// Online evaluation of the Table 1 relations between completed interval
// summaries, using ONLY past timestamps (what a running system can know).
//
// Cost model (verified in tests/bench; weak ⪯ semantics as usual):
//   R1, R1'  —  |N_X| comparisons      (against ∩⇓Y)
//   R2       —  |N_X| comparisons      (against ∪⇓Y)
//   R3       —  |N_X| comparisons      (against ∩⇓Y)
//   R4, R4'  —  |N_X| comparisons      (against ∪⇓Y)
//   R2'      —  |N_Y|·|N_X| comparisons (per-candidate domination test)
//   R3'      —  |N_Y|·|N_X| comparisons
//
// The offline Theorem 20 budgets for R2'/R3' rely on REVERSE timestamps
// (the ∩⇑X / ∪⇑X future cuts), which only exist once the whole trace is
// known; an online monitor fundamentally pays the quadratic corner for
// those two relations. This trade-off is this reproduction's addition to
// the paper's story (DESIGN.md §8).
#pragma once

#include "cuts/ll_relation.hpp"
#include "online/interval_tracker.hpp"
#include "relations/relation.hpp"

namespace syncon {

/// Evaluates R(X, Y) from online summaries (weak semantics).
bool evaluate_online(Relation r, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter);

/// Full 32-relation form: applies the chosen Defn-2 proxies of the
/// summaries before evaluating (r(X, Y) ≡ R(X̂, Ŷ)).
bool evaluate_online(const RelationId& id, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter);

/// Worst-case comparison budget of evaluate_online.
std::uint64_t online_cost_bound(Relation r, std::size_t n_x, std::size_t n_y);

}  // namespace syncon
