// Space-frugal alternative to EventCuts, matching the paper's §2.3 remark
// that only the |N_X| own-node components of a poset event's cut timestamps
// "need to be computed": SparseEventCuts stores nothing but the per-node
// extreme events (already inside NonatomicEvent) and derives ANY component
// of T(C1..C4) on demand from the trace's Timestamps, at |N_X| clock
// lookups per component.
//
// Trade-off (quantified in bench_table2_cut_timestamps):
//   EventCuts        O(|P|) clock values per event, O(1) per component read;
//   SparseEventCuts  O(1) extra storage,            O(|N_X|) per component.
// A pair query therefore costs Theorem-20-comparisons × |N| clock lookups —
// asymptotically the |N_X|·|N_Y| of proxy-naive, which is exactly why Key
// Idea 1 (precompute + reuse) is the right default.
#pragma once

#include "cuts/ll_relation.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "nonatomic/interval.hpp"
#include "relations/relation.hpp"

namespace syncon {

class SparseEventCuts {
 public:
  /// O(1): keeps references only.
  SparseEventCuts(const Timestamps& ts, const NonatomicEvent& x);

  const NonatomicEvent& event() const { return *event_; }
  const Timestamps& timestamps() const { return *ts_; }

  /// One component of T(Ck(X)), computed on demand (|N_X| clock lookups;
  /// each lookup is counted as one integer comparison in `counter` because
  /// the min/max fold compares once per extreme event).
  ClockValue component(PosetCut which, ProcessId i,
                       QueryCost* counter = nullptr) const;

  /// Materializes all |P| components (for cross-validation).
  VectorClock counts(PosetCut which) const;

 private:
  const Timestamps* ts_;
  const NonatomicEvent* event_;
};

/// evaluate_fast re-expressed over sparse cuts: identical verdicts, but the
/// comparison counter now reflects the on-demand component derivations.
bool evaluate_fast_sparse(Relation r, const SparseEventCuts& x,
                          const SparseEventCuts& y,
                          QueryCost& counter);

}  // namespace syncon
