// Timestamping of a recorded execution: the canonical vector clocks T(e)
// (Defn 13) and the information needed for reverse timestamps T^R(e)
// (Defn 14), computed in two O(|E|·|P|) passes.
//
// Conventions (see DESIGN.md §3.1):
//  * T(e)[i] counts ALL events on process i that ⪯ e, including dummies, so
//    T(e)[proc(e)] = index(e) + 1 and T(e)[i] >= 1 for every non-dummy e.
//  * F(e)[i] ("future start") is the index on process i of the earliest
//    event that ⪰ e; sentinel total_count(i) when no such event exists
//    (which can only happen for e = ⊤_j, i != j). T^R(e)[i] =
//    total_count(i) - F(e)[i].
//  * The cut ↓e has counts T(e); the cut e↑ has counts F(e) + 1 — these are
//    the timestamps the paper derives at the end of its Section 2.3 (our
//    constants differ because we pin down dummy counting; the paper leaves
//    it implicit).
//
// The forward sweep is phrased in the monotone clock algebra — start from
// the predecessor's clock (or the all-ones floor), tick the owner, then
// join the incoming clocks — which is bit-identical to the classic "merge
// then overwrite own component" formulation (every joined clock is
// causally before e, so its own component is at most index(e)).
#pragma once

#include <vector>

#include "model/execution.hpp"
#include "model/types.hpp"
#include "model/vector_clock.hpp"

namespace syncon {

class Timestamps {
 public:
  /// Stamps every real event of `exec`. The execution must outlive this
  /// object (a reference is retained).
  explicit Timestamps(const Execution& exec);

  const Execution& execution() const { return *exec_; }

  /// T(e), Defn 13. Valid for dummy events too (computed on demand).
  VectorClock forward(EventId e) const;
  /// Reference to the stored clock; requires a real event (no copy).
  const VectorClock& forward_ref(EventId e) const;

  /// F(e): per-process index of the earliest event ⪰ e (see header note).
  VectorClock future_start(EventId e) const;
  const VectorClock& future_start_ref(EventId e) const;

  /// T^R(e), Defn 14: number of events on each process that ⪰ e.
  VectorClock reverse(EventId e) const;

  /// a ⪯ b (happened-before-or-equal), O(1) via timestamps.
  bool leq(EventId a, EventId b) const;
  /// a ≺ b (strict happened-before).
  bool lt(EventId a, EventId b) const { return a != b && leq(a, b); }
  /// Neither a ⪯ b nor b ⪯ a.
  bool concurrent(EventId a, EventId b) const {
    return !leq(a, b) && !leq(b, a);
  }

  /// Timestamp (= per-process event counts) of the cut ↓e (Defn 8).
  VectorClock past_cut_counts(EventId e) const { return forward(e); }
  /// Timestamp of the cut e↑ (Defn 9): F(e)[i] + 1 per component.
  VectorClock future_cut_counts(EventId e) const;

 private:
  const Execution* exec_;
  std::vector<VectorClock> forward_;  // by creation seq, real events
  std::vector<VectorClock> future_;   // by creation seq, real events
};

}  // namespace syncon
