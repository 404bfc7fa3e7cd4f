// The four execution prefixes a nonatomic poset event X identifies
// (Defn 10 / Table 2) and their timestamps (Lemma 16 / Corollary 17):
//
//   C1(X) = ∩⇓X = ∩_{x∈X} ↓x   — past every x knows      (min of T(x))
//   C2(X) = ∪⇓X = ∪_{x∈X} ↓x   — past X collectively knows (max of T(x))
//   C3(X) = ∩⇑X = ∩_{x∈X} x↑   — future started by some x  (min of T(x↑))
//   C4(X) = ∪⇑X = ∪_{x∈X} x↑   — future started by all x   (max of T(x↑))
//
// EventCuts computes all four timestamps once per nonatomic event (Key Idea
// 1) touching only the per-node extreme elements of X (the end-of-§2.3
// optimization: the min is attained at per-node least events, the max at
// per-node greatest events), i.e. |N_X| event timestamps per cut instead of
// |X|. It folds the stored stamped clocks in place — no per-node
// temporaries — and applies the uniform +1 that turns F(x) into the e↑ cut
// counts once at the end (min and max commute with adding the same
// constant to every component).
#pragma once

#include <span>
#include <vector>

#include "cuts/cut.hpp"
#include "model/timestamps.hpp"
#include "model/vector_clock.hpp"
#include "nonatomic/interval.hpp"

namespace syncon {

/// Identifies one of the four special cuts of a poset event (Table 2).
enum class PosetCut {
  IntersectPast,   // C1(X) = ∩⇓X
  UnionPast,       // C2(X) = ∪⇓X
  IntersectFuture, // C3(X) = ∩⇑X
  UnionFuture,     // C4(X) = ∪⇑X
};

const char* to_string(PosetCut which);

/// The dense inputs of the Theorem 20 conditions for one event: the four
/// cut timestamps as |P|-long arrays, N_X, and per node of N_X the index + 1
/// of X's least and greatest event there (the surfaces of ↓x and x↑ that the
/// per-node tests compare against). Components are read without bounds
/// checks; EventCuts checks the sizes once, at construction. Valid while the
/// EventCuts it came from lives.
struct CutView {
  const ClockValue* counts[4];       // T(C1..C4), indexed by PosetCut
  std::span<const ProcessId> nodes;  // N_X, ascending
  const ClockValue* least_rank;      // index(least_on(nodes[k])) + 1
  const ClockValue* greatest_rank;   // index(greatest_on(nodes[k])) + 1
};

/// The cached cut timestamps of one nonatomic event. Construction costs
/// O(|N_X| · |P|) and is reused across every relation evaluation involving
/// the event (Key Idea 1).
class EventCuts {
 public:
  EventCuts(const Timestamps& ts, const NonatomicEvent& x);

  const NonatomicEvent& event() const { return *event_; }
  const Timestamps& timestamps() const { return *ts_; }

  /// T(Ck(X)) as per Corollary 17.
  const VectorClock& counts(PosetCut which) const {
    return c_[static_cast<std::size_t>(which)];
  }

  /// Materializes the chosen prefix as a Cut object.
  Cut cut(PosetCut which) const { return Cut(ts_->execution(), counts(which)); }

  /// Shorthands matching the paper's notation.
  const VectorClock& intersect_past() const { return c_[0]; }    // ∩⇓X
  const VectorClock& union_past() const { return c_[1]; }        // ∪⇓X
  const VectorClock& intersect_future() const { return c_[2]; }  // ∩⇑X
  const VectorClock& union_future() const { return c_[3]; }      // ∪⇑X

  /// The dense view the Theorem 20 conditions read (fast.hpp).
  CutView view() const {
    return CutView{{c_[0].values().data(), c_[1].values().data(),
                    c_[2].values().data(), c_[3].values().data()},
                   event_->node_set(), least_rank_.data(),
                   greatest_rank_.data()};
  }

 private:
  const Timestamps* ts_;
  const NonatomicEvent* event_;
  VectorClock c_[4];
  std::vector<ClockValue> least_rank_;     // parallel to event().node_set()
  std::vector<ClockValue> greatest_rank_;  // parallel to event().node_set()
};

/// Reference computation folding over EVERY member event with the cut
/// lattice operations (no extreme-element shortcut); used by tests to
/// validate the optimized path and Lemma 16 itself.
VectorClock poset_cut_counts_reference(const Timestamps& ts,
                                       const NonatomicEvent& x,
                                       PosetCut which);

}  // namespace syncon
