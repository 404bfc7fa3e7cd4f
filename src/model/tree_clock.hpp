// Tree clock backend of the clock concept (model/clock.hpp), after "A Tree
// Clock Data Structure for Causal Orderings" (arXiv 2201.06325).
//
// A TreeClock stores the same |P| components as a dense VectorClock, but
// arranges the processes as a rooted tree that records *how* the owner
// learned each component: a child v of node u means u's process learned v's
// current value from v's process when u's local clock read aclk(v). That
// provenance makes the monotone join (merge_max during a stamping sweep)
// sublinear: while traversing the source clock top-down,
//
//   * if the target already knows the source's root at its current time,
//     the whole join is a no-op (vector clock property: component p >= t
//     implies the clock dominates everything p knew at its local time t);
//   * any subtree whose root is already known is pruned the same way;
//   * a node's children are kept sorted by aclk descending, so the scan of
//     a child list stops at the first child attached before the time the
//     target already knows — the remaining siblings are all stale.
//
// The pruning argument is only valid for clocks whose components carry that
// causal meaning. A TreeClock therefore tracks a `causal()` bit: the
// all-ones floor construction (fill == 1), copies, tick() and merge_max()
// of causal clocks keep it; any other fill, set(), merge_min() and
// from_dense() clear it, demoting the clock to dense O(|P|)
// fallback scans (still bit-identical in value to VectorClock — only the
// cost model changes). This matches the paper's usage: the forward
// (monotone) stamping sweep — floor, tick the owner, then join the
// predecessors, in that order — stays causal and fast, while the backward
// merge_min pass and arbitrary cut arithmetic run dense.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <vector>

#include "model/types.hpp"
#include "model/vector_clock.hpp"

namespace syncon {

class TreeClock {
 public:
  TreeClock() = default;
  /// All components initialized to `fill`. The clock starts causal only
  /// for the fill == 1 floor (component p = 1 means "just ⊥_p", which
  /// every stamped clock dominates; other fills assert knowledge that was
  /// never absorbed, so they start on the dense fallback paths).
  explicit TreeClock(std::size_t size, ClockValue fill = 0);

  std::size_t size() const { return nodes_.size(); }
  ClockValue at(std::size_t i) const;

  /// Arbitrary component write; demotes the clock to non-causal.
  void set(std::size_t i, ClockValue v);
  /// Advances component i by one and re-roots the tree at i. Contract (see
  /// model/clock.hpp): the clock must currently hold exactly process i's
  /// knowledge — which is precisely the stamping invariant.
  void tick(std::size_t i);

  /// Join. Sublinear pruned traversal when both sides are causal; dense
  /// componentwise scan otherwise.
  void merge_max(const TreeClock& other);
  /// Meet. Always a dense scan; the result is non-causal (a componentwise
  /// min does not dominate anyone's knowledge).
  void merge_min(const TreeClock& other);

  bool leq(const TreeClock& other) const;
  bool lt(const TreeClock& other) const;
  bool incomparable(const TreeClock& other) const;

  VectorClock to_dense() const;
  static TreeClock from_dense(const VectorClock& dense);

  /// True while the pruned-join fast path is valid (diagnostics/tests).
  bool causal() const { return causal_; }
  /// Process at the tree's root (= the clock's owner after a tick).
  ProcessId root() const { return root_; }

  /// Equality is value equality — two tree clocks with different learning
  /// histories but equal components compare equal.
  friend bool operator==(const TreeClock& a, const TreeClock& b);

 private:
  static constexpr ProcessId kNone = std::numeric_limits<ProcessId>::max();

  /// One node per process; tree links are process ids.
  struct Node {
    ClockValue clk = 0;   // component value
    ClockValue aclk = 0;  // parent's clk when this node was attached
    ProcessId parent = kNone;
    ProcessId first_child = kNone;
    ProcessId next = kNone;  // sibling links, sorted by aclk descending
    ProcessId prev = kNone;
  };

  void detach(ProcessId q);
  void attach_front(ProcessId q, ProcessId parent, ClockValue aclk);
  /// Inserts q as a child of parent directly after `cursor` (kNone =
  /// front); used to keep join-attached children in descending aclk order.
  void attach_after(ProcessId q, ProcessId parent, ClockValue aclk,
                    ProcessId cursor);
  void dense_max(const TreeClock& other);
  /// Pruned top-down visit of other's subtree rooted at q. Returns true if
  /// q was updated (and therefore detached, pending re-attachment).
  bool join_visit(const TreeClock& other, ProcessId q);

  std::vector<Node> nodes_;
  ProcessId root_ = kNone;
  bool causal_ = false;
};

std::ostream& operator<<(std::ostream& os, const TreeClock& tc);

}  // namespace syncon
