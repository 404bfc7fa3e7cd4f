#include "model/tree_clock.hpp"

#include <algorithm>
#include <ostream>

#include "support/contracts.hpp"

namespace syncon {

TreeClock::TreeClock(std::size_t size, ClockValue fill) {
  nodes_.resize(size);
  // Only the fill == 1 "floor" starts causal: it is dominated by every
  // stamped clock, and it establishes the invariant that causal clocks
  // keep every component >= 1 (which makes pruning floor values harmless).
  causal_ = size > 0 && fill == 1;
  if (size == 0) return;
  root_ = 0;
  nodes_[0].clk = fill;
  for (std::size_t i = 1; i < size; ++i) {
    nodes_[i].clk = fill;
    nodes_[i].aclk = fill;
    nodes_[i].parent = 0;
    nodes_[i].prev = static_cast<ProcessId>(i - 1);
    if (i + 1 < size) nodes_[i].next = static_cast<ProcessId>(i + 1);
  }
  if (size > 1) {
    nodes_[0].first_child = 1;
    nodes_[1].prev = kNone;
  }
}

ClockValue TreeClock::at(std::size_t i) const {
  SYNCON_REQUIRE(i < nodes_.size(), "clock component out of range");
  return nodes_[i].clk;
}

void TreeClock::set(std::size_t i, ClockValue v) {
  SYNCON_REQUIRE(i < nodes_.size(), "clock component out of range");
  nodes_[i].clk = v;
  causal_ = false;  // an arbitrary write breaks the provenance invariant
}

void TreeClock::tick(std::size_t i) {
  SYNCON_REQUIRE(i < nodes_.size(), "clock component out of range");
  const auto p = static_cast<ProcessId>(i);
  if (root_ != p) {
    // Re-root at the new owner: the whole current tree is (by the tick
    // contract) exactly what process i knows, so the old root attaches
    // under i at i's new time.
    detach(p);
    const ProcessId old_root = root_;
    root_ = p;
    nodes_[p].parent = kNone;
    ++nodes_[p].clk;
    attach_front(old_root, p, nodes_[p].clk);
  } else {
    ++nodes_[p].clk;
  }
}

void TreeClock::detach(ProcessId q) {
  Node& n = nodes_[q];
  if (n.parent == kNone) return;
  if (n.prev != kNone) {
    nodes_[n.prev].next = n.next;
  } else {
    nodes_[n.parent].first_child = n.next;
  }
  if (n.next != kNone) nodes_[n.next].prev = n.prev;
  n.parent = n.prev = n.next = kNone;
}

void TreeClock::attach_front(ProcessId q, ProcessId parent, ClockValue aclk) {
  Node& n = nodes_[q];
  n.parent = parent;
  n.aclk = aclk;
  n.prev = kNone;
  n.next = nodes_[parent].first_child;
  if (n.next != kNone) nodes_[n.next].prev = q;
  nodes_[parent].first_child = q;
}

void TreeClock::attach_after(ProcessId q, ProcessId parent, ClockValue aclk,
                             ProcessId cursor) {
  if (cursor == kNone) {
    attach_front(q, parent, aclk);
    return;
  }
  Node& n = nodes_[q];
  n.parent = parent;
  n.aclk = aclk;
  n.prev = cursor;
  n.next = nodes_[cursor].next;
  if (n.next != kNone) nodes_[n.next].prev = q;
  nodes_[cursor].next = q;
}

void TreeClock::dense_max(const TreeClock& other) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].clk = std::max(nodes_[i].clk, other.nodes_[i].clk);
  }
  causal_ = false;  // values may now disagree with the recorded provenance
}

bool TreeClock::join_visit(const TreeClock& other, ProcessId q) {
  const ClockValue c = other.nodes_[q].clk;
  Node& n = nodes_[q];
  const ClockValue t_old = n.clk;
  if (t_old >= c) return false;  // subtree already known — prune
  SYNCON_ASSERT(q != root_, "pruned join must not raise the root component");
  n.clk = c;
  detach(q);  // q keeps its own subtree; it re-attaches at the caller
  // Scan other's children of q in descending aclk order. A child attached
  // at or before t_old (and every later sibling) was already part of q's
  // knowledge at a time we dominate — stop there.
  ProcessId cursor = kNone;
  for (ProcessId v = other.nodes_[q].first_child; v != kNone;
       v = other.nodes_[v].next) {
    if (other.nodes_[v].aclk <= t_old) break;
    if (join_visit(other, v)) {
      attach_after(v, q, other.nodes_[v].aclk, cursor);
      cursor = v;
    }
  }
  return true;
}

void TreeClock::merge_max(const TreeClock& other) {
  SYNCON_REQUIRE(size() == other.size(), "merging clocks of different size");
  if (nodes_.empty()) return;
  if (!causal_ || !other.causal_) {
    dense_max(other);
    return;
  }
  // A causal join never raises the target's own (root) component — the
  // source is causally in the root's past. If a caller merges clocks where
  // it would, fall back to the dense scan (correct, just not pruned).
  if (other.nodes_[root_].clk > nodes_[root_].clk) {
    dense_max(other);
    return;
  }
  const ProcessId r0 = other.root_;
  if (join_visit(other, r0)) {
    attach_front(r0, root_, nodes_[root_].clk);
  }
}

void TreeClock::merge_min(const TreeClock& other) {
  SYNCON_REQUIRE(size() == other.size(), "merging clocks of different size");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].clk = std::min(nodes_[i].clk, other.nodes_[i].clk);
  }
  causal_ = false;  // a componentwise min dominates nobody's knowledge
}

bool TreeClock::leq(const TreeClock& other) const {
  SYNCON_REQUIRE(size() == other.size(), "comparing clocks of different size");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].clk > other.nodes_[i].clk) return false;
  }
  return true;
}

bool TreeClock::lt(const TreeClock& other) const {
  return leq(other) && !(*this == other);
}

bool TreeClock::incomparable(const TreeClock& other) const {
  return !leq(other) && !other.leq(*this);
}

VectorClock TreeClock::to_dense() const {
  std::vector<ClockValue> values;
  values.reserve(nodes_.size());
  for (const Node& n : nodes_) values.push_back(n.clk);
  return VectorClock(std::move(values));
}

TreeClock TreeClock::from_dense(const VectorClock& dense) {
  TreeClock tc(dense.size(), 0);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    tc.nodes_[i].clk = dense.at(i);
  }
  tc.causal_ = false;  // no provenance for arbitrary dense values
  return tc;
}

bool operator==(const TreeClock& a, const TreeClock& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.nodes_.size(); ++i) {
    if (a.nodes_[i].clk != b.nodes_[i].clk) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const TreeClock& tc) {
  return os << tc.to_dense();
}

}  // namespace syncon
