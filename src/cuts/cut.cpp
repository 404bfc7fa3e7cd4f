#include "cuts/cut.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace syncon {

Cut::Cut(const Execution& exec, VectorClock counts)
    : exec_(&exec), counts_(std::move(counts)) {
  SYNCON_REQUIRE(counts_.size() == exec.process_count(),
                 "cut counts size must equal the process count");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    SYNCON_REQUIRE(counts_.at(i) >= 1,
                   "a cut contains at least ⊥_i of every process (Defn 5)");
    SYNCON_REQUIRE(counts_.at(i) <= exec.total_count(static_cast<ProcessId>(i)),
                   "cut contains more events than the process has");
  }
}

Cut Cut::bottom(const Execution& exec) {
  return Cut(exec, VectorClock(exec.process_count(), 1));
}

Cut Cut::full(const Execution& exec) {
  VectorClock counts(exec.process_count());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts.set(i, exec.total_count(static_cast<ProcessId>(i)));
  }
  return Cut(exec, std::move(counts));
}

bool Cut::contains(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "contains() of invalid event");
  return e.index < counts_[e.process];
}

EventId Cut::surface_event(ProcessId i) const {
  SYNCON_REQUIRE(i < counts_.size(), "process id out of range");
  return EventId{i, counts_[i] - 1};
}

std::vector<EventId> Cut::surface() const {
  std::vector<EventId> s;
  s.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    s.push_back(surface_event(static_cast<ProcessId>(i)));
  }
  return s;
}

bool Cut::node_in_node_set(ProcessId i) const {
  SYNCON_REQUIRE(i < counts_.size(), "process id out of range");
  // Defn 1: E_i ∩ C ⊄ {⊥_i, ⊤_i}. With per-process prefixes this means the
  // cut holds a real event of i — at least two events, and not only the
  // degenerate {⊥_i, ⊤_i} of an empty process.
  return counts_[i] >= 2 && exec_->real_count(i) > 0;
}

std::vector<ProcessId> Cut::node_set() const {
  std::vector<ProcessId> nodes;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (node_in_node_set(static_cast<ProcessId>(i))) {
      nodes.push_back(static_cast<ProcessId>(i));
    }
  }
  return nodes;
}

bool Cut::is_bottom() const {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 1) return false;
  }
  return true;
}

std::size_t Cut::event_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) total += counts_[i];
  return total;
}

bool Cut::subset_of(const Cut& other) const {
  SYNCON_REQUIRE(exec_ == other.exec_, "cuts of different executions");
  return counts_.leq(other.counts_);
}

bool Cut::proper_subset_of(const Cut& other) const {
  return subset_of(other) && counts_ != other.counts_;
}

Cut Cut::set_union(const Cut& a, const Cut& b) {
  SYNCON_REQUIRE(a.exec_ == b.exec_, "cuts of different executions");
  VectorClock counts = a.counts_;
  counts.merge_max(b.counts_);
  return Cut(*a.exec_, std::move(counts));
}

Cut Cut::set_intersection(const Cut& a, const Cut& b) {
  SYNCON_REQUIRE(a.exec_ == b.exec_, "cuts of different executions");
  VectorClock counts = a.counts_;
  counts.merge_min(b.counts_);
  return Cut(*a.exec_, std::move(counts));
}

std::vector<Message> Cut::in_transit() const {
  std::vector<Message> out;
  for (const Message& m : exec_->messages()) {
    if (contains(m.source) && !contains(m.target)) out.push_back(m);
  }
  return out;
}

std::vector<Message> Cut::orphan_messages() const {
  std::vector<Message> out;
  for (const Message& m : exec_->messages()) {
    if (contains(m.target) && !contains(m.source)) out.push_back(m);
  }
  return out;
}

bool Cut::globally_consistent(const Timestamps& ts) const {
  SYNCON_REQUIRE(&ts.execution() == exec_,
                 "timestamps belong to a different execution");
  // Consistent iff for every surface event s_i, ↓s_i ⊆ C, i.e. T(s_i) ≤
  // counts componentwise.
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const EventId s = surface_event(static_cast<ProcessId>(i));
    if (!ts.forward(s).leq(counts_)) return false;
  }
  return true;
}

}  // namespace syncon
