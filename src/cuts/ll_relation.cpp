#include "cuts/ll_relation.hpp"

#include "support/contracts.hpp"

namespace syncon {

namespace {

void require_same_execution(const Cut& c, const Cut& c_prime) {
  SYNCON_REQUIRE(&c.execution() == &c_prime.execution(),
                 "<< compares cuts of the same execution");
}

bool is_initial_dummy(const Cut& cut, ProcessId i) {
  return cut.counts()[i] == 1;
}

}  // namespace

bool ll(const Cut& c, const Cut& c_prime) {
  require_same_execution(c, c_prime);
  if (c_prime.is_bottom()) return false;
  const VectorClock& a = c.counts();
  const VectorClock& b = c_prime.counts();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (c.node_in_node_set(p) && a[i] >= b[i]) return false;
  }
  return true;
}

bool ll_form1(const Cut& c, const Cut& c_prime) {
  require_same_execution(c, c_prime);
  // (∀z ∈ S(C)\E^⊥ : z ∉ S(C') ∧ z ∈ C') ∧ C' ≠ E^⊥
  if (c_prime.is_bottom()) return false;
  for (std::size_t i = 0; i < c.process_count(); ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (is_initial_dummy(c, p)) continue;  // z ∈ E^⊥
    const EventId z = c.surface_event(p);
    const bool in_surface_cp = (c_prime.surface_event(p) == z);
    const bool in_cp = c_prime.contains(z);
    if (in_surface_cp || !in_cp) return false;
  }
  return true;
}

bool not_ll_form2(const Cut& c, const Cut& c_prime) {
  require_same_execution(c, c_prime);
  // (∃z ∈ S(C)\E^⊥ : z ∈ S(C') ∨ z ∉ C') ∨ C' = E^⊥
  if (c_prime.is_bottom()) return true;
  for (std::size_t i = 0; i < c.process_count(); ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (is_initial_dummy(c, p)) continue;
    const EventId z = c.surface_event(p);
    if (c_prime.surface_event(p) == z || !c_prime.contains(z)) return true;
  }
  return false;
}

bool ll_form3(const Cut& c, const Cut& c_prime) {
  require_same_execution(c, c_prime);
  // (∀z ∈ S(C')\E^⊥ : z ∉ C) ∧ C' ≠ E^⊥ ∧ N_C ⊆ N_C'
  if (c_prime.is_bottom()) return false;
  for (std::size_t i = 0; i < c.process_count(); ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (!is_initial_dummy(c_prime, p)) {
      const EventId z = c_prime.surface_event(p);
      if (c.contains(z)) return false;
    }
    if (c.node_in_node_set(p) && !c_prime.node_in_node_set(p)) return false;
  }
  return true;
}

bool not_ll_form4(const Cut& c, const Cut& c_prime) {
  require_same_execution(c, c_prime);
  // (∃z ∈ S(C')\E^⊥ : z ∈ C) ∨ C' = E^⊥ ∨ N_C ⊄ N_C'
  if (c_prime.is_bottom()) return true;
  for (std::size_t i = 0; i < c.process_count(); ++i) {
    const auto p = static_cast<ProcessId>(i);
    if (!is_initial_dummy(c_prime, p) && c.contains(c_prime.surface_event(p))) {
      return true;
    }
    if (c.node_in_node_set(p) && !c_prime.node_in_node_set(p)) return true;
  }
  return false;
}

bool theorem19_violated(const VectorClock& down_counts,
                        const VectorClock& up_counts,
                        std::span<const ProcessId> probe_nodes,
                        QueryCost& counter) {
  SYNCON_REQUIRE(down_counts.size() == up_counts.size(),
                 "cut timestamps of different sizes");
  // The unchecked overload's loop with each probe node checked as it is
  // reached, so a violation at the first node still costs one read.
  const ClockValue* down = down_counts.values().data();
  const ClockValue* up = up_counts.values().data();
  for (const ProcessId i : probe_nodes) {
    SYNCON_REQUIRE(i < down_counts.size(), "probe node out of range");
    if (theorem19_violated(down, up, {&i, 1}, counter)) return true;
  }
  return false;
}

}  // namespace syncon
