#include "online/online_evaluator.hpp"

#include "support/contracts.hpp"

namespace syncon {

namespace {

// ∀ i ∈ N_X : past[i] >= bound_index(i) + 1, one comparison per node.
// With bound = greatest index this is "every x-extreme is known to the
// relevant Y aggregate"; with least index, the ∃x variants.
bool all_nodes_dominated(const IntervalSummary& x, const VectorClock& past,
                         bool use_greatest, QueryCost& counter) {
  for (std::size_t s = 0; s < x.nodes.size(); ++s) {
    ++counter.integer_comparisons;
    const EventIndex idx =
        use_greatest ? x.greatest_index[s] : x.least_index[s];
    if (past[x.nodes[s]] < idx + 1) return false;
  }
  return true;
}

bool any_node_dominated(const IntervalSummary& x, const VectorClock& past,
                        bool use_greatest, QueryCost& counter) {
  for (std::size_t s = 0; s < x.nodes.size(); ++s) {
    ++counter.integer_comparisons;
    const EventIndex idx =
        use_greatest ? x.greatest_index[s] : x.least_index[s];
    if (past[x.nodes[s]] >= idx + 1) return true;
  }
  return false;
}

// Does clock dominate X's per-node profile (T(y)[i] >= idx_X(i)+1 ∀i)?
bool clock_dominates_profile(const VectorClock& clock,
                             const IntervalSummary& x, bool use_greatest,
                             QueryCost& counter) {
  for (std::size_t s = 0; s < x.nodes.size(); ++s) {
    ++counter.integer_comparisons;
    const EventIndex idx =
        use_greatest ? x.greatest_index[s] : x.least_index[s];
    if (clock[x.nodes[s]] < idx + 1) return false;
  }
  return true;
}

}  // namespace

bool evaluate_online(Relation r, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter) {
  SYNCON_REQUIRE(x.process_count == y.process_count,
                 "summaries from different systems");
  // A summary assembled from wire reports (degraded-mode feed) could in
  // principle carry malformed aggregates; fail loudly rather than index a
  // too-narrow past cut below.
  SYNCON_REQUIRE(x.intersect_past.size() == x.process_count &&
                     x.union_past.size() == x.process_count &&
                     y.intersect_past.size() == y.process_count &&
                     y.union_past.size() == y.process_count,
                 "summary past-cut width disagrees with its process count "
                 "(corrupt report feed?)");
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
      // ∀x ∀y: x ⪯ y ⟺ every y knows every per-node greatest x.
      return all_nodes_dominated(x, y.intersect_past, /*use_greatest=*/true,
                                 counter);
    case Relation::R2:
      // ∀x ∃y ⟺ some y knows each per-node greatest x.
      return all_nodes_dominated(x, y.union_past, /*use_greatest=*/true,
                                 counter);
    case Relation::R3:
      // ∃x ∀y ⟺ every y knows some per-node least x.
      return any_node_dominated(x, y.intersect_past, /*use_greatest=*/false,
                                counter);
    case Relation::R4:
    case Relation::R4p:
      // ∃x ∃y ⟺ some y knows some per-node least x.
      return any_node_dominated(x, y.union_past, /*use_greatest=*/false,
                                counter);
    case Relation::R2p:
      // ∃y ∀x: some per-node greatest y dominates X's greatest profile.
      for (std::size_t s = 0; s < y.nodes.size(); ++s) {
        if (clock_dominates_profile(y.greatest_clock[s], x,
                                    /*use_greatest=*/true, counter)) {
          return true;
        }
      }
      return false;
    case Relation::R3p:
      // ∀y ∃x: every per-node least y knows some per-node least x.
      for (std::size_t s = 0; s < y.nodes.size(); ++s) {
        bool found = false;
        for (std::size_t t = 0; t < x.nodes.size(); ++t) {
          ++counter.integer_comparisons;
          if (y.least_clock[s][x.nodes[t]] >= x.least_index[t] + 1) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
  }
  SYNCON_ASSERT(false, "unreachable relation value");
  return false;
}

bool evaluate_online(const RelationId& id, const IntervalSummary& x,
                     const IntervalSummary& y, QueryCost& counter) {
  return evaluate_online(id.relation, x.proxy(id.proxy_x),
                         y.proxy(id.proxy_y), counter);
}

std::uint64_t online_cost_bound(Relation r, std::size_t n_x,
                                std::size_t n_y) {
  switch (r) {
    case Relation::R1:
    case Relation::R1p:
    case Relation::R2:
    case Relation::R3:
    case Relation::R4:
    case Relation::R4p:
      return n_x;
    case Relation::R2p:
    case Relation::R3p:
      return n_x * n_y;
  }
  return 0;
}

}  // namespace syncon
