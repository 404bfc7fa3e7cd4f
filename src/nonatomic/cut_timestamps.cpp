#include "nonatomic/cut_timestamps.hpp"

#include "support/contracts.hpp"

namespace syncon {

const char* to_string(PosetCut which) {
  switch (which) {
    case PosetCut::IntersectPast: return "C1 (∩⇓X)";
    case PosetCut::UnionPast: return "C2 (∪⇓X)";
    case PosetCut::IntersectFuture: return "C3 (∩⇑X)";
    case PosetCut::UnionFuture: return "C4 (∪⇑X)";
  }
  return "?";
}

VectorClock poset_cut_counts_reference(const Timestamps& ts,
                                       const NonatomicEvent& x,
                                       PosetCut which) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  const bool past = which == PosetCut::IntersectPast ||
                    which == PosetCut::UnionPast;
  const bool is_min = which == PosetCut::IntersectPast ||
                      which == PosetCut::IntersectFuture;
  VectorClock acc;
  bool first = true;
  for (const EventId& e : x.events()) {
    VectorClock c = past ? ts.past_cut_counts(e) : ts.future_cut_counts(e);
    if (first) {
      acc = std::move(c);
      first = false;
    } else if (is_min) {
      acc.merge_min(c);
    } else {
      acc.merge_max(c);
    }
  }
  return acc;
}

EventCuts::EventCuts(const Timestamps& ts, const NonatomicEvent& x)
    : ts_(&ts), event_(&x) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  const Execution& exec = ts.execution();
  least_rank_.reserve(x.node_count());
  greatest_rank_.reserve(x.node_count());
  bool first = true;
  for (const ProcessId p : x.node_set()) {
    // Minima over ↓/↑ cuts are attained at the per-node least events and
    // maxima at the per-node greatest events (§2.3), so only extremes are
    // consulted. Real events merge straight from the stored clocks; only
    // dummy extremes (⊥/⊤ members) pay for an on-demand copy.
    const EventId lo = x.least_on(p);
    const EventId hi = x.greatest_on(p);
    least_rank_.push_back(lo.index + 1);
    greatest_rank_.push_back(hi.index + 1);
    if (first) {
      c_[0] = ts.forward(lo);
      c_[1] = ts.forward(hi);
      c_[2] = ts.future_start(lo);
      c_[3] = ts.future_start(hi);
      first = false;
      continue;
    }
    if (exec.is_real(lo)) {
      c_[0].merge_min(ts.forward_ref(lo));
      c_[2].merge_min(ts.future_start_ref(lo));
    } else {
      c_[0].merge_min(ts.forward(lo));
      c_[2].merge_min(ts.future_start(lo));
    }
    if (exec.is_real(hi)) {
      c_[1].merge_max(ts.forward_ref(hi));
      c_[3].merge_max(ts.future_start_ref(hi));
    } else {
      c_[1].merge_max(ts.forward(hi));
      c_[3].merge_max(ts.future_start(hi));
    }
  }
  // The future cuts fold F(x); the e↑ counts are F(x) + 1 per component,
  // and the uniform +1 commutes with min/max — apply it once at the end.
  for (VectorClock* f : {&c_[2], &c_[3]}) {
    for (std::size_t i = 0; i < f->size(); ++i) f->set(i, f->at(i) + 1);
  }
  // view() hands out unchecked component reads at the nodes of N_X; this
  // one check per event covers every later comparison.
  for (const VectorClock& c : c_) {
    SYNCON_REQUIRE(c.size() == exec.process_count(),
                   "cut timestamp size differs from the process count");
  }
}

}  // namespace syncon
