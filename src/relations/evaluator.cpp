#include "relations/evaluator.hpp"

#include <array>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "relations/hierarchy.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Every query cost flows through deposit(), so this one site feeds the
// registry's whole relation-query family. Called only when obs::enabled().
void record_query_metrics(const QueryCost& cost) {
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& queries =
      registry.counter("syncon_relation_queries_total");
  static obs::Counter& comparisons =
      registry.counter("syncon_relation_integer_comparisons_total");
  static obs::Counter& causality =
      registry.counter("syncon_relation_causality_checks_total");
  static obs::Histogram& per_query = registry.histogram(
      "syncon_relation_comparisons_per_query",
      obs::HistogramSpec::exponential(1.0, 4096.0));
  const std::size_t shard = obs::current_thread_slot();
  queries.add(1, shard);
  comparisons.add(cost.integer_comparisons, shard);
  causality.add(cost.causality_checks, shard);
  per_query.record(static_cast<double>(cost.integer_comparisons), shard);
}

// implies() as 32-bit masks over all_relation_ids() positions, for
// all_holding_pruned: consequences[k] is what a true answer for relation k
// decides true, premises[k] what a false answer decides false. Both
// contain k.
struct ImplicationMasks {
  std::array<std::uint32_t, 32> consequences{};
  std::array<std::uint32_t, 32> premises{};
};

const ImplicationMasks& implication_masks() {
  static const ImplicationMasks masks = [] {
    ImplicationMasks m;
    for (std::size_t a = 0; a < 32; ++a) {
      for (std::size_t b = 0; b < 32; ++b) {
        if (!implies(relation_at(a), relation_at(b))) continue;
        m.consequences[a] |= std::uint32_t{1} << b;
        m.premises[b] |= std::uint32_t{1} << a;
      }
    }
    return m;
  }();
  return masks;
}

// µs latency of one all_holding / all_holding_pruned evaluation.
void record_evaluate_latency(std::uint64_t us) {
  static obs::Histogram& latency = obs::MetricRegistry::global().histogram(
      "syncon_relation_evaluate_us",
      obs::HistogramSpec::exponential(1.0, 65536.0));
  latency.record(static_cast<double>(us), obs::current_thread_slot());
}

}  // namespace

RelationEvaluator::RelationEvaluator(const Timestamps& ts)
    : ts_(&ts), id_(next_evaluator_id()) {}

RelationEvaluator::Entry::Entry(NonatomicEvent e)
    : event(std::move(e)),
      begin_proxy(event.proxy_per_node(ProxyKind::Begin)),
      end_proxy(event.proxy_per_node(ProxyKind::End)) {}

EventHandle RelationEvaluator::add_event(NonatomicEvent event) {
  SYNCON_SPAN("relation/register");
  SYNCON_REQUIRE(&event.execution() == &ts_->execution(),
                 "event belongs to a different execution");
  auto e = std::make_unique<Entry>(std::move(event));
  e->begin_cuts = std::make_unique<EventCuts>(*ts_, e->begin_proxy);
  e->end_cuts = std::make_unique<EventCuts>(*ts_, e->end_proxy);
  if (auto g = e->event.proxy_global(ProxyKind::Begin, *ts_)) {
    e->global_begin = std::make_unique<NonatomicEvent>(std::move(*g));
    e->global_begin_cuts = std::make_unique<EventCuts>(*ts_, *e->global_begin);
  }
  if (auto g = e->event.proxy_global(ProxyKind::End, *ts_)) {
    e->global_end = std::make_unique<NonatomicEvent>(std::move(*g));
    e->global_end_cuts = std::make_unique<EventCuts>(*ts_, *e->global_end);
  }
  entries_.push_back(std::move(e));
  return EventHandle(id_, entries_.size() - 1);
}

EventHandle RelationEvaluator::handle_at(std::size_t index) const {
  SYNCON_REQUIRE(index < entries_.size(), "event index out of range");
  return EventHandle(id_, index);
}

std::vector<EventHandle> RelationEvaluator::handles() const {
  std::vector<EventHandle> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(EventHandle(id_, i));
  }
  return out;
}

const RelationEvaluator::Entry& RelationEvaluator::entry(EventHandle h) const {
  SYNCON_REQUIRE(h.evaluator_id_ == id_,
                 "handle minted by a different evaluator");
  SYNCON_REQUIRE(h.index_ < entries_.size(), "invalid event handle");
  return *entries_[h.index_];
}

const NonatomicEvent& RelationEvaluator::event(EventHandle h) const {
  return entry(h).event;
}

const NonatomicEvent& RelationEvaluator::proxy(EventHandle h,
                                               ProxyKind kind) const {
  const Entry& e = entry(h);
  return kind == ProxyKind::Begin ? e.begin_proxy : e.end_proxy;
}

const EventCuts& RelationEvaluator::proxy_cuts(EventHandle h,
                                               ProxyKind kind) const {
  return entry(h).cuts(kind);
}

void RelationEvaluator::deposit(const QueryCost& cost, QueryCost* sink) const {
  if (obs::enabled()) record_query_metrics(cost);
  if (sink != nullptr) {
    *sink += cost;
    return;
  }
  tally_integer_comparisons_.fetch_add(cost.integer_comparisons,
                                       std::memory_order_relaxed);
  tally_causality_checks_.fetch_add(cost.causality_checks,
                                    std::memory_order_relaxed);
}

QueryCost RelationEvaluator::accumulated_cost() const {
  QueryCost out;
  out.integer_comparisons =
      tally_integer_comparisons_.load(std::memory_order_relaxed);
  out.causality_checks =
      tally_causality_checks_.load(std::memory_order_relaxed);
  return out;
}

void RelationEvaluator::reset_accumulated_cost() {
  tally_integer_comparisons_.store(0, std::memory_order_relaxed);
  tally_causality_checks_.store(0, std::memory_order_relaxed);
}

bool RelationEvaluator::holds_impl(const RelationId& r, const Entry& x,
                                   const Entry& y, QueryCost& cost) {
  return evaluate_fast(r.relation, x.cuts(r.proxy_x).view(),
                       y.cuts(r.proxy_y).view(), cost);
}

bool RelationEvaluator::holds(const RelationId& r, EventHandle x,
                              EventHandle y, QueryCost* cost) const {
  QueryCost local;
  const bool value = holds_impl(r, entry(x), entry(y), local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_strict(const RelationId& r, EventHandle x,
                                     EventHandle y, QueryCost* cost) const {
  const NonatomicEvent& px = proxy(x, r.proxy_x);
  const NonatomicEvent& py = proxy(y, r.proxy_y);
  // Overlap check over the two sorted event lists.
  bool overlap = false;
  const auto& a = px.events();
  const auto& b = py.events();
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] == b[j]) {
      overlap = true;
      break;
    }
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  if (!overlap) return holds(r, x, y, cost);
  QueryCost local;
  const bool value = evaluate_proxy_naive(r.relation, px, py, *ts_,
                                          Semantics::Strict, &local);
  deposit(local, cost);
  return value;
}

std::optional<bool> RelationEvaluator::holds_global_proxies(
    const RelationId& r, EventHandle x, EventHandle y,
    QueryCost* cost) const {
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  const EventCuts* xc = r.proxy_x == ProxyKind::Begin
                            ? ex.global_begin_cuts.get()
                            : ex.global_end_cuts.get();
  const EventCuts* yc = r.proxy_y == ProxyKind::Begin
                            ? ey.global_begin_cuts.get()
                            : ey.global_end_cuts.get();
  if (xc == nullptr || yc == nullptr) return std::nullopt;
  QueryCost local;
  const bool value = evaluate_fast(r.relation, *xc, *yc, local);
  deposit(local, cost);
  return value;
}

bool RelationEvaluator::holds_naive(const RelationId& r, EventHandle x,
                                    EventHandle y, Semantics sem,
                                    QueryCost* cost) const {
  QueryCost local;
  const bool value = evaluate_naive(r.relation, proxy(x, r.proxy_x),
                                    proxy(y, r.proxy_y), *ts_, sem, &local);
  deposit(local, cost);
  return value;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  SYNCON_SPAN("relation/evaluate");
  const std::uint64_t t0 = obs::enabled() ? obs::now_us() : 0;
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  AllRelationsResult result;
  result.holding = evaluate_all_fast({ex.begin_cuts->view(), ex.end_cuts->view()},
                                     {ey.begin_cuts->view(), ey.end_cuts->view()},
                                     result.cost);
  result.evaluated = kFusedEvaluations;
  deposit(result.cost, cost);
  if (obs::enabled()) record_evaluate_latency(obs::now_us() - t0);
  return result;
}

RelationEvaluator::AllRelationsResult RelationEvaluator::all_holding_pruned(
    EventHandle x, EventHandle y, QueryCost* cost) const {
  SYNCON_SPAN("relation/evaluate");
  const std::uint64_t t0 = obs::enabled() ? obs::now_us() : 0;
  const Entry& ex = entry(x);
  const Entry& ey = entry(y);
  const ImplicationMasks& masks = implication_masks();
  AllRelationsResult result;
  std::uint32_t decided = 0;
  std::uint32_t holding = 0;
  // Evaluate in declaration order (strong relations first: R1 block leads).
  for (std::size_t k = 0; k < 32; ++k) {
    if ((decided >> k & 1u) != 0) continue;
    ++result.evaluated;
    // Propagate: a true relation forces everything it implies true; a false
    // one forces everything that would imply it false.
    if (holds_impl(relation_at(k), ex, ey, result.cost)) {
      const std::uint32_t forced = masks.consequences[k] & ~decided;
      holding |= forced;
      decided |= forced;
    } else {
      decided |= masks.premises[k];
    }
  }
  result.holding = RelationSet(holding);
  deposit(result.cost, cost);
  if (obs::enabled()) record_evaluate_latency(obs::now_us() - t0);
  return result;
}

}  // namespace syncon
