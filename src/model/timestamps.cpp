#include "model/timestamps.hpp"

#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

Timestamps::Timestamps(const Execution& exec) : exec_(&exec) {
  SYNCON_SPAN("model/stamp");
  const std::size_t p_count = exec.process_count();
  const auto& order = exec.topological_order();
  forward_.resize(order.size());
  future_.resize(order.size());

  // Forward pass: creation order is topological for ≺. Start from the
  // predecessor's clock (the all-ones floor for index 1: ⊥_i ≺ e for every
  // process i, the paper's axiom), advance the owner, join the incoming
  // clocks.
  for (std::size_t seq = 0; seq < order.size(); ++seq) {
    const EventId e = order[seq];
    VectorClock t =
        e.index > 1
            ? forward_[exec.topological_index({e.process, e.index - 1})]
            : VectorClock(p_count, 1);
    t.tick(e.process);
    for (const EventId& src : exec.incoming(e)) {
      t.merge_max(forward_[exec.topological_index(src)]);
    }
    // |{events on own process ⪯ e}| — the joins cannot raise it, because
    // every joined clock is causally before e.
    SYNCON_ASSERT(t.at(e.process) == e.index + 1,
                  "stamped clock must own exactly index + 1 local events");
    forward_[seq] = std::move(t);
  }

  // Backward pass needs outgoing message adjacency.
  std::vector<std::vector<std::uint32_t>> outgoing(order.size());
  for (const Message& m : exec.messages()) {
    outgoing[exec.topological_index(m.source)].push_back(
        exec.topological_index(m.target));
  }

  for (std::size_t seq = order.size(); seq-- > 0;) {
    const EventId e = order[seq];
    // Ceiling: e ≺ ⊤_i for every process i, so F(e)[i] <= index(⊤_i).
    VectorClock f(p_count, 0);
    for (std::size_t i = 0; i < p_count; ++i) {
      f.set(i, exec.real_count(static_cast<ProcessId>(i)) + 1);
    }
    if (e.index < exec.real_count(e.process)) {
      f.merge_min(future_[exec.topological_index({e.process, e.index + 1})]);
    }
    for (std::uint32_t dst_seq : outgoing[seq]) {
      f.merge_min(future_[dst_seq]);
    }
    f.set(e.process, e.index);  // e itself is the earliest event ⪰ e
    future_[seq] = std::move(f);
  }
}

const VectorClock& Timestamps::forward_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "forward_ref requires a real event");
  return forward_[exec_->topological_index(e)];
}

const VectorClock& Timestamps::future_start_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "future_start_ref requires a real event");
  return future_[exec_->topological_index(e)];
}

VectorClock Timestamps::forward(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "forward() of invalid event");
  const std::size_t p_count = exec_->process_count();
  if (exec_->is_initial(e)) {
    VectorClock t(p_count, 0);
    t.set(e.process, 1);
    return t;
  }
  if (exec_->is_final(e)) {
    VectorClock t(p_count, 0);
    for (std::size_t i = 0; i < p_count; ++i) {
      t.set(i, exec_->real_count(static_cast<ProcessId>(i)) + 1);
    }
    t.set(e.process, e.index + 1);  // = n_p + 2: includes ⊤_p itself
    return t;
  }
  return forward_ref(e);
}

VectorClock Timestamps::future_start(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "future_start() of invalid event");
  const std::size_t p_count = exec_->process_count();
  if (exec_->is_initial(e)) {
    // ⊥_p ≺ every non-dummy event and every ⊤_i; earliest on p is itself.
    VectorClock f(p_count, 1);
    f.set(e.process, 0);
    return f;
  }
  if (exec_->is_final(e)) {
    // Nothing follows ⊤_p except itself; sentinel total_count elsewhere.
    VectorClock f(p_count, 0);
    for (std::size_t i = 0; i < p_count; ++i) {
      f.set(i, exec_->total_count(static_cast<ProcessId>(i)));
    }
    f.set(e.process, e.index);
    return f;
  }
  return future_start_ref(e);
}

VectorClock Timestamps::reverse(EventId e) const {
  const VectorClock f = future_start(e);
  VectorClock r(exec_->process_count(), 0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    r.set(i, exec_->total_count(static_cast<ProcessId>(i)) - f.at(i));
  }
  return r;
}

VectorClock Timestamps::future_cut_counts(EventId e) const {
  VectorClock f = future_start(e);
  for (std::size_t i = 0; i < f.size(); ++i) f.set(i, f.at(i) + 1);
  return f;
}

bool Timestamps::leq(EventId a, EventId b) const {
  SYNCON_REQUIRE(exec_->valid_event(a) && exec_->valid_event(b),
                 "leq() of invalid event");
  if (a == b) return true;
  if (exec_->is_initial(a)) {
    // ⊥_i precedes everything except the other initial events.
    return !(exec_->is_initial(b) && b.process != a.process);
  }
  if (exec_->is_final(a)) return false;  // nothing follows a final event
  if (exec_->is_initial(b)) return false;
  if (exec_->is_final(b)) return true;  // every non-dummy event precedes ⊤_j
  // Both real: a ⪯ b iff b knows at least index(a)+1 events of a's process.
  return forward_ref(a).at(a.process) <= forward_ref(b).at(a.process);
}

}  // namespace syncon
