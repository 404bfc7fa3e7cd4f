#include <gtest/gtest.h>

#include "helpers.hpp"
#include "relations/evaluator.hpp"
#include "relations/inference.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(RelationKnowledgeTest, AssertAppliesImplications) {
  RelationKnowledge k(3);
  k.assert_fact(0, 1, Relation::R1);
  // R1 implies everything.
  for (const Relation r : kAllRelations) {
    EXPECT_TRUE(k.known(0, 1, r)) << to_string(r);
  }
  EXPECT_FALSE(k.known(1, 0, Relation::R4));
  EXPECT_EQ(k.fact_count(), 8u);
}

TEST(RelationKnowledgeTest, TransitiveChainOfR1) {
  RelationKnowledge k(4);
  k.assert_fact(0, 1, Relation::R1);
  k.assert_fact(1, 2, Relation::R1);
  k.assert_fact(2, 3, Relation::R1);
  EXPECT_FALSE(k.known(0, 3, Relation::R1));
  k.propagate();
  EXPECT_TRUE(k.known(0, 2, Relation::R1));
  EXPECT_TRUE(k.known(0, 3, Relation::R1));
  EXPECT_TRUE(k.known(1, 3, Relation::R4));
}

TEST(RelationKnowledgeTest, CompositionRespectsTableGaps) {
  RelationKnowledge k(3);
  k.assert_fact(0, 1, Relation::R4);
  k.assert_fact(1, 2, Relation::R4);
  k.propagate();
  // R4 ∘ R4 derives nothing.
  for (const Relation r : kAllRelations) {
    EXPECT_FALSE(k.known(0, 2, r)) << to_string(r);
  }
}

TEST(RelationKnowledgeTest, MixedChainDerivesWeakerFacts) {
  RelationKnowledge k(3);
  k.assert_fact(0, 1, Relation::R2);   // every x before some y
  k.assert_fact(1, 2, Relation::R1);   // all of Y before all of Z
  k.propagate();
  // R2 ∘ R1 = R1.
  EXPECT_TRUE(k.known(0, 2, Relation::R1));
}

TEST(RelationKnowledgeTest, BoundsChecked) {
  RelationKnowledge k(2);
  EXPECT_THROW(k.assert_fact(0, 2, Relation::R1), ContractViolation);
  EXPECT_THROW(k.assert_fact(0, 0, Relation::R1), ContractViolation);
  EXPECT_THROW(k.known(5, 0, Relation::R1), ContractViolation);
}

// ---------------------------------------------------------------------------
// Soundness sweep: seed with the true relations of a subset of pairs, then
// verify every propagated fact holds on the actual execution.
// ---------------------------------------------------------------------------

class InferencePropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(InferencePropertyTest, PropagatedFactsAreTrue) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  Xoshiro256StarStar rng(GetParam().seed ^ 0xbead);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  constexpr std::size_t kIntervals = 6;
  for (std::size_t i = 0; i < kIntervals; ++i) {
    eval.add_event(random_interval(exec, rng, spec, "I" + std::to_string(i)));
  }
  RelationKnowledge knowledge(kIntervals);
  // Seed with the true base-relation facts of consecutive pairs only (a
  // path through the interval set); propagation must stay sound on the
  // untouched pairs.
  for (std::size_t i = 0; i + 1 < kIntervals; ++i) {
    const EventCuts a(ts, eval.event(eval.handle_at(i)));
    const EventCuts b(ts, eval.event(eval.handle_at(i + 1)));
    QueryCost counter;
    for (const Relation r : kAllRelations) {
      if (evaluate_fast(r, a, b, counter)) {
        knowledge.assert_fact(i, i + 1, r);
      }
    }
  }
  knowledge.propagate();
  // Every known fact must be true on the trace.
  for (std::size_t x = 0; x < kIntervals; ++x) {
    for (std::size_t y = 0; y < kIntervals; ++y) {
      if (x == y) continue;
      const EventCuts a(ts, eval.event(eval.handle_at(x)));
      const EventCuts b(ts, eval.event(eval.handle_at(y)));
      QueryCost counter;
      for (const Relation r : kAllRelations) {
        if (knowledge.known(x, y, r)) {
          ASSERT_TRUE(evaluate_fast(r, a, b, counter))
              << to_string(r) << " inferred for (" << x << "," << y
              << ") but does not hold";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InferencePropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
