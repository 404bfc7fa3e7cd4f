#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"
#include "online/online_monitor.hpp"
#include "relations/naive.hpp"
#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon {
namespace {

using testing::property_sweep;

TEST(OnlineMonitorTest, LifecycleAndLookup) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  EXPECT_TRUE(monitor.is_open("a"));
  EXPECT_FALSE(monitor.is_complete("a"));
  monitor.record("a", sys.local(0));
  const IntervalSummary& s = monitor.complete("a");
  EXPECT_EQ(s.label, "a");
  EXPECT_FALSE(monitor.is_open("a"));
  EXPECT_TRUE(monitor.is_complete("a"));
  EXPECT_NE(monitor.summary("a"), nullptr);
  EXPECT_EQ(monitor.summary("b"), nullptr);
}

TEST(OnlineMonitorTest, LifecycleContracts) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  EXPECT_THROW(monitor.begin("a"), ContractViolation);
  EXPECT_THROW(monitor.record("b", EventId{0, 1}), ContractViolation);
  EXPECT_THROW(monitor.complete("a"), ContractViolation);  // empty
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  EXPECT_THROW(monitor.begin("a"), ContractViolation);  // label reuse
}

TEST(OnlineMonitorTest, WatchFiresAtLaterCompletion) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  std::vector<std::pair<std::string, bool>> fired;
  monitor.begin("produce");
  monitor.begin("consume");
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "produce",
                "consume",
                [&](const std::string& x, const std::string&, bool holds,
                    Confidence) { fired.emplace_back(x, holds); });

  monitor.record("produce", sys.local(0));
  const WireMessage m = sys.send(0);
  monitor.record("produce", m.source);
  monitor.complete("produce");
  EXPECT_TRUE(fired.empty());  // consumer still running

  monitor.record("consume", sys.deliver(1, m));
  monitor.record("consume", sys.local(1));
  monitor.complete("consume");
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, "produce");
  EXPECT_TRUE(fired[0].second);
}

TEST(OnlineMonitorTest, WatchRegisteredLateFiresImmediately) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1));
  monitor.complete("b");
  int calls = 0;
  bool value = true;
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a", "b",
                [&](const std::string&, const std::string&, bool holds,
                    Confidence conf) {
                  ++calls;
                  value = holds;
                  EXPECT_EQ(conf, Confidence::Definite);  // direct observer
                });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(value);  // concurrent actions
}

TEST(OnlineMonitorTest, DeadlineWatchMeasuresGap) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("req");
  const WireMessage m = sys.send(0, 1000);
  monitor.record("req", m.source);
  monitor.complete("req");
  monitor.begin("rsp");
  monitor.record("rsp", sys.deliver(1, m, 4000));
  monitor.complete("rsp");

  Duration measured = -1;
  bool ok = false;
  monitor.watch_deadline(
      TimingConstraint{"rt", Anchor::End, Anchor::End, 0, 2500}, "req", "rsp",
      [&](const std::string&, const std::string&, Duration gap_us,
          bool satisfied, Confidence) {
        measured = gap_us;
        ok = satisfied;
      });
  EXPECT_EQ(measured, 3000);
  EXPECT_FALSE(ok);  // 3000 > 2500 budget
}

TEST(OnlineMonitorTest, DeadlineOnUntimedActionsReportsUnsatisfied) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));  // no physical time
  monitor.complete("a");
  monitor.begin("b");
  monitor.record("b", sys.local(1, 500));
  monitor.complete("b");
  bool ok = true;
  monitor.watch_deadline(TimingConstraint{"d", Anchor::End, Anchor::Start, 0,
                                          1000},
                         "a", "b",
                         [&](const std::string&, const std::string&, Duration,
                             bool satisfied, Confidence) { ok = satisfied; });
  EXPECT_FALSE(ok);
}

TEST(OnlineMonitorTest, ReentrantCallbacksAreSafe) {
  // A callback that registers a follow-up watch and completes another
  // action — both must be handled without invalidation or missed firings.
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("first");
  monitor.record("first", sys.local(0));
  monitor.begin("second");
  monitor.record("second", sys.local(1));
  int second_fired = 0;
  monitor.watch(
      {Relation::R4, ProxyKind::Begin, ProxyKind::End}, "first", "first",
      [&](const std::string&, const std::string&, bool, Confidence) {
        // Re-entrant: complete "second" and register a watch on it.
        monitor.complete("second");
        monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End},
                      "second", "second",
                      [&](const std::string&, const std::string&, bool,
                          Confidence) { ++second_fired; });
      });
  monitor.complete("first");  // fires the first watch, which cascades
  EXPECT_EQ(second_fired, 1);
}

TEST(OnlineMonitorTest, ForgetBoundsMemoryAndAllowsLabelReuse) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  for (int round = 0; round < 3; ++round) {
    monitor.begin("work");
    monitor.record("work", sys.local(0));
    monitor.complete("work");
    EXPECT_EQ(monitor.retained(), 1u);
    monitor.forget("work");
    EXPECT_EQ(monitor.retained(), 0u);
    EXPECT_FALSE(monitor.is_complete("work"));
  }
  EXPECT_THROW(monitor.forget("work"), ContractViolation);
}

TEST(OnlineMonitorTest, ForgetDropsDanglingWatches) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  int calls = 0;
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a",
                "never",
                [&](const std::string&, const std::string&, bool, Confidence) {
                  ++calls;
                });
  monitor.forget("a");
  // The counterpart completing later cannot fire the dropped watch.
  monitor.begin("never");
  monitor.record("never", sys.local(1));
  monitor.complete("never");
  EXPECT_EQ(calls, 0);
}

TEST(OnlineMonitorTest, LatencyTrackingEmitsMonotoneWaterfalls) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  EXPECT_FALSE(monitor.latency_tracking());
  monitor.set_latency_tracking(true);
  ASSERT_TRUE(monitor.latency_tracking());

  monitor.begin("produce");
  monitor.begin("consume");
  monitor.watch({Relation::R1, ProxyKind::End, ProxyKind::Begin}, "produce",
                "consume",
                [](const std::string&, const std::string&, bool, Confidence) {
                });
  monitor.record("produce", sys.local(0));
  const WireMessage m = sys.send(0);
  monitor.record("produce", m.source);
  monitor.complete("produce");
  monitor.record("consume", sys.deliver(1, m));
  monitor.complete("consume");

  ASSERT_EQ(monitor.waterfalls().size(), 1u);
  const obs::Waterfall& fall = monitor.waterfalls().front();
  EXPECT_EQ(fall.x, "produce");
  EXPECT_EQ(fall.y, "consume");
  EXPECT_TRUE(fall.definite);  // direct observer
  EXPECT_EQ(fall.fire_index, 1);

  // The waterfall invariant: stages follow the pipeline taxonomy in order,
  // are contiguous clamped-monotone, and sum exactly to the end-to-end
  // detection latency.
  const auto taxonomy = obs::detect_stages();
  ASSERT_EQ(fall.stages.size(), taxonomy.size());
  for (std::size_t i = 0; i < taxonomy.size(); ++i) {
    EXPECT_EQ(fall.stages[i].stage, taxonomy[i]);
  }
  EXPECT_TRUE(fall.monotone());
  std::uint64_t sum = 0;
  for (const obs::StageSpan& s : fall.stages) sum += s.duration_us;
  EXPECT_EQ(sum, fall.total_us());
  EXPECT_EQ(fall.start_us + fall.total_us(), fall.end_us());
}

TEST(OnlineMonitorTest, DeadlineWatchesEmitWaterfallsToo) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.set_latency_tracking(true);
  monitor.begin("req");
  const WireMessage m = sys.send(0, 1000);
  monitor.record("req", m.source);
  monitor.complete("req");
  monitor.begin("rsp");
  monitor.record("rsp", sys.deliver(1, m, 4000));
  monitor.complete("rsp");
  monitor.watch_deadline(
      TimingConstraint{"rt", Anchor::End, Anchor::End, 0, 2500}, "req", "rsp",
      [](const std::string&, const std::string&, Duration, bool, Confidence) {
      });
  ASSERT_EQ(monitor.waterfalls().size(), 1u);
  EXPECT_TRUE(monitor.waterfalls().front().monotone());
}

TEST(OnlineMonitorTest, LatencyTrackingOffEmitsNothing) {
  OnlineSystem sys(2);
  OnlineMonitor monitor(sys);
  monitor.begin("a");
  monitor.record("a", sys.local(0));
  monitor.complete("a");
  monitor.watch({Relation::R4, ProxyKind::Begin, ProxyKind::End}, "a", "a",
                [](const std::string&, const std::string&, bool, Confidence) {
                });
  EXPECT_TRUE(monitor.waterfalls().empty());
}

// ---------------------------------------------------------------------------
// Proxy-summary property: the 32-relation online evaluation matches the
// offline naive evaluation of R(X̂, Ŷ) on the Defn-2 proxies.
// ---------------------------------------------------------------------------

class OnlineMonitorPropertyTest
    : public ::testing::TestWithParam<WorkloadConfig> {};

TEST_P(OnlineMonitorPropertyTest, ProxyRelationsMatchOffline) {
  const Execution exec = generate_execution(GetParam());
  const Timestamps ts(exec);
  const OnlineSystem sys = replay(exec);
  Xoshiro256StarStar rng(GetParam().seed ^ 0x0711);
  IntervalSpec spec;
  spec.node_count = std::max<std::size_t>(1, exec.process_count() / 2);
  spec.max_events_per_node = 3;
  for (int trial = 0; trial < 15; ++trial) {
    const NonatomicEvent x = random_interval(exec, rng, spec, "X");
    const NonatomicEvent y = random_interval(exec, rng, spec, "Y");
    IntervalTracker tx("X"), ty("Y");
    for (const EventId& e : x.events()) tx.add(sys, e);
    for (const EventId& e : y.events()) ty.add(sys, e);
    const IntervalSummary sx = tx.summary(), sy = ty.summary();
    for (const RelationId& id : all_relation_ids()) {
      QueryCost counter;
      const bool online = evaluate_online(id, sx, sy, counter);
      const bool offline =
          evaluate_naive(id.relation, x.proxy_per_node(id.proxy_x),
                         y.proxy_per_node(id.proxy_y), ts, Semantics::Weak);
      ASSERT_EQ(online, offline) << to_string(id) << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OnlineMonitorPropertyTest,
                         ::testing::ValuesIn(property_sweep()),
                         testing::sweep_case_name);

}  // namespace
}  // namespace syncon
