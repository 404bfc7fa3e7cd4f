// The registered cross-layer conformance properties hold on generated
// cases, and the driver that sweeps them is deterministic by seed.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "check/driver.hpp"
#include "check/generators.hpp"
#include "check/properties.hpp"
#include "helpers.hpp"
#include "support/contracts.hpp"

namespace syncon::check {
namespace {

TEST(CheckPropertiesTest, RegistryExposesAllElevenProperties) {
  EXPECT_EQ(all_properties().size(), 11u);
  for (const PropertyInfo& info : all_properties()) {
    EXPECT_EQ(find_property(info.name), &info);
    EXPECT_FALSE(info.description.empty());
  }
  EXPECT_EQ(find_property("no_such_property"), nullptr);
}

TEST(CheckPropertiesTest, AllPropertiesHoldOnGeneratedCases) {
  const int iters = testing::test_iters(12);
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = case_seed_for(7, static_cast<std::size_t>(i));
    SYNCON_SEED_TRACE(seed);
    const CheckCase c = generate_case(seed);
    for (const PropertyInfo& info : all_properties()) {
      const PropertyResult result = run_property_on_case(info, c);
      EXPECT_TRUE(result.passed)
          << info.name << " failed: " << result.message;
    }
  }
}

TEST(CheckPropertiesTest, RunPropertyConvertsExceptionsToFailures) {
  const PropertyInfo crashing{
      "crashing", "always throws",
      +[](const CheckCase&) -> PropertyResult {
        throw std::runtime_error("boom");
      }};
  const PropertyResult result =
      run_property_on_case(crashing, generate_case(1));
  EXPECT_FALSE(result.passed);
  EXPECT_NE(result.message.find("boom"), std::string::npos);
}

TEST(CheckPropertiesTest, MonitorPropertyIsVacuousWhenYInsideX) {
  // Y ⊆ X: the monitor cannot double-claim shared events, so the property
  // declares the case out of scope rather than failing.
  CheckCase c;
  c.events_per_process = {2, 1};
  c.x_members = {EventId{0, 1}, EventId{0, 2}, EventId{1, 1}};
  c.y_members = {EventId{0, 2}};
  const PropertyInfo* info = find_property("monitor_faulty_vs_clean");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(run_property_on_case(*info, c).passed);
}

TEST(CheckPropertiesTest, DriverIsDeterministicBySeed) {
  DriverOptions options;
  options.seed = 2026;
  options.max_cases = 6;
  options.properties = {"fast_vs_naive", "timestamp_ll_forms"};
  const DriverReport a = run_conformance(options);
  const DriverReport b = run_conformance(options);
  EXPECT_EQ(a.cases_run, 6u);
  EXPECT_EQ(a.property_runs, 12u);
  EXPECT_EQ(a.cases_run, b.cases_run);
  EXPECT_EQ(a.property_runs, b.property_runs);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
}

TEST(CheckPropertiesTest, DriverRejectsUnknownPropertyNames) {
  DriverOptions options;
  options.properties = {"not_a_property"};
  EXPECT_THROW(run_conformance(options), ContractViolation);
}

TEST(CheckPropertiesTest, DriverTimeBudgetTerminates) {
  DriverOptions options;
  options.seed = 5;
  options.max_cases = 0;  // unlimited — the budget is the only stop
  options.budget_seconds = 0.2;
  options.properties = {"predicate_roundtrip"};
  const DriverReport report = run_conformance(options);
  EXPECT_GE(report.cases_run, 1u);
  EXPECT_TRUE(report.ok());
}

TEST(CheckPropertiesTest, DriverStreamsProgressToLog) {
  DriverOptions options;
  options.seed = 9;
  options.max_cases = 50;  // exactly one progress line
  options.properties = {"predicate_roundtrip"};
  std::ostringstream log;
  const DriverReport clean = run_conformance(options, &log);
  EXPECT_TRUE(clean.ok());
  EXPECT_NE(log.str().find("50 cases"), std::string::npos);
  EXPECT_NE(log.str().find("50 property runs"), std::string::npos);
}

}  // namespace
}  // namespace syncon::check
