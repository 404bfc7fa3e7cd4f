// Contract suite for VectorClock as a lattice: the join/meet laws, the
// order they induce, tick monotonicity and the self-delimiting codec. The
// laws are checked on deterministic pseudo-random clocks of sizes 1..9.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "model/vector_clock.hpp"

namespace syncon {
namespace {

VectorClock join(VectorClock a, const VectorClock& b) {
  a.merge_max(b);
  return a;
}

VectorClock meet(VectorClock a, const VectorClock& b) {
  a.merge_min(b);
  return a;
}

VectorClock random_clock(std::size_t size, std::mt19937& rng,
                         ClockValue max_value = 12) {
  std::uniform_int_distribution<ClockValue> dist(0, max_value);
  VectorClock c(size, 0);
  for (std::size_t i = 0; i < size; ++i) c.set(i, dist(rng));
  return c;
}

TEST(ClockConceptTest, LatticeLaws) {
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const VectorClock a = random_clock(size, rng);
    const VectorClock b = random_clock(size, rng);
    const VectorClock c = random_clock(size, rng);

    // Commutativity.
    EXPECT_EQ(join(a, b), join(b, a));
    EXPECT_EQ(meet(a, b), meet(b, a));
    // Associativity.
    EXPECT_EQ(join(join(a, b), c), join(a, join(b, c)));
    EXPECT_EQ(meet(meet(a, b), c), meet(a, meet(b, c)));
    // Idempotence and absorption.
    EXPECT_EQ(join(a, a), a);
    EXPECT_EQ(meet(a, a), a);
    EXPECT_EQ(join(a, meet(a, b)), a);
    EXPECT_EQ(meet(a, join(a, b)), a);
  }
}

TEST(ClockConceptTest, OrderIsTheLatticeOrder) {
  std::mt19937 rng(11);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    const VectorClock a = random_clock(size, rng, 4);
    const VectorClock b = random_clock(size, rng, 4);
    // a.leq(b) iff joining a into b changes nothing.
    EXPECT_EQ(a.leq(b), join(a, b) == b);
    EXPECT_EQ(a.lt(b), a.leq(b) && !(a == b));
    EXPECT_EQ(a.incomparable(b), !a.leq(b) && !b.leq(a));
    // Antisymmetry.
    if (a.leq(b) && b.leq(a)) {
      EXPECT_EQ(a, b);
    }
    // The meet and join bracket both operands.
    EXPECT_TRUE(meet(a, b).leq(a));
    EXPECT_TRUE(a.leq(join(a, b)));
  }
}

TEST(ClockConceptTest, TickIsStrictlyMonotone) {
  std::mt19937 rng(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 9);
    VectorClock c = random_clock(size, rng);
    const VectorClock before = c;
    const std::size_t i = static_cast<std::size_t>(round) % size;
    c.tick(i);
    EXPECT_TRUE(before.lt(c));
    EXPECT_EQ(c.at(i), before.at(i) + 1);
    for (std::size_t j = 0; j < size; ++j) {
      if (j != i) {
        EXPECT_EQ(c.at(j), before.at(j));
      }
    }
  }
}

// VectorClock::encode/decode is the one absolute clock serialization.
TEST(VectorClockSerializationTest, SerializationRoundTripsAndConcatenates) {
  std::mt19937 rng(19);
  std::uniform_int_distribution<ClockValue> dist(0, 3);
  std::vector<std::uint8_t> bytes;
  std::vector<VectorClock> originals;
  for (int round = 0; round < 40; ++round) {
    // Stamped clocks have correlated adjacent components; emulate that so
    // the delta encoding's small-value path is exercised too.
    VectorClock c(static_cast<std::size_t>(1 + round % 9), 0);
    for (std::size_t i = 0; i < c.size(); ++i) {
      c.set(i, dist(rng) + (i == 0 ? 0 : c.at(i - 1)));
    }
    c.encode(bytes);
    originals.push_back(std::move(c));
  }
  std::span<const std::uint8_t> in(bytes);
  for (const VectorClock& original : originals) {
    EXPECT_EQ(VectorClock::decode(in), original);
  }
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace syncon
