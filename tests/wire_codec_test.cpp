// Round-trip and framing tests for the wire codec (online/wire_codec.hpp):
// the byte layout, chained delta frames on a FIFO link, the periodic
// absolute escape, resync behavior, rejection of malformed frames, and the
// size win over dense serialization that is the codec's reason to exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "online/online_system.hpp"
#include "online/wire_codec.hpp"
#include "support/contracts.hpp"
#include "support/varint.hpp"

namespace syncon {
namespace {

// A plausible FIFO stream: the sender's clock advances its own component
// every message and occasionally absorbs someone else's progress.
std::vector<WireMessage> sender_stream(std::size_t procs, int count,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> comp(0, procs - 1);
  std::uniform_int_distribution<ClockValue> bump(1, 3);
  std::vector<WireMessage> out;
  VectorClock clock(procs, 1);
  for (int i = 0; i < count; ++i) {
    clock.tick(0);
    if (i % 3 == 1) clock.set(comp(rng), clock.at(comp(rng)) + bump(rng));
    out.push_back(WireMessage{{0, static_cast<EventIndex>(i + 1)}, clock});
  }
  return out;
}

// The wire layout is a compatibility promise: journals and peers hold these
// bytes. The stream covers the first absolute frame, delta frames with one
// and several changes, a multi-byte varint, the periodic absolute escape,
// and a component that goes backwards (negative zigzag delta).
TEST(WireCodecTest, WireFormatIsPinnedByteForByte) {
  const std::vector<WireMessage> stream = {
      {{2, 1}, VectorClock({1, 1, 2, 1, 1})},
      {{2, 2}, VectorClock({1, 1, 3, 1, 1})},
      {{2, 3}, VectorClock({4, 1, 4, 1, 1})},
      {{2, 4}, VectorClock({4, 1, 5, 1, 300})},
      {{2, 5}, VectorClock({4, 2, 6, 1, 300})},   // absolute escape
      {{2, 6}, VectorClock({3, 2, 7, 1, 300})},   // component 0 regresses
      {{2, 7}, VectorClock({3, 2, 8, 1, 300})},
  };
  LinkEncoder enc(5, /*full_interval=*/4);
  std::vector<std::uint8_t> bytes;
  for (const WireMessage& m : stream) enc.encode(m, bytes);
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 0xf];
  }
  EXPECT_EQ(hex,
            "000201050200020100"      // absolute: count 5, neighbor deltas
            "010202010202"            // delta: +1 at index 2
            "0102030200060202"        // delta: +3 at 0, +1 at 2
            "01020402020202d604"      // delta: +1 at 2, +299 at 4 (varint d604)
            "0002050508030809d604"    // absolute escape (5th frame)
            "0102060200010202"        // delta: -1 at 0 (zigzag 1), +1 at 2
            "010207010202");          // delta: +1 at 2

  LinkDecoder dec(5);
  std::span<const std::uint8_t> in(bytes);
  for (const WireMessage& m : stream) EXPECT_EQ(dec.decode(in).clock, m.clock);
  EXPECT_TRUE(in.empty());
}

TEST(WireCodecTest, RoundTripsAFifoStream) {
  const auto stream = sender_stream(16, 50, 31);
  LinkEncoder enc(16, 8);
  LinkDecoder dec(16);
  std::vector<std::uint8_t> bytes;
  for (const WireMessage& m : stream) enc.encode(m, bytes);

  std::span<const std::uint8_t> in(bytes);
  for (const WireMessage& m : stream) {
    const WireMessage got = dec.decode(in);
    EXPECT_EQ(got.source, m.source);
    EXPECT_EQ(got.clock, m.clock);
  }
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(dec.synced());
}

TEST(WireCodecTest, DeltaFramesAreSmallerThanDenseSerialization) {
  const std::size_t procs = 256;
  const auto stream = sender_stream(procs, 64, 37);
  LinkEncoder enc(procs, 16);
  std::vector<std::uint8_t> delta_bytes;
  std::size_t max_delta_frame = 0;
  for (const WireMessage& m : stream) {
    const std::size_t n = enc.encode(m, delta_bytes);
    if (delta_bytes.back() != 0) {  // crude: count only non-first frames
      max_delta_frame = std::max(max_delta_frame, n);
    }
  }
  std::vector<std::uint8_t> dense_bytes;
  for (const WireMessage& m : stream) m.clock.encode(dense_bytes);
  // The chained encoding must beat even the varint-compressed dense form,
  // and individual delta frames must be far below |P| bytes.
  EXPECT_LT(delta_bytes.size(), dense_bytes.size() / 4);
  EXPECT_LT(max_delta_frame, procs / 4);
}

TEST(WireCodecTest, FullIntervalOneIsSelfSynchronizing) {
  const auto stream = sender_stream(8, 10, 41);
  LinkEncoder enc(8, 1);  // every frame absolute
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (const WireMessage& m : stream) {
    starts.push_back(bytes.size());
    enc.encode(m, bytes);
  }
  // A decoder may join at ANY frame boundary.
  for (std::size_t k = 0; k < stream.size(); ++k) {
    LinkDecoder dec(8);
    std::span<const std::uint8_t> in(bytes);
    in = in.subspan(starts[k]);
    const WireMessage got = dec.decode(in);
    EXPECT_EQ(got.clock, stream[k].clock);
  }
}

TEST(WireCodecTest, UnsyncedDeltaFrameIsRejectedUntilNextFullFrame) {
  const auto stream = sender_stream(8, 6, 43);
  LinkEncoder enc(8, 100);  // only the first frame is absolute
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (const WireMessage& m : stream) {
    starts.push_back(bytes.size());
    enc.encode(m, bytes);
  }
  LinkDecoder dec(8);
  std::span<const std::uint8_t> in(bytes);
  in = in.subspan(starts[2]);  // join mid-stream: delta frame
  EXPECT_THROW(dec.decode(in), ContractViolation);
  EXPECT_FALSE(dec.synced());
}

TEST(WireCodecTest, EncoderResetForcesAbsoluteFrameForRejoiningReceiver) {
  const auto stream = sender_stream(8, 8, 47);
  LinkEncoder enc(8, 100);
  LinkDecoder dec(8);
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 4; ++i) enc.encode(stream[static_cast<std::size_t>(i)], bytes);

  // Receiver restarts (e.g. after the resync path replayed history): it
  // asks the sender to reset, which makes the next frame absolute.
  enc.reset();
  std::vector<std::uint8_t> tail;
  for (std::size_t i = 4; i < stream.size(); ++i) enc.encode(stream[i], tail);
  std::span<const std::uint8_t> in(tail);
  for (std::size_t i = 4; i < stream.size(); ++i) {
    const WireMessage got = dec.decode(in);
    EXPECT_EQ(got.source, stream[i].source);
    EXPECT_EQ(got.clock, stream[i].clock);
  }
}

TEST(WireCodecTest, RelativeEncodingRoundTripsRandomPairs) {
  std::mt19937 rng(53);
  std::uniform_int_distribution<ClockValue> dist(0, 40);
  for (int round = 0; round < 20; ++round) {
    const std::size_t size = static_cast<std::size_t>(1 + round % 17);
    LinkEncoder enc(size, /*full_interval=*/100);  // all deltas after frame 1
    LinkDecoder dec(size);
    std::vector<std::uint8_t> bytes;
    std::vector<WireMessage> sent;
    VectorClock clock(size, 0);
    for (int frame = 0; frame < 8; ++frame) {
      for (std::size_t i = 0; i < size; ++i) {
        // Mostly unchanged components, occasionally moved in either
        // direction — deltas may be negative (resync can regress a link).
        if (dist(rng) < 8) clock.set(i, dist(rng));
      }
      sent.push_back({{0, static_cast<EventIndex>(frame + 1)}, clock});
      enc.encode(sent.back(), bytes);
    }
    std::span<const std::uint8_t> in(bytes);
    for (const WireMessage& m : sent) EXPECT_EQ(dec.decode(in).clock, m.clock);
    EXPECT_TRUE(in.empty());
  }
}

// An absolute clock whose component count exceeds the bytes left is
// malformed (each component takes at least one byte): it must be rejected
// as a contract violation before anything is sized from the count, leaving
// the input and the codec state as they were.
TEST(WireCodecTest, ImpossibleClockCountIsRejectedWithoutStateChange) {
  const auto stream = sender_stream(4, 2, 59);
  LinkEncoder enc(4, 100);
  LinkDecoder dec(4);
  std::vector<std::uint8_t> bytes;
  enc.encode(stream[0], bytes);
  enc.encode(stream[1], bytes);  // a delta frame against stream[0]
  std::span<const std::uint8_t> in(bytes);
  dec.decode(in);

  for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62}) {
    std::vector<std::uint8_t> hostile = {0 /* kFull */, 0, 9};
    encode_varint(count, hostile);
    hostile.push_back(2);
    std::span<const std::uint8_t> probe(hostile);
    WireMessage out;
    EXPECT_FALSE(dec.try_decode(probe, out)) << count;
    EXPECT_EQ(probe.data(), hostile.data());
    EXPECT_EQ(probe.size(), hostile.size());
  }
  // The link base is intact: the delta frame still decodes exactly.
  EXPECT_TRUE(dec.synced());
  EXPECT_EQ(dec.decode(in).clock, stream[1].clock);
}

TEST(WireCodecTest, CodecIntegratesWithOnlineSystemWire) {
  // End-to-end: clocks produced by the live protocol survive the codec.
  // Two sends chained on one link make the second frame a delta frame.
  OnlineSystem sys(3);
  LinkEncoder enc0(3, 4);
  LinkDecoder dec0(3);
  std::vector<std::uint8_t> bytes;

  const auto m1 = sys.send(0);
  enc0.encode(m1, bytes);
  std::span<const std::uint8_t> in1(bytes);
  const WireMessage got1 = dec0.decode(in1);
  EXPECT_EQ(got1.clock, m1.clock);
  sys.deliver(2, got1);

  bytes.clear();
  LinkEncoder enc1(3, 4);
  LinkDecoder dec1(3);
  const auto m2 = sys.send(1);
  const auto m3 = sys.send(1);
  enc1.encode(m2, bytes);
  enc1.encode(m3, bytes);
  std::span<const std::uint8_t> in2(bytes);
  const WireMessage got2 = dec1.decode(in2);
  const WireMessage got3 = dec1.decode(in2);
  EXPECT_TRUE(in2.empty());
  EXPECT_EQ(got2.clock, m2.clock);
  EXPECT_EQ(got3.clock, m3.clock);
  sys.deliver(2, got2);
  sys.deliver(2, got3);
  EXPECT_FALSE(sys.has_gap(2));
}

}  // namespace
}  // namespace syncon
