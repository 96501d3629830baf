/**
 * @file
 * Unit tests for src/util: packets, serialization, bounded queues, RNG
 * and common helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "util/bounded_queue.h"
#include "util/common.h"
#include "util/packet.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace bisc {
namespace {

TEST(Common, SizeLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1048576u);
    EXPECT_EQ(2_GiB, 2147483648ull);
}

TEST(Common, TimeConversions)
{
    EXPECT_DOUBLE_EQ(toSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(toMicros(kUsec), 1.0);
    EXPECT_EQ(fromSeconds(1.5), 1500 * kMsec);
}

TEST(Common, TransferTicks)
{
    // 1 GiB/s moving 1 MiB = ~1 ms.
    Tick t = transferTicks(1_MiB, static_cast<double>(1_GiB));
    EXPECT_NEAR(static_cast<double>(t), static_cast<double>(kSec) / 1024,
                1.0);
    EXPECT_EQ(transferTicks(0, 1e9), 0u);
    // Non-zero transfers always take at least one tick.
    EXPECT_GE(transferTicks(1, 1e18), 1u);
}

TEST(Common, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(divCeil(1, 100), 1);
}

TEST(Packet, PutGetRoundTrip)
{
    Packet p;
    p.put<std::uint32_t>(42);
    p.put<double>(3.5);
    p.putString("hello");
    EXPECT_EQ(p.get<std::uint32_t>(), 42u);
    EXPECT_EQ(p.get<double>(), 3.5);
    EXPECT_EQ(p.getString(), "hello");
    EXPECT_TRUE(p.exhausted());
}

TEST(Packet, RawBytes)
{
    const char data[] = "biscuit";
    Packet p(data, sizeof(data));
    EXPECT_EQ(p.size(), sizeof(data));
    char out[sizeof(data)];
    p.getBytes(out, sizeof(data));
    EXPECT_STREQ(out, "biscuit");
}

TEST(Packet, RewindAndClear)
{
    Packet p;
    p.put<int>(7);
    EXPECT_EQ(p.get<int>(), 7);
    p.rewind();
    EXPECT_EQ(p.get<int>(), 7);
    p.clear();
    EXPECT_EQ(p.size(), 0u);
    EXPECT_TRUE(p.exhausted());
}

TEST(Packet, UnderrunPanics)
{
    Packet p;
    p.put<std::uint8_t>(1);
    (void)p.get<std::uint8_t>();
    EXPECT_DEATH((void)p.get<std::uint32_t>(), "packet underrun");
}

TEST(Serialize, Scalars)
{
    Packet p = serialize(123456789ull);
    EXPECT_EQ(deserialize<std::uint64_t>(p), 123456789ull);

    Packet q = serialize(-2.25);
    EXPECT_EQ(deserialize<double>(q), -2.25);
}

TEST(Serialize, Strings)
{
    Packet p = serialize(std::string("near-data processing"));
    EXPECT_EQ(deserialize<std::string>(p), "near-data processing");
}

TEST(Serialize, PairAndTuple)
{
    auto v = std::make_pair(std::string("word"), std::uint32_t{9});
    Packet p = serialize(v);
    auto w = deserialize<std::pair<std::string, std::uint32_t>>(p);
    EXPECT_EQ(w, v);

    auto t = std::make_tuple(std::int32_t{-1}, std::string("x"), 2.0);
    Packet q = serialize(t);
    auto u = deserialize<std::tuple<std::int32_t, std::string, double>>(q);
    EXPECT_EQ(u, t);
}

TEST(Serialize, Vectors)
{
    std::vector<std::string> v{"a", "bb", "ccc"};
    Packet p = serialize(v);
    EXPECT_EQ(deserialize<std::vector<std::string>>(p), v);

    std::vector<std::pair<std::string, std::uint32_t>> kv{
        {"apple", 3}, {"pie", 1}};
    Packet q = serialize(kv);
    auto out =
        deserialize<std::vector<std::pair<std::string, std::uint32_t>>>(q);
    EXPECT_EQ(out, kv);
}

TEST(Serialize, NestedPacket)
{
    Packet inner;
    inner.putString("payload");
    Packet p = serialize(inner);
    Packet out = deserialize<Packet>(p);
    EXPECT_EQ(out, inner);
}

TEST(Serialize, PacketCrossesPortsAsItself)
{
    Packet sent;
    sent.putString("page bytes");
    (void)sent.get<std::uint32_t>();  // the sender read part of it
    Packet nested = serialize(sent);

    // Moved, charged as the nested form, read from the start.
    Packet wire = PortWire<Packet>::pack(sent);
    EXPECT_EQ(PortWire<Packet>::bytes(wire), nested.size());
    Packet got;
    PortWire<Packet>::unpack(wire, got);
    EXPECT_EQ(got, deserialize<Packet>(nested));
    EXPECT_EQ(got.getString(), "page bytes");

    // Inside a pair it still nests, copied once into its slot.
    auto pair = std::make_pair(got, std::uint32_t{7});
    Packet p = serialize(pair);
    EXPECT_EQ((deserialize<std::pair<Packet, std::uint32_t>>(p)), pair);
}

TEST(Serialize, TraitDetection)
{
    static_assert(IsSerializable<int>::value);
    static_assert(IsSerializable<std::string>::value);
    static_assert(IsSerializable<std::vector<double>>::value);
    static_assert(
        IsSerializable<std::pair<std::string, std::uint64_t>>::value);
    static_assert(!IsSerializable<std::map<int, int>>::value);
    SUCCEED();
}

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.tryPush(i));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.tryPush(99));
    for (int i = 0; i < 4; ++i) {
        auto v = q.tryPop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(BoundedQueue, WrapAround)
{
    BoundedQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(q.tryPush(round));
        EXPECT_TRUE(q.tryPush(round + 100));
        EXPECT_EQ(*q.tryPop(), round);
        EXPECT_EQ(*q.tryPop(), round + 100);
    }
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, MoveOnlyElements)
{
    BoundedQueue<std::unique_ptr<int>> q(2);
    EXPECT_TRUE(q.tryPush(std::make_unique<int>(5)));
    auto v = q.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, 5);
}

TEST(BoundedQueue, FrontPeek)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.front(), nullptr);
    q.tryPush(11);
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), 11);
    EXPECT_EQ(q.size(), 1u);  // peek does not consume
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, SeedFromEnvFallsBackAndOverrides)
{
    // No override: the fallback is used verbatim.
    unsetenv("BISCUIT_SEED");
    EXPECT_EQ(seedFromEnv(1234), 1234u);

    // Decimal and hex overrides both parse.
    setenv("BISCUIT_SEED", "4321", 1);
    EXPECT_EQ(seedFromEnv(1234), 4321u);
    setenv("BISCUIT_SEED", "0xff", 1);
    EXPECT_EQ(seedFromEnv(1234), 255u);

    // Garbage falls back instead of silently seeding with 0.
    setenv("BISCUIT_SEED", "not-a-number", 1);
    EXPECT_EQ(seedFromEnv(1234), 1234u);
    unsetenv("BISCUIT_SEED");
}

TEST(Rng, BelowInRange)
{
    Rng r(seedFromEnv(7));
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(seedFromEnv(7));
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(seedFromEnv(9));
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ZipfSkewsLow)
{
    Rng r(seedFromEnv(11));
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        auto v = r.zipf(1000, 1.0);
        EXPECT_LT(v, 1000u);
        low += (v < 100);
    }
    // A zipf-ish draw should hit the low decile far more than 10%.
    EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.3);
}

}  // namespace
}  // namespace bisc
