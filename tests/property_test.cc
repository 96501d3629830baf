/**
 * @file
 * Property-based tests (parameterized sweeps): each suite drives a
 * component with randomized operation sequences and checks invariants
 * against a simple reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/types.h"
#include "fs/file_system.h"
#include "ftl/ftl.h"
#include "nand/nand.h"
#include "ok_done.h"
#include "pm/pattern_matcher.h"
#include "runtime/allocator.h"
#include "sim/kernel.h"
#include "sisc/env.h"
#include "util/rng.h"

namespace bisc {
namespace {

// ===== Allocator: random alloc/free against a shadow model =====

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AllocatorProperty, RandomChurnKeepsInvariants)
{
    Rng rng(seedFromEnv(GetParam()));
    rt::Allocator a("prop", 1_MiB);
    struct Block
    {
        rt::MemAddr addr;
        Bytes size;
    };
    std::vector<Block> live;
    Bytes shadow_used = 0;

    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            Bytes want = 1 + rng.below(8192);
            auto addr = a.allocate(want);
            if (!addr)
                continue;
            Bytes rounded = (want + 15) / 16 * 16;
            // No overlap with any live block.
            for (const auto &b : live) {
                bool disjoint = *addr + rounded <= b.addr ||
                                b.addr + b.size <= *addr;
                ASSERT_TRUE(disjoint)
                    << "overlap at step " << step;
            }
            ASSERT_EQ(*addr % rt::Allocator::kAlignment, 0u);
            live.push_back({*addr, rounded});
            shadow_used += rounded;
        } else {
            std::size_t i = rng.below(live.size());
            a.free(live[i].addr);
            shadow_used -= live[i].size;
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(a.used(), shadow_used);
        ASSERT_EQ(a.liveBlocks(), live.size());
    }
    // Free everything: the arena must coalesce back to one block.
    for (const auto &b : live)
        a.free(b.addr);
    EXPECT_EQ(a.used(), 0u);
    EXPECT_EQ(a.largestFree(), a.capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ===== FTL: random writes/trims against an in-memory shadow =====

struct FtlGeoParam
{
    std::uint32_t channels;
    std::uint32_t ways;
    std::uint32_t pages_per_block;
};

class FtlProperty : public ::testing::TestWithParam<FtlGeoParam>
{};

TEST_P(FtlProperty, RandomTrafficPreservesData)
{
    auto p = GetParam();
    nand::Geometry geo;
    geo.channels = p.channels;
    geo.ways_per_channel = p.ways;
    geo.pages_per_block = p.pages_per_block;
    geo.page_size = 1_KiB;
    geo.blocks_per_die = 8;

    sim::Kernel kernel;
    nand::NandFlash nand(kernel, geo, nand::NandTiming{});
    ftl::Ftl ftl(kernel, nand, ftl::FtlParams{});

    Rng rng(seedFromEnv(p.channels * 1000 + p.ways * 100 +
                        p.pages_per_block));
    const ftl::Lpn space =
        std::min<ftl::Lpn>(24, ftl.logicalPages() / 2);
    std::map<ftl::Lpn, std::uint8_t> shadow;
    std::vector<std::uint8_t> buf(geo.page_size);

    for (int step = 0; step < 1200; ++step) {
        ftl::Lpn lpn = rng.below(space);
        double dice = rng.uniform();
        if (dice < 0.6) {
            auto tag = static_cast<std::uint8_t>(rng.below(256));
            std::fill(buf.begin(), buf.end(), tag);
            ftl.write(lpn, buf.data(), buf.size());
            shadow[lpn] = tag;
        } else if (dice < 0.75) {
            ftl.trim(lpn);
            shadow.erase(lpn);
        } else {
            okDone(ftl.read(lpn, 0, buf.size(), buf.data()));
            auto it = shadow.find(lpn);
            std::uint8_t want =
                it == shadow.end() ? 0 : it->second;
            ASSERT_EQ(buf[0], want) << "lpn " << lpn << " step "
                                    << step;
            ASSERT_EQ(buf[buf.size() - 1], want);
        }
    }
    // GC must have run under this much churn, and data survives.
    EXPECT_GT(ftl.gcRuns(), 0u);
    for (const auto &[lpn, tag] : shadow) {
        okDone(ftl.read(lpn, 0, buf.size(), buf.data()));
        EXPECT_EQ(buf[0], tag) << "lpn " << lpn;
    }
    EXPECT_GT(ftl.freeBlocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FtlProperty,
    ::testing::Values(FtlGeoParam{2, 1, 4}, FtlGeoParam{2, 2, 4},
                      FtlGeoParam{4, 2, 4}, FtlGeoParam{1, 1, 8},
                      FtlGeoParam{4, 1, 8}, FtlGeoParam{8, 2, 4}));

// ===== FS: random extend/write/read against a byte-vector model ====

class FsProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FsProperty, RandomIoMatchesReferenceFile)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    fs::FileSystem fsys(dev);
    Rng rng(seedFromEnv(GetParam()));

    fsys.create("/prop");
    std::vector<std::uint8_t> ref;  // reference contents

    kernel.spawn("driver", [&] {
        for (int step = 0; step < 300; ++step) {
            Bytes off = rng.below(40_KiB);
            Bytes len = 1 + rng.below(6_KiB);
            if (rng.chance(0.5)) {
                std::vector<std::uint8_t> data(len);
                for (auto &b : data)
                    b = static_cast<std::uint8_t>(rng.below(256));
                Tick done =
                    fsys.write("/prop", off, data.data(), len);
                sim::Kernel::current().sleepUntil(done);
                if (ref.size() < off + len)
                    ref.resize(off + len, 0);
                std::copy(data.begin(), data.end(),
                          ref.begin() + off);
            } else {
                std::vector<std::uint8_t> out(len, 0xAB);
                Tick done =
                    okDone(fsys.read("/prop", off, len, out.data()));
                sim::Kernel::current().sleepUntil(done);
                Bytes avail = off < ref.size()
                                  ? std::min<Bytes>(len,
                                                    ref.size() - off)
                                  : 0;
                for (Bytes i = 0; i < avail; ++i)
                    ASSERT_EQ(out[i], ref[off + i])
                        << "off " << off << "+" << i;
            }
            ASSERT_EQ(fsys.size("/prop"), ref.size());
        }
    });
    kernel.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ===== Search kernel and matcher vs a naive O(n*m) search =====

/** Reference search: compare the key at every offset. */
std::size_t
naiveFind(const std::uint8_t *data, std::size_t len,
          const std::string &key, std::size_t from = 0)
{
    for (std::size_t i = from; i + key.size() <= len; ++i) {
        if (std::memcmp(data + i, key.data(), key.size()) == 0)
            return i;
    }
    return std::string::npos;
}

std::uint64_t
naiveCount(const std::uint8_t *data, std::size_t len,
           const std::string &key)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i + key.size() <= len; ++i)
        n += std::memcmp(data + i, key.data(), key.size()) == 0;
    return n;
}

class SearchKernelProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SearchKernelProperty, AgreesWithNaiveSearch)
{
    Rng rng(seedFromEnv(GetParam()));
    for (int round = 0; round < 300; ++round) {
        // Keys of 1 and 16 bytes (the matcher's limits) and between;
        // every third key starts and ends with the same byte.
        const std::size_t m = round % 4 == 0   ? 1
                              : round % 4 == 1 ? 16
                                               : 2 + rng.below(14);
        std::string key;
        for (std::size_t i = 0; i < m; ++i)
            key.push_back(static_cast<char>('a' + rng.below(3)));
        if (round % 3 == 0)
            key.back() = key.front();

        // Haystacks shorter than one vector step plus the key (the
        // scalar tail alone), one 4 KiB page, and odd sizes between.
        const std::size_t len = round % 3 == 0   ? rng.below(16 + m)
                                : round % 3 == 1 ? 4096
                                                 : 1 + rng.below(3000);
        std::vector<std::uint8_t> hay(len);
        // A two-letter alphabet on some rounds makes overlapping
        // repeats of keys like "aaaa" common.
        const std::uint64_t letters = round % 5 == 0 ? 1 : 3;
        for (auto &b : hay)
            b = static_cast<std::uint8_t>('a' + rng.below(letters));
        // Plant the key across the 16-byte lane edges and at the end.
        for (std::size_t at : {std::size_t{15}, std::size_t{16},
                               std::size_t{31}, std::size_t{33},
                               len - std::min(len, m)}) {
            if (at + m <= len && rng.chance(0.5))
                std::memcpy(hay.data() + at, key.data(), m);
        }

        ASSERT_EQ(pm::count(hay.data(), len, key),
                  naiveCount(hay.data(), len, key))
            << "key " << key << " len " << len;
        for (std::size_t from = 0; from <= len + 1;
             from += 1 + (from < 48 ? 0 : rng.below(64))) {
            ASSERT_EQ(pm::find(hay.data(), len, key, from),
                      naiveFind(hay.data(), len, key, from))
                << "key " << key << " len " << len << " from " << from;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchKernelProperty,
                         ::testing::Values(1, 5, 42, 777, 2026));

class MatcherProperty : public ::testing::TestWithParam<std::uint64_t>
{};

// Named for the host Boyer-Moore searcher it first compared against;
// the matcher and the host grep now share pm::find, so the reference
// is the naive search above.
TEST_P(MatcherProperty, AgreesWithBoyerMoore)
{
    Rng rng(seedFromEnv(GetParam()));
    // Small alphabet so hits actually occur.
    std::vector<std::uint8_t> hay(8192);
    for (auto &b : hay)
        b = static_cast<std::uint8_t>('a' + rng.below(4));

    for (int round = 0; round < 40; ++round) {
        std::size_t len = 2 + rng.below(6);
        std::string key;
        for (std::size_t i = 0; i < len; ++i)
            key.push_back(static_cast<char>('a' + rng.below(4)));

        pm::KeySet ks;
        ASSERT_TRUE(ks.addKey(key));
        pm::PatternMatcher ip;
        ip.configure(ks);

        auto hits = ip.findAll(hay.data(), hay.size());
        EXPECT_EQ(hits.size(), naiveCount(hay.data(), hay.size(), key))
            << "key " << key;
        auto r = ip.scan(hay.data(), hay.size());
        const std::size_t first = naiveFind(hay.data(), hay.size(), key);
        EXPECT_EQ(r.any, first != std::string::npos);
        if (r.any) {
            EXPECT_EQ(r.first_offset[0], first);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherProperty,
                         ::testing::Values(3, 7, 9, 101, 2026));

// ===== LIKE matcher vs a brute-force reference =====

class LikeProperty : public ::testing::TestWithParam<std::uint64_t>
{};

/** Exponential reference matcher (correct by construction). */
bool
likeRef(const std::string &t, const std::string &p, std::size_t ti = 0,
        std::size_t pi = 0)
{
    if (pi == p.size())
        return ti == t.size();
    if (p[pi] == '%') {
        for (std::size_t skip = 0; ti + skip <= t.size(); ++skip) {
            if (likeRef(t, p, ti + skip, pi + 1))
                return true;
        }
        return false;
    }
    return ti < t.size() && t[ti] == p[pi] &&
           likeRef(t, p, ti + 1, pi + 1);
}

TEST_P(LikeProperty, AgreesWithReference)
{
    Rng rng(seedFromEnv(GetParam()));
    for (int round = 0; round < 300; ++round) {
        std::string text, pattern;
        std::size_t tn = rng.below(12);
        for (std::size_t i = 0; i < tn; ++i)
            text.push_back(static_cast<char>('a' + rng.below(3)));
        std::size_t pn = rng.below(8);
        for (std::size_t i = 0; i < pn; ++i) {
            if (rng.chance(0.3))
                pattern.push_back('%');
            else
                pattern.push_back(
                    static_cast<char>('a' + rng.below(3)));
        }
        EXPECT_EQ(db::likeMatch(text, pattern),
                  likeRef(text, pattern))
            << "text '" << text << "' pattern '" << pattern << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LikeProperty,
                         ::testing::Values(1, 4, 9, 16, 25));

// ===== Key derivation soundness: keyed pages are a superset =====

class KeyDerivationProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(KeyDerivationProperty, KeysNeverMissASatisfyingRow)
{
    // Soundness: if a row satisfies the predicate, its encoded form
    // must contain at least one derived key (conservative filter).
    Rng rng(seedFromEnv(GetParam()));
    db::Schema schema({db::col("day", db::Type::Date),
                       db::col("mode", db::Type::String, 8)});

    const char *modes[4] = {"MAIL", "SHIP", "AIR", "RAIL"};
    for (int round = 0; round < 60; ++round) {
        // Random date-range predicate.
        int y = 1992 + static_cast<int>(rng.below(6));
        int m = 1 + static_cast<int>(rng.below(10));
        int span = static_cast<int>(rng.below(3));
        auto pred = db::between(
            schema, "day", db::makeDate(y, m, 1),
            db::makeDate(y, m + span, 28));
        auto kd = db::deriveKeys(*pred, schema);
        ASSERT_TRUE(kd.offloadable);

        pm::PatternMatcher ip;
        ip.configure(kd.keys);

        for (int trial = 0; trial < 50; ++trial) {
            db::Row row{
                db::makeDate(1992 + static_cast<int>(rng.below(7)),
                             1 + static_cast<int>(rng.below(12)),
                             1 + static_cast<int>(rng.below(28))),
                std::string(modes[rng.below(4)])};
            std::vector<std::uint8_t> slot(schema.rowWidth());
            schema.encodeRow(row, slot.data());
            bool satisfied = db::evalPred(*pred, row);
            bool keyed = ip.matches(slot.data(), slot.size());
            if (satisfied) {
                EXPECT_TRUE(keyed)
                    << "derived keys missed a satisfying row";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyDerivationProperty,
                         ::testing::Values(2, 6, 10, 14));

// ===== Kernel determinism: same program, same timeline =====

class KernelDeterminism : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(KernelDeterminism, ReplayProducesIdenticalTrace)
{
    auto trace = [](std::uint64_t seed) {
        sim::Kernel k;
        Rng rng(seed);
        std::vector<std::pair<Tick, int>> events;
        for (int f = 0; f < 8; ++f) {
            k.spawn("f" + std::to_string(f), [&, f] {
                Rng local(seed ^ f);
                for (int i = 0; i < 30; ++i) {
                    sim::Kernel::current().sleep(
                        1 + local.below(97));
                    events.emplace_back(
                        sim::Kernel::current().now(), f);
                }
            });
        }
        k.run();
        return events;
    };
    std::uint64_t seed = seedFromEnv(GetParam());
    auto a = trace(seed);
    auto b = trace(seed);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDeterminism,
                         ::testing::Values(17, 34, 51));

}  // namespace
}  // namespace bisc
