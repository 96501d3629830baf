/**
 * @file
 * The channel-matcher memo (SsdDevice::matchView): verdicts and grep
 * hit counts taken from it must equal a fresh search of the bytes the
 * matcher was shown, whatever happened to the flash in between — a
 * file rewritten at the same path, a NAND install over the same
 * physical page, read-retry relocation and garbage collection, a
 * freeze and forked lanes, and fault seeds that leave pages
 * uncorrectable. The matcher's obs counters still count every scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "db/table.h"
#include "db/types.h"
#include "ftl/ftl.h"
#include "host/grep.h"
#include "host/host_system.h"
#include "host/lane_runner.h"
#include "host/load_gen.h"
#include "obs/metrics.h"
#include "pm/pattern_matcher.h"
#include "sim/kernel.h"
#include "sim/stats.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "util/rng.h"

namespace bisc {
namespace {

/**
 * @p got must be what a fresh matcher loaded with @p keys reports for
 * data[0, len), plus, when @p counts, each hitting key's pm::count.
 */
void
expectFresh(const pm::MatchResult &got, const pm::KeySet &keys,
            const std::uint8_t *data, std::size_t len, bool counts)
{
    pm::PatternMatcher ip;
    ip.configure(keys);
    const pm::MatchResult want = ip.scan(data, len);
    EXPECT_EQ(got.any, want.any);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        SCOPED_TRACE("key '" + keys.keys()[i] + "'");
        EXPECT_EQ(got.hit[i], want.hit[i]);
        if (want.hit[i]) {
            EXPECT_EQ(got.first_offset[i], want.first_offset[i]);
        }
        const std::uint64_t n =
            counts && want.hit[i] ? pm::count(data, len, keys.keys()[i])
                                  : 0;
        EXPECT_EQ(got.count[i], n);
    }
}

// ----- device level -----

TEST(MatchMemo, VerdictsEqualFreshScansForRandomPagesAndWindows)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;
    Rng rng(0x3e30);

    // A three-letter alphabet and keys of one to four letters: most
    // keys occur, many times, and first hits land all over the page.
    auto randomText = [&](Bytes n) {
        std::vector<std::uint8_t> text(n);
        for (auto &c : text)
            c = static_cast<std::uint8_t>("abc"[rng.below(3)]);
        return text;
    };
    auto randomKeySet = [&] {
        pm::KeySet ks;
        const std::uint64_t keys = 1 + rng.below(3);
        while (ks.size() < keys) {
            const std::vector<std::uint8_t> k = randomText(1 + rng.below(4));
            ks.addKey(std::string(k.begin(), k.end()));
        }
        return ks;
    };

    constexpr ftl::Lpn kPages = 24;
    std::vector<Bytes> stored(kPages);
    auto program = [&](ftl::Lpn lpn, bool same_ppn) {
        // Short pages too: a full-page window over one is a padded
        // copy, never the stored bytes.
        stored[lpn] = rng.below(4) == 0 ? 1 + rng.below(page) : page;
        const std::vector<std::uint8_t> text = randomText(stored[lpn]);
        if (same_ppn)
            dev.nand().installPage(dev.ftl().physicalOf(lpn), text.data(),
                                   text.size());
        else
            dev.ftl().install(lpn, text.data(), text.size());
    };
    for (ftl::Lpn lpn = 0; lpn < kPages; ++lpn)
        program(lpn, false);
    std::vector<pm::KeySet> key_sets;
    for (int i = 0; i < 6; ++i)
        key_sets.push_back(randomKeySet());

    for (int step = 0; step < 4000; ++step) {
        const ftl::Lpn lpn = rng.below(kPages);
        if (rng.below(100) == 0) {
            program(lpn, rng.below(2) == 0);
            continue;
        }
        const pm::KeySet &keys = key_sets[rng.below(key_sets.size())];
        Bytes off = 0, len = stored[lpn];
        switch (rng.below(4)) {
          case 0:  // the whole page slot, padded when stored short
            len = page;
            break;
          case 1:  // a partial window
            off = rng.below(page);
            len = 1 + rng.below(page - off);
            break;
          default:  // the stored page itself: memoized
            break;
        }
        const bool counts = rng.below(2) == 0;
        const sim::BufferView view = dev.pageView(lpn, off, len);
        SCOPED_TRACE("step " + std::to_string(step));
        expectFresh(dev.matchView(lpn, keys, view.data(), view.size(),
                                  counts),
                    keys, view.data(), view.size(), counts);
    }
    EXPECT_GT(dev.matchMemoHits(), 1000u);
}

TEST(MatchMemo, InstallOverTheSamePhysicalPageInvalidates)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;
    std::vector<std::uint8_t> bytes(page, '.');
    std::memcpy(bytes.data() + 700, "needle needle", 13);
    dev.ftl().install(3, bytes.data(), page);
    pm::KeySet keys;
    keys.addKey("needle");

    auto match = [&] {
        const sim::BufferView view = dev.pageView(3, 0, page);
        return dev.matchView(3, keys, view.data(), view.size(), true);
    };
    EXPECT_EQ(match().count[0], 2u);
    EXPECT_EQ(match().count[0], 2u);
    EXPECT_EQ(dev.matchMemoHits(), 1u);

    // New bytes at the very same physical page, behind the FTL's back:
    // only the NAND write generation tells the memo.
    std::memcpy(bytes.data() + 700, "needle ______", 13);
    dev.nand().installPage(dev.ftl().physicalOf(3), bytes.data(), page);
    EXPECT_EQ(match().count[0], 1u);
    std::fill(bytes.begin(), bytes.end(), '.');
    dev.nand().installPage(dev.ftl().physicalOf(3), bytes.data(), page);
    EXPECT_FALSE(match().any);
}

TEST(MatchMemo, ManyKeySetsStartTheMemoOver)
{
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;
    std::vector<std::uint8_t> bytes(page, '.');
    std::memcpy(bytes.data() + 40, "k1234 k0007", 11);
    dev.ftl().install(0, bytes.data(), page);
    const sim::BufferView view = dev.pageView(0, 0, page);

    // More distinct key sets than the device interns: the memo and
    // the interned sets start over, and every verdict stays exact.
    std::size_t most = 0;
    for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < 1500; ++k) {
            char key[8];
            std::snprintf(key, sizeof(key), "k%04d", k);
            pm::KeySet keys;
            keys.addKey(key);
            const pm::MatchResult got =
                dev.matchView(0, keys, view.data(), view.size(), true);
            EXPECT_EQ(got.any, k == 1234 || k == 7) << key;
            most = std::max(most, dev.matchMemoEntries());
        }
    }
    EXPECT_EQ(most, 1024u);
    EXPECT_EQ(dev.matchMemoHits(), 0u);
}

TEST(MatchMemo, MatcherCountersCountEveryScan)
{
    obs::setEnabled(true);
    sim::Kernel kernel;
    ssd::SsdDevice dev(kernel, ssd::testConfig());
    const Bytes page = dev.config().geometry.page_size;
    std::vector<std::uint8_t> bytes(page, '.');
    std::memcpy(bytes.data() + 9, "key", 3);
    dev.ftl().install(0, bytes.data(), page);
    pm::KeySet keys;
    keys.addKey("key");

    auto counters = [&] {
        sim::Stats st;
        dev.exportStats(st);
        return st.all();
    };
    auto before = counters();
    const sim::BufferView view = dev.pageView(0, 0, page);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(dev.matchView(0, keys, view.data(), view.size()).any);
    auto after = counters();
    EXPECT_EQ(dev.matchMemoHits(), 4u);
    EXPECT_EQ(after["pm.scans"] - before["pm.scans"], 5.0);
    EXPECT_EQ(after["pm.matched_scans"] - before["pm.matched_scans"], 5.0);
    EXPECT_EQ(after["pm.bytes_scanned"] - before["pm.bytes_scanned"],
              5.0 * static_cast<double>(page));
    obs::resetEnabledFromEnv();
}

/**
 * Worn media (as in the fault-injection campaign): fresh blocks decode
 * cleanly, pages reprogrammed onto a once-erased block are hopeless.
 */
ssd::SsdConfig
wornConfig(std::uint64_t seed)
{
    ssd::SsdConfig c;
    c.geometry.channels = 2;
    c.geometry.ways_per_channel = 1;
    c.geometry.pages_per_block = 8;
    c.geometry.page_size = 2_KiB;
    c.geometry.blocks_per_die = 32;
    c.ftl_params.overprovision = 0.25;
    c.fault.enabled = true;
    c.fault.seed = seed;
    c.fault.raw_ber = 2e-4;
    c.fault.ber_pe_growth = 20.0;
    c.ecc.correctable_bits = 24;
    c.ecc.max_read_retries = 2;
    c.ecc.retry_ber_scale = 0.5;
    return c;
}

TEST(MatchMemo, UncorrectablePagesAreNeverMemoized)
{
    for (std::uint64_t seed : {7ull, 99ull, 4242ull}) {
        SCOPED_TRACE("fault seed " + std::to_string(seed));
        sisc::Env env(wornConfig(seed), 1);
        ssd::SsdDevice &dev = env.device;
        const Bytes page = env.fs.pageSize();
        constexpr std::uint64_t kPages = 48;

        // Every page carries the key; churn rewrites push the file
        // onto recycled blocks.
        Rng rng(seed);
        std::vector<std::uint8_t> bytes(kPages * page, '.');
        for (std::uint64_t p = 0; p < kPages; ++p)
            std::memcpy(bytes.data() + p * page + rng.below(page - 6),
                        "needle", 6);
        env.fs.populate("/data", bytes.data(), bytes.size());
        for (int m = 0; m < 600; ++m) {
            const std::uint64_t p = rng.below(kPages);
            env.fs.write("/data", p * page, bytes.data() + p * page, page);
        }

        pm::KeySet keys;
        keys.addKey("needle");
        keys.addKey("..");
        std::uint64_t bad = 0, memoized = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (ftl::Lpn lpn : env.fs.pagesOf("/data")) {
                const ftl::ReadViewResult rv =
                    dev.internalReadView(lpn, 0, page);
                const std::size_t entries = dev.matchMemoEntries();
                const pm::MatchResult got = dev.matchView(
                    lpn, keys, rv.view.data(), rv.view.size(), true);
                expectFresh(got, keys, rv.view.data(), rv.view.size(),
                            true);
                if (!rv.status.ok()) {
                    ++bad;
                    EXPECT_EQ(dev.matchMemoEntries(), entries)
                        << "damaged bytes of lpn " << lpn << " memoized";
                } else if (dev.matchMemoEntries() > entries) {
                    ++memoized;
                }
            }
        }
        EXPECT_GT(bad, 0u);
        EXPECT_GT(memoized, 0u);
    }
}

// ----- whole-system answers -----

constexpr const char *kLog = "/data/web.log";

db::Schema
eventSchema()
{
    return db::Schema({db::col("id", db::Type::Int64),
                       db::col("tag", db::Type::String, 8),
                       db::col("qty", db::Type::Double)});
}

/** Rows whose tags differ per @p version ("omega" is rare). */
std::vector<db::Row>
eventRows(std::uint64_t version)
{
    Rng rng(version * 7 + 1);
    const char *tags[] = {"alpha", "beta", "gamma", "delta"};
    std::vector<db::Row> rows;
    for (std::int64_t i = 0; i < 6'000; ++i) {
        const bool rare = rng.below(300) == 0;
        rows.push_back({i, std::string(rare ? "omega" : tags[rng.below(4)]),
                        static_cast<double>(rng.below(100))});
    }
    return rows;
}

std::vector<db::ExprPtr>
eventPredicates()
{
    const db::Schema s = eventSchema();
    return {db::cmp(s, "tag", db::CmpOp::Eq, std::string("beta")),
            db::cmp(s, "tag", db::CmpOp::Eq, std::string("omega"))};
}

/** Every scan on the drive: offload whatever the sampled selectivity. */
void
offloadEverything(db::MiniDb &db)
{
    db.planner.min_table_bytes = 8_KiB;
    db.planner.page_selectivity_threshold = 1.5;
}

/** The stored slots @p pred keeps, in table order. */
std::vector<std::uint8_t>
filtered(const db::Table &table, const db::Expr &pred)
{
    std::vector<std::uint8_t> out;
    const db::BoundPred match(pred, table.schema());
    table.forEachSlot([&](const std::uint8_t *slot) {
        if (match.matches(slot))
            out.insert(out.end(), slot, slot + table.rowWidth());
    });
    return out;
}

std::vector<std::uint8_t>
bytesOf(const db::RowSet &rows)
{
    if (rows.empty())
        return {};
    return {rows.slot(0), rows.slot(0) + rows.size() * rows.rowWidth()};
}

/** What the device grep must count: each page's occurrences. */
std::uint64_t
perPageCount(fs::FileSystem &fs, const std::string &path,
             const std::string &key)
{
    const Bytes page = fs.pageSize();
    const Bytes size = fs.size(path);
    std::vector<std::uint8_t> buf(page);
    std::uint64_t n = 0;
    for (Bytes off = 0; off < size; off += page) {
        const Bytes len = fs.peek(path, off, page, buf.data());
        n += pm::count(buf.data(), len, key);
    }
    return n;
}

/** Device grep count and device-scanned rows, one system's answers. */
struct Answers
{
    std::uint64_t grep = 0;
    std::vector<std::vector<std::uint8_t>> rows;
    bool offloaded = true;

    bool
    operator==(const Answers &o) const
    {
        return grep == o.grep && rows == o.rows && offloaded == o.offloaded;
    }
};

/** Run the device grep and every predicate's scan once (in a fiber). */
Answers
deviceAnswers(sisc::Env &env, db::MiniDb &db, db::Table &table)
{
    Answers a;
    a.grep = host::grepBiscuit(env.runtime, kLog, "needle").matches;
    for (const db::ExprPtr &pred : eventPredicates()) {
        db::DbStats stats;
        db::PackedScan r = db::scanTablePacked(
            db, table, pred, db::EngineMode::Biscuit, stats);
        a.offloaded = a.offloaded && r.used_ndp;
        a.rows.push_back(bytesOf(r.rows));
    }
    return a;
}

/** What deviceAnswers must return for the table and log as stored. */
Answers
wantedAnswers(sisc::Env &env, const db::Table &table)
{
    Answers a;
    a.grep = perPageCount(env.fs, kLog, "needle");
    for (const db::ExprPtr &pred : eventPredicates())
        a.rows.push_back(filtered(table, *pred));
    return a;
}

/** The bytes of the file @p path populated by @p populate. */
std::vector<std::uint8_t>
fileImage(const std::string &path,
          const std::function<void(sisc::Env &, host::HostSystem &)>
              &populate)
{
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    populate(env, host);
    std::vector<std::uint8_t> bytes(env.fs.size(path));
    env.fs.peek(path, 0, bytes.size(), bytes.data());
    return bytes;
}

TEST(MatchMemo, GrepAndScanAnswersAfterRewritesAtTheSamePath)
{
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    offloadEverything(db);
    db::Table &table = db.createShardedTable("events", eventSchema());
    table.loadRows(eventRows(0));
    host::installGrepModule(env.fs);
    host::generateWebLog(env.fs, kLog, 1_MiB, "needle", 5, 0);
    const std::uint64_t erases_before = env.device.nand().blockErases();

    // Each version rewrites the table's file and the log in place with
    // timed writes; their 1.2 MiB per version cycle the 4 MiB of
    // flash, so garbage collection hands erased physical pages that
    // held older versions to later ones.
    for (std::uint64_t version = 0; version < 8; ++version) {
        SCOPED_TRACE("version " + std::to_string(version));
        if (version > 0) {
            const auto rows = fileImage(
                table.file(), [&](sisc::Env &e, host::HostSystem &h) {
                    db::MiniDb d(e, h);
                    d.createShardedTable("events", eventSchema())
                        .loadRows(eventRows(version));
                });
            const auto log =
                fileImage(kLog, [&](sisc::Env &e, host::HostSystem &) {
                    host::generateWebLog(
                        e.fs, kLog, 1_MiB, "needle",
                        5 + static_cast<std::uint32_t>(version) * 3,
                        version);
                });
            ASSERT_EQ(rows.size(), env.fs.size(table.file()));
            env.run([&] {
                env.kernel.sleepUntil(
                    env.fs.write(table.file(), 0, rows.data(), rows.size()));
                env.kernel.sleepUntil(
                    env.fs.write(kLog, 0, log.data(), log.size()));
            });
        }
        const Answers want = wantedAnswers(env, table);
        ASSERT_GT(want.grep, 0u);
        ASSERT_FALSE(want.rows[1].empty());
        env.run([&] {
            // The second pass reads every page from the memo.
            for (int pass = 0; pass < 2; ++pass) {
                const Answers got = deviceAnswers(env, db, table);
                EXPECT_TRUE(got.offloaded);
                EXPECT_EQ(got.grep, want.grep);
                EXPECT_TRUE(got.rows == want.rows);
            }
        });
    }
    EXPECT_GT(env.device.matchMemoHits(), 0u);
    EXPECT_GT(env.device.nand().blockErases(), erases_before)
        << "no physical page was reused";
}

/**
 * Noisy media as in ScanMaterialization's relocation test: most reads
 * decode after one or two re-senses and about half are relocated.
 */
ssd::SsdConfig
noisyConfig()
{
    ssd::SsdConfig c = ssd::testConfig();
    c.geometry.blocks_per_die = 32;
    c.fault.enabled = true;
    c.fault.seed = 23;
    c.fault.raw_ber = 0.007;
    c.ftl_params.bad_block_read_events = 1'000'000;
    return c;
}

TEST(MatchMemo, AnswersSurviveRelocationAndGcMidScan)
{
    sisc::Env env(noisyConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    offloadEverything(db);
    db::Table &table = db.createShardedTable("events", eventSchema());
    table.loadRows(eventRows(3));
    host::installGrepModule(env.fs);
    host::generateWebLog(env.fs, kLog, 1_MiB, "needle", 7, 3);
    const Answers want = wantedAnswers(env, table);

    // Fill the logical space but for three blocks (the file system
    // holds a few logical pages it has not written): the first retry
    // relocations use those up and the rest run garbage collection.
    ftl::Ftl &ftl = env.device.ftl();
    const std::uint64_t block = noisyConfig().geometry.pages_per_block;
    std::vector<std::uint8_t> filler(
        (ftl.logicalPages() - ftl.mappedPages() - 3 * block) *
            env.fs.pageSize(),
        0x5a);
    env.fs.populate("/data/filler", filler.data(), filler.size());

    const std::uint64_t gc_before = ftl.gcRuns();
    const std::uint64_t relocations_before = ftl.retryRelocations();
    env.run([&] {
        for (int pass = 0; pass < 3; ++pass) {
            SCOPED_TRACE("pass " + std::to_string(pass));
            const Answers got = deviceAnswers(env, db, table);
            EXPECT_TRUE(got.offloaded);
            EXPECT_EQ(got.grep, want.grep);
            EXPECT_TRUE(got.rows == want.rows);
        }
    });
    // Every relocation is a program, which clears the memo: on media
    // this noisy it rarely holds a verdict long enough to be asked.
    EXPECT_GT(ftl.retryRelocations(), relocations_before);
    EXPECT_GT(ftl.gcRuns(), gc_before);
}

// ----- freeze and forked lanes -----

std::string
describe(const Answers &a)
{
    std::string s = "grep=" + std::to_string(a.grep) +
                    (a.offloaded ? " offloaded" : " host");
    for (const auto &rows : a.rows) {
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a
        for (std::uint8_t b : rows)
            h = (h ^ b) * 1099511628211ull;
        s += " rows=" + std::to_string(rows.size()) + "/" +
             std::to_string(h);
    }
    return s;
}

TEST(MatchMemoLane, ForkedLanesMatchTheFrozenSystem)
{
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    offloadEverything(db);
    db::Table &table = db.createShardedTable("events", eventSchema());
    table.loadRows(eventRows(5));
    host::installGrepModule(env.fs);
    host::generateWebLog(env.fs, kLog, 512_KiB, "needle", 11, 5);
    const std::string want = describe(wantedAnswers(env, table));

    // Warm the source device's memo, freeze, and ask again: the
    // freeze moves the write generation, and the answers hold.
    Answers before, after;
    env.run([&] { before = deviceAnswers(env, db, table); });
    const sim::DeviceImage image = sisc::freezeDeviceImage(env);
    const db::Catalog cat = db::captureCatalog(db);
    env.run([&] { after = deviceAnswers(env, db, table); });
    EXPECT_EQ(describe(before), want);
    EXPECT_EQ(describe(after), want);

    // Lanes fork the image on worker threads; each device owns its
    // memo, so lanes share nothing but the frozen pages.
    const host::LaneRunner runner(2);
    const std::vector<std::string> lanes =
        runner.runTranscripts(4, [&](std::size_t) {
            db::Fork fork(image, cat);
            sisc::Env &lane = fork.env;
            db::Table &t = fork.db.table("events");
            Answers first, second;
            lane.run([&] {
                first = deviceAnswers(lane, fork.db, t);
                second = deviceAnswers(lane, fork.db, t);
            });
            std::string s = describe(first);
            if (!(second == first))
                s += " (second pass differs)";
            if (lane.device.matchMemoHits() == 0)
                s += " (no memo hits)";
            return s;
        });
    for (const std::string &s : lanes)
        EXPECT_EQ(s, want);
}

}  // namespace
}  // namespace bisc
