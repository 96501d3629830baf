/**
 * @file
 * The statistics layer's correctness contract: zone-map pruning and
 * histogram estimates may change *where* a scan reads, never *what*
 * it returns.
 *
 *  1. Histogram estimators behave (bounds, monotonicity, clamping).
 *  2. Zone maps tile the table exactly and prune plans are sound
 *     (a skipped chunk provably holds no matching row).
 *  3. Shard-local runs are a partition of the global prune plan at
 *     every drive count — prune decisions are topology-invariant.
 *  4. Property test, >= 20 seeds x drive counts {1, 2, 4}: random
 *     clustered tables and random predicates return bit-identical
 *     rows with statistics off and on, in both engine modes.
 *  5. A lane forked from a frozen device image adopts the primary's
 *     statistics and reproduces its prune decisions (same runs, same
 *     estimates, same counters, same simulated ticks), and a
 *     db::Fork also carries the primary's HostConfig.
 *  6. Keyed point lookups equal the linear path and the row-index
 *     path, present and absent keys, with and without statistics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "db/planner.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

Schema
eventsSchema()
{
    return Schema({col("id", Type::Int64), col("day", Type::Date),
                   col("qty", Type::Double),
                   col("tag", Type::String, 10)});
}

/**
 * A warehouse-shaped fact table: id and day ascending (clustered,
 * what zone maps exploit), qty and tag seed-dependent noise.
 */
std::vector<Row>
eventRows(std::uint64_t seed, std::int64_t n)
{
    Rng rng(seed);
    std::vector<Row> rows;
    rows.reserve(n);
    for (std::int64_t i = 0; i < n; ++i) {
        rows.push_back(
            {i, dateAddDays("1994-01-01", i * 730 / n),
             static_cast<double>(rng.below(100)),
             std::string(rng.below(3) == 0 ? "alpha" : "beta")});
    }
    return rows;
}

TEST(PruneStats, HistogramEstimatorBounds)
{
    EqualWidthHistogram h;
    h.lo = 0.0;
    h.hi = 64.0;
    h.buckets.assign(kHistogramBuckets, 10);
    h.total = 10 * kHistogramBuckets;

    EXPECT_DOUBLE_EQ(h.estimateLe(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.estimateLe(64.0), 1.0);
    EXPECT_DOUBLE_EQ(h.estimateLe(1000.0), 1.0);
    EXPECT_NEAR(h.estimateLe(32.0), 0.5, 0.02);

    // Uniform domain of width 64 over 64 buckets: one bucket, one
    // distinct value per unit width -> Eq estimate is one bucket's
    // share.
    EXPECT_NEAR(h.estimateEq(17.0), 1.0 / 64.0, 1e-9);
    EXPECT_NEAR(h.estimateRange(0.0, 63.9), 1.0, 0.03);
    EXPECT_LE(h.estimateRange(10.0, 20.0), h.estimateRange(5.0, 25.0));

    EqualWidthHistogram empty;
    EXPECT_TRUE(empty.empty());
}

class PruneStatsTest : public ::testing::Test
{
  protected:
    PruneStatsTest()
        : env_(ssd::testConfig(), 1),
          host_(env_.array), db_(env_, host_)
    {
        db_.planner.min_table_bytes = 8_KiB;
        db_.planner.sample_pages = 8;
        auto &t = db_.createTable("events", eventsSchema());
        t.loadRows(eventRows(1, 20000));
    }

    sisc::Env env_;
    host::HostSystem host_;
    MiniDb db_;
};

TEST_F(PruneStatsTest, ZoneMapsTileTheTable)
{
    Table &t = db_.table("events");
    auto st = t.stats();
    ASSERT_TRUE(st);
    EXPECT_EQ(st->row_count, t.rowCount());
    EXPECT_EQ(st->page_count, t.pageCount());
    ASSERT_GT(st->chunks.size(), 1u) << "table too small to chunk";

    std::uint64_t next_page = 0, rows = 0;
    double prev_id_max = -1.0;
    for (const ChunkStats &c : st->chunks) {
        EXPECT_EQ(c.first_page, next_page);  // contiguous, in order
        EXPECT_GT(c.page_count, 0u);
        next_page += c.page_count;
        rows += c.row_count;
        ASSERT_EQ(c.cols.size(), 4u);
        // id is ascending, so chunk zones are disjoint and ordered.
        EXPECT_GT(c.cols[0].num_min, prev_id_max);
        EXPECT_LE(c.cols[0].num_min, c.cols[0].num_max);
        prev_id_max = c.cols[0].num_max;
        EXPECT_LE(c.cols[1].str_min, c.cols[1].str_max);
        EXPECT_EQ(c.cols[0].null_count, 0u);
    }
    EXPECT_EQ(next_page, t.pageCount());
    EXPECT_EQ(rows, t.rowCount());

    // Int64, Date and Double columns carry histograms; String does
    // not (its selectivity stays the sampling probe's job).
    ASSERT_EQ(st->hists.size(), 4u);
    EXPECT_FALSE(st->hists[0].empty());
    EXPECT_FALSE(st->hists[1].empty());
    EXPECT_FALSE(st->hists[2].empty());
    EXPECT_TRUE(st->hists[3].empty());
    EXPECT_EQ(st->hists[0].total, t.rowCount());
}

TEST_F(PruneStatsTest, PrunePlanSoundness)
{
    Table &t = db_.table("events");
    const Schema &s = t.schema();

    // A one-month band of a two-year clustered domain: most chunks
    // provably cannot match.
    auto narrow = between(s, "day", std::string("1994-06-01"),
                          std::string("1994-06-30"));
    PrunePlan p = planPrune(t, *narrow);
    ASSERT_TRUE(p.usable);
    EXPECT_EQ(p.chunks_considered, t.stats()->chunks.size());
    EXPECT_GT(p.chunks_skipped, 0u);
    EXPECT_LT(p.pages_selected, p.pages_total);
    EXPECT_EQ(p.pages_total, t.pageCount());

    // Soundness: every row matching the predicate lives on a
    // surviving page (row i sits on global page i / rowsPerPage).
    std::set<std::uint64_t> kept;
    for (auto [first, count] : p.runs)
        for (std::uint64_t g = first; g < first + count; ++g)
            kept.insert(g);
    EXPECT_EQ(kept.size(), p.pages_selected);
    for (std::uint64_t i = 0; i < t.rowCount(); ++i) {
        Row r = t.rowAt(i);
        if (evalPred(*narrow, r)) {
            EXPECT_TRUE(kept.count(i / t.rowsPerPage()))
                << "matching row " << i << " on a pruned page";
        }
    }

    // Out-of-domain predicate: every chunk ruled out.
    auto beyond = cmp(s, "day", CmpOp::Gt, std::string("2001-01-01"));
    PrunePlan none = planPrune(t, *beyond);
    ASSERT_TRUE(none.usable);
    EXPECT_EQ(none.pages_selected, 0u);
    EXPECT_TRUE(none.runs.empty());

    // String zones span [alpha, beta] in every chunk: nothing to
    // prune, selected == total.
    auto tag = cmp(s, "tag", CmpOp::Eq, std::string("alpha"));
    PrunePlan full = planPrune(t, *tag);
    ASSERT_TRUE(full.usable);
    EXPECT_EQ(full.pages_selected, full.pages_total);
    EXPECT_EQ(full.chunks_skipped, 0u);
}

/** FNV-1a fold of every TableStats field into @p h. */
std::uint64_t
foldStats(std::uint64_t h, const TableStats &st)
{
    auto bytes = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    auto u64 = [&](std::uint64_t v) { bytes(&v, 8); };
    auto f64 = [&](double v) { bytes(&v, 8); };
    auto str = [&](const std::string &s) {
        u64(s.size());
        bytes(s.data(), s.size());
    };
    u64(st.pages_per_chunk);
    u64(st.row_count);
    u64(st.page_count);
    u64(st.chunks.size());
    for (const ChunkStats &c : st.chunks) {
        u64(c.first_page);
        u64(c.page_count);
        u64(c.row_count);
        u64(c.cols.size());
        for (const ColumnZone &z : c.cols) {
            f64(z.num_min);
            f64(z.num_max);
            str(z.str_min);
            str(z.str_max);
            u64(z.null_count);
        }
    }
    u64(st.hists.size());
    for (const EqualWidthHistogram &hist : st.hists) {
        f64(hist.lo);
        f64(hist.hi);
        u64(hist.buckets.size());
        for (std::uint64_t b : hist.buckets)
            u64(b);
        u64(hist.total);
    }
    return h;
}

/** Digest of every TPC-H table's statistics at SF 0.01. */
std::uint64_t
tpchStatsDigest(std::uint32_t drives)
{
    sisc::Env env(ssd::defaultConfig(), drives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    tpch::buildTpch(db, cfg);
    std::uint64_t h = 1469598103934665603ull;
    for (const std::string &name : db.tableNames())
        h = foldStats(h, *db.table(name).stats());
    return h;
}

TEST(PruneStats, StatsDigestIsPinned)
{
    // Pins every statistics field the builder produces. Chunks are
    // runs of global pages, so the drive count must not move it.
    const std::uint64_t tpch = tpchStatsDigest(1);
    EXPECT_EQ(tpch, tpchStatsDigest(4));
    EXPECT_EQ(tpch, 0x94a03830e024c13bull) << std::hex << tpch;

    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &t = db.createTable("events", eventsSchema());
    t.loadRows(eventRows(1, 20000));
    const std::uint64_t events =
        foldStats(1469598103934665603ull, *t.stats());
    EXPECT_EQ(events, 0xd43dfcb33b3d870full) << std::hex << events;
}

TEST(PruneShard, ShardRunsPartitionGlobalPlan)
{
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        sisc::Env env(ssd::testConfig(), drives);
        host::HostSystem host(env.array);
        MiniDb db(env, host);
        auto &t = db.createShardedTable("events", eventsSchema());
        t.loadRows(eventRows(2, 20000));

        auto pred = between(t.schema(), "day",
                            std::string("1994-10-01"),
                            std::string("1994-12-31"));
        PrunePlan p = planPrune(t, *pred);
        ASSERT_TRUE(p.usable);
        EXPECT_GT(p.chunks_skipped, 0u);

        std::set<std::uint64_t> global;
        for (auto [first, count] : p.runs)
            for (std::uint64_t g = first; g < first + count; ++g)
                global.insert(g);

        // Rebuild the global page set from the shard-local runs:
        // round-robin places global page g on shard g % n at local
        // index g / n. Every kept page must appear exactly once.
        std::set<std::uint64_t> from_shards;
        for (std::uint32_t s = 0; s < t.shardCount(); ++s) {
            std::uint64_t prev_end = 0;
            bool first_run = true;
            for (auto [first, count] : shardPruneRuns(t, p, s)) {
                EXPECT_GT(count, 0u);
                if (!first_run) {
                    EXPECT_GT(first, prev_end);  // ascending, merged
                }
                first_run = false;
                prev_end = first + count;
                for (std::uint64_t l = first; l < first + count;
                     ++l) {
                    std::uint64_t g = l * t.shardCount() + s;
                    EXPECT_TRUE(from_shards.insert(g).second)
                        << "page " << g << " twice at " << drives;
                }
            }
        }
        EXPECT_EQ(from_shards, global) << drives << " drives";
    }
}

/** One random predicate over the events schema. */
ExprPtr
randomPred(Rng &rng, const Schema &s)
{
    switch (rng.below(5)) {
    case 0: {  // clustered band
        std::string a =
            dateAddDays("1994-01-01", rng.below(700));
        return between(s, "day", a, dateAddDays(a, rng.below(90)));
    }
    case 1:  // clustered point
        return cmp(s, "day", CmpOp::Eq,
                   dateAddDays("1994-01-01", rng.below(730)));
    case 2:  // key band
        return between(s, "id",
                       static_cast<std::int64_t>(rng.below(9000)),
                       static_cast<std::int64_t>(9000 +
                                                 rng.below(9000)));
    case 3:  // unclustered: zones cannot help, rows must still match
        return cmp(s, "qty", CmpOp::Lt,
                   static_cast<double>(1 + rng.below(20)));
    default: {  // conjunction of clustered and unclustered
        std::vector<ExprPtr> kids;
        kids.push_back(between(s, "day",
                               dateAddDays("1994-01-01",
                                           rng.below(365)),
                               dateAddDays("1994-06-01",
                                           rng.below(365))));
        kids.push_back(cmp(s, "qty", CmpOp::Lt,
                           static_cast<double>(1 + rng.below(50))));
        return exprAnd(std::move(kids));
    }
    }
}

TEST(PruneProperty, PrunedRowsMatchUnprunedAcrossSeedsAndDrives)
{
    constexpr std::uint64_t kSeeds = 21;  // 7 per drive count
    const std::uint32_t drive_counts[] = {1, 2, 4};
    std::uint64_t pruned_scans = 0;

    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint32_t drives = drive_counts[seed % 3];
        sisc::Env env(ssd::testConfig(), drives);
        host::HostSystem host(env.array);
        MiniDb db(env, host);
        db.planner.min_table_bytes = 8_KiB;
        db.planner.sample_pages = 8;

        Rng rng(0xb15c0000 + seed);
        auto &t = db.createShardedTable("events", eventsSchema());
        t.loadRows(eventRows(seed, 8000 + rng.below(8000)));
        ExprPtr pred = randomPred(rng, t.schema());

        std::vector<Row> baseline;
        env.run([&] {
            for (EngineMode mode :
                 {EngineMode::Conv, EngineMode::Biscuit}) {
                for (bool use_stats : {false, true}) {
                    db.planner.use_stats = use_stats;
                    DbStats stats;
                    ScanOutcome out =
                        scanTable(db, t, pred, mode, stats);
                    if (baseline.empty() && !out.rows.empty())
                        baseline = out.rows;
                    EXPECT_EQ(out.rows, baseline)
                        << "seed " << seed << " drives " << drives
                        << " mode " << static_cast<int>(mode)
                        << " stats " << use_stats;
                    if (use_stats &&
                        stats.prune_pages_skipped > 0) {
                        ++pruned_scans;
                        EXPECT_GT(stats.prune_chunks_skipped, 0u);
                    }
                }
            }
        });
    }
    // The predicate mix is mostly clustered; pruning must actually
    // fire across the sweep, not vacuously pass.
    EXPECT_GT(pruned_scans, kSeeds / 2);
}

TEST(PruneFork, ForkedLaneReproducesPruneDecisions)
{
    const Schema schema = eventsSchema();
    constexpr std::uint32_t kDrives = 2;

    sisc::Env env(ssd::testConfig(), kDrives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 8_KiB;
    db.planner.sample_pages = 8;
    db.planner.use_stats = true;
    auto &t = db.createShardedTable("events", schema);
    t.loadRows(eventRows(3, 20000));

    sim::DeviceImage image = sisc::freezeDeviceImage(env);
    exportTableStats(db, image);

    auto pred = between(schema, "day", std::string("1995-03-01"),
                        std::string("1995-04-15"));
    struct Record
    {
        std::vector<Row> rows;
        DbStats stats;
        double est = -1.0;
        std::string note;
        Tick elapsed = 0;
    };
    auto scan = [&pred](sisc::Env &e, MiniDb &d) {
        Record r;
        e.run([&] {
            Tick t0 = e.kernel.now();
            ScanOutcome out =
                scanTable(d, d.table("events"), pred,
                          EngineMode::Biscuit, r.stats);
            r.elapsed = e.kernel.now() - t0;
            r.rows = std::move(out.rows);
            r.est = out.est_selectivity;
            r.note = out.note;
        });
        return r;
    };

    Record primary = scan(env, db);
    ASSERT_FALSE(primary.rows.empty());
    ASSERT_GT(primary.stats.prune_pages_skipped, 0u);

    sisc::Env lane(image);
    host::HostSystem lhost(lane.array);
    MiniDb ldb(lane, lhost);
    ldb.planner = db.planner;
    ldb.attachShardedTable("events", schema, t.rowCount(), kDrives);
    ASSERT_FALSE(ldb.table("events").stats());
    adoptTableStats(ldb, image);
    auto adopted = ldb.table("events").stats();
    ASSERT_TRUE(adopted);
    // Shared, not rebuilt: the fork sees the primary's instance.
    EXPECT_EQ(adopted.get(), t.stats().get());

    Record fork = scan(lane, ldb);
    EXPECT_EQ(fork.rows, primary.rows);
    EXPECT_EQ(fork.est, primary.est);
    EXPECT_EQ(fork.note, primary.note);
    EXPECT_EQ(fork.elapsed, primary.elapsed);
    EXPECT_EQ(fork.stats.prune_chunks_considered,
              primary.stats.prune_chunks_considered);
    EXPECT_EQ(fork.stats.prune_chunks_skipped,
              primary.stats.prune_chunks_skipped);
    EXPECT_EQ(fork.stats.prune_pages_skipped,
              primary.stats.prune_pages_skipped);
    EXPECT_EQ(fork.stats.pages_scanned_device,
              primary.stats.pages_scanned_device);
    EXPECT_EQ(fork.stats.pages_to_host,
              primary.stats.pages_to_host);
}

TEST(PruneFork, ForkCarriesHostConfigAndStatistics)
{
    const Schema schema = eventsSchema();
    constexpr std::uint32_t kDrives = 2;

    // A host slower than the default at DB page work and per-I/O
    // set-up: a fork that fell back to the default HostConfig would
    // time the host side of the scan differently.
    host::HostConfig slow;
    slow.db_scan_ns_per_byte = 9.0;
    slow.io_request_cpu = Tick{20000};

    sisc::Env env(ssd::testConfig(), kDrives);
    host::HostSystem host(env.array, slow);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 8_KiB;
    db.planner.sample_pages = 8;
    db.planner.use_stats = true;
    auto &t = db.createShardedTable("events", schema);
    t.loadRows(eventRows(5, 20000));
    ASSERT_EQ(t.shardCount(), kDrives);
    ASSERT_TRUE(t.stats());

    const Catalog cat = captureCatalog(db);
    sim::DeviceImage image = sisc::freezeDeviceImage(env);
    exportTableStats(db, image);

    auto pred = between(schema, "day", std::string("1995-03-01"),
                        std::string("1995-04-15"));
    struct Record
    {
        std::vector<Row> rows;
        std::string note;
        Tick elapsed = 0;
        std::uint64_t pages_skipped = 0;
    };
    auto scan = [&pred](sisc::Env &e, MiniDb &d) {
        Record r;
        e.run([&] {
            DbStats stats;
            const Tick t0 = e.kernel.now();
            ScanOutcome out = scanTable(d, d.table("events"), pred,
                                        EngineMode::Biscuit, stats);
            r.elapsed = e.kernel.now() - t0;
            r.rows = std::move(out.rows);
            r.note = out.note;
            r.pages_skipped = stats.prune_pages_skipped;
        });
        return r;
    };

    const Record primary = scan(env, db);
    ASSERT_FALSE(primary.rows.empty());
    ASSERT_GT(primary.pages_skipped, 0u);

    Fork fork(image, cat);
    EXPECT_EQ(fork.host.config().db_scan_ns_per_byte,
              slow.db_scan_ns_per_byte);
    EXPECT_EQ(fork.db.table("events").shardCount(), kDrives);
    EXPECT_EQ(fork.db.table("events").stats().get(), t.stats().get());
    const Record forked = scan(fork.env, fork.db);
    EXPECT_EQ(forked.rows, primary.rows);
    EXPECT_EQ(forked.note, primary.note);
    EXPECT_EQ(forked.elapsed, primary.elapsed);
    EXPECT_EQ(forked.pages_skipped, primary.pages_skipped);

    // The HostConfig is what the elapsed ticks hinge on: the same
    // fork under the default host times the scan differently.
    Catalog default_host = cat;
    default_host.host = host::HostConfig{};
    Fork plain(image, default_host);
    const Record replain = scan(plain.env, plain.db);
    EXPECT_EQ(replain.rows, primary.rows);
    EXPECT_NE(replain.elapsed, primary.elapsed);
}

TEST_F(PruneStatsTest, PointLookupByKeyMatchesRowIndexLookup)
{
    Table &t = db_.table("events");
    ASSERT_TRUE(t.stats());

    // A second catalog over the same pages, attach-constructed so it
    // carries no statistics: the linear fallback path.
    MiniDb bare(env_, host_);
    bare.attachTable("events", eventsSchema(), t.rowCount());
    ASSERT_FALSE(bare.table("events").stats());

    env_.run([&] {
        // id == row index: present keys must decode the exact row on
        // both paths; the zone-mapped path reads one page.
        for (std::int64_t key : {std::int64_t{0}, std::int64_t{9973},
                                 std::int64_t{19999}}) {
            Row want = t.rowAt(static_cast<std::uint64_t>(key));

            DbStats zs;
            Row got;
            ASSERT_TRUE(pointLookupByKey(db_, t, 0, key, &got, zs));
            EXPECT_EQ(got, want) << "key " << key;
            EXPECT_EQ(zs.pages_to_host, 1u) << "key " << key;
            // The probe walks chunks in order and stops at the hit:
            // every chunk before the key's is provably skipped.
            EXPECT_EQ(zs.prune_chunks_skipped,
                      static_cast<std::uint64_t>(key) /
                          (t.rowsPerPage() * kPagesPerChunk))
                << "key " << key;

            DbStats ls;
            Row lin;
            ASSERT_TRUE(pointLookupByKey(bare,
                                         bare.table("events"), 0,
                                         key, &lin, ls));
            EXPECT_EQ(lin, want) << "key " << key;
            EXPECT_GE(ls.pages_to_host, zs.pages_to_host);
        }

        // Absent keys: zone maps reject out-of-domain probes without
        // touching a page; in-gap probes exist only off the dense
        // domain here, so probe below and above it.
        for (std::int64_t key :
             {std::int64_t{-5}, std::int64_t{20000},
              std::int64_t{1} << 40}) {
            DbStats zs;
            Row got;
            EXPECT_FALSE(
                pointLookupByKey(db_, t, 0, key, &got, zs));
            EXPECT_EQ(zs.pages_to_host, 0u);
            DbStats ls;
            EXPECT_FALSE(pointLookupByKey(bare,
                                          bare.table("events"), 0,
                                          key, &got, ls));
        }
    });
}

}  // namespace
}  // namespace bisc::db
