/**
 * @file
 * Row materialization: RowSet::addColumn against a reference
 * re-layout, RowSet copies, and table scans whose rows must come out
 * byte-identical whatever mix of host, device and chained shards
 * produced them, at 1-4 drives, with and without a computed column
 * added after the scan, and while the FTL relocates and
 * garbage-collects under them; projected scans, whose rows must be the
 * full scan's kept cells.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/table.h"
#include "db/types.h"
#include "ftl/ftl.h"
#include "host/grep.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

// ----- RowSet::addColumn -----

Schema
baseSchema()
{
    return Schema({col("id", Type::Int64), col("price", Type::Double),
                   col("day", Type::Date),
                   col("name", Type::String, 12)});
}

RowSet
randomRows(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    RowSet rows(baseSchema());
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string name(rng.below(13), 'a');
        for (char &ch : name)
            ch = static_cast<char>('a' + rng.below(26));
        rows.appendRow({static_cast<std::int64_t>(rng.next() >> 4),
                        static_cast<double>(rng.below(100000)) / 7.0,
                        daysToDate(static_cast<std::int64_t>(
                            rng.below(20000))),
                        name});
    }
    return rows;
}

/** A typed cell function of any of the three cell types. */
using ColumnFn = std::variant<std::function<std::int64_t(RowRef)>,
                              std::function<double(RowRef)>,
                              std::function<std::string(RowRef)>>;

void
addColumn(RowSet &rows, const Column &c, const ColumnFn &fn)
{
    std::visit([&](const auto &f) { rows.addColumn(c, f); }, fn);
}

/**
 * What addColumn(c, fn) must produce: each old slot followed by the
 * new cell as Schema({c}) encodes fn's value for that slot.
 */
std::vector<std::uint8_t>
referenceLayout(const RowSet &rows, const Column &c, const ColumnFn &fn)
{
    const Schema cell({c});
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> buf(cell.rowWidth());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out.insert(out.end(), rows.slot(i),
                   rows.slot(i) + rows.rowWidth());
        const Value v = std::visit(
            [&](const auto &f) { return Value(f(rows[i])); }, fn);
        cell.encodeRow({v}, buf.data());
        out.insert(out.end(), buf.begin(), buf.end());
    }
    return out;
}

std::vector<std::uint8_t>
bytesOf(const RowSet &rows)
{
    if (rows.empty())
        return {};
    return {rows.slot(0), rows.slot(0) + rows.size() * rows.rowWidth()};
}

struct ComputedColumn
{
    Column column;
    ColumnFn fn;
};

std::vector<ComputedColumn>
computedColumns()
{
    return {
        {col("n", Type::Int64),
         std::function<std::int64_t(RowRef)>(
             [](RowRef r) { return r.i64(0) ^ 0x5a5a5a5a; })},
        {col("twice", Type::Double),
         std::function<double(RowRef)>(
             [](RowRef r) { return 2.0 * r.num(1); })},
        // Longer than the column: cut to its width.
        {col("tag", Type::String, 5),
         std::function<std::string(RowRef)>([](RowRef r) {
             return std::string(r.str(3)) + "-" + std::string(r.str(2));
         })},
        {col("next_day", Type::Date),
         std::function<std::string(RowRef)>([](RowRef r) {
             return dateAddDays(std::string(r.str(2)), 1);
         })},
    };
}

TEST(RowSetAddColumn, MatchesReferenceLayoutForEveryTypeAndSize)
{
    // Empty, one row, and a multi-MB set (about 3 MB before widening).
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{80'000}}) {
        for (const ComputedColumn &cc : computedColumns()) {
            RowSet rows = randomRows(n + 17, n);
            const auto want = referenceLayout(rows, cc.column, cc.fn);
            const Bytes old_w = rows.rowWidth();
            addColumn(rows, cc.column, cc.fn);
            SCOPED_TRACE(cc.column.name + " x " + std::to_string(n));
            ASSERT_EQ(rows.size(), n);
            ASSERT_EQ(rows.rowWidth(), old_w + cc.column.width);
            ASSERT_EQ(rows.schema().size(), baseSchema().size() + 1);
            EXPECT_TRUE(bytesOf(rows) == want);
        }
    }
}

TEST(RowSetAddColumn, ChainedColumnsSeeEarlierComputedColumns)
{
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{80'000}}) {
        RowSet rows = randomRows(n + 3, n);
        const Column first = col("year", Type::String, 4);
        const ColumnFn first_fn = std::function<std::string(RowRef)>(
            [](RowRef r) { return std::string(r.str(2)); });
        const Column second = col("scaled", Type::Double);
        // Reads the column the first addColumn appended.
        const ColumnFn second_fn =
            std::function<double(RowRef)>([](RowRef r) {
                return r.num(1) * static_cast<double>(r.str(4).size() + 1);
            });
        RowSet want_rows(rows);
        const auto mid = referenceLayout(want_rows, first, first_fn);
        addColumn(want_rows, first, first_fn);
        ASSERT_TRUE(bytesOf(want_rows) == mid);
        const auto want = referenceLayout(want_rows, second, second_fn);

        addColumn(rows, first, first_fn);
        addColumn(rows, second, second_fn);
        SCOPED_TRACE(n);
        ASSERT_EQ(rows.size(), n);
        ASSERT_EQ(rows.schema().size(), baseSchema().size() + 2);
        EXPECT_TRUE(bytesOf(rows) == want);
        if (n > 0) {
            EXPECT_EQ(rows[n - 1].str(4).size(), 4u);
        }
    }
}

// ----- Scan materialization across shard kinds and drive counts -----

Schema
eventsSchema()
{
    return Schema({col("id", Type::Int64), col("day", Type::Date),
                   col("qty", Type::Double),
                   col("tag", Type::String, 10)});
}

/** Not a whole number of pages: the last page is partial. */
constexpr std::int64_t kEventRows = 12'000;

/** @p n rows whose days spread evenly over two years. */
std::vector<Row>
eventRows(std::int64_t n = kEventRows)
{
    Rng rng(11);
    std::vector<Row> rows;
    rows.reserve(n);
    const char *tags[] = {"alpha", "beta", "gamma"};
    for (std::int64_t i = 0; i < n; ++i) {
        rows.push_back({i, dateAddDays("1994-01-01", i * 730 / n),
                        static_cast<double>(rng.below(100)),
                        std::string(tags[rng.below(3)])});
    }
    return rows;
}

/**
 * Random offloadable predicates: day ranges from a single day (one
 * page, so most shards match nothing) to a quarter, optionally
 * narrowed by a numeric filter the matcher cannot see (pages ship
 * with few or no matching rows), tag equalities, and a tag no row
 * has (no shard matches).
 */
std::vector<ExprPtr>
randomPredicates(std::uint64_t seed, int n)
{
    const Schema s = eventsSchema();
    Rng rng(seed);
    std::vector<ExprPtr> preds;
    for (int i = 0; i < n; ++i) {
        const std::int64_t from =
            static_cast<std::int64_t>(rng.below(700));
        const std::int64_t span =
            static_cast<std::int64_t>(rng.below(4) == 0 ? 0
                                                        : rng.below(90));
        ExprPtr days = between(s, "day", dateAddDays("1994-01-01", from),
                               dateAddDays("1994-01-01", from + span));
        switch (rng.below(5)) {
          case 0:
            preds.push_back(days);
            break;
          case 1:
            preds.push_back(exprAnd(
                {days, cmp(s, "qty", CmpOp::Ge,
                           static_cast<double>(90 + rng.below(11)))}));
            break;
          case 2:
            preds.push_back(exprAnd(
                {days, cmp(s, "tag", CmpOp::Eq, std::string("beta"))}));
            break;
          case 3:
            preds.push_back(exprAnd(
                {cmp(s, "tag", CmpOp::Eq, std::string("alpha")),
                 cmp(s, "qty", CmpOp::Lt,
                     static_cast<double>(rng.below(40)))}));
            break;
          default:
            preds.push_back(
                cmp(s, "tag", CmpOp::Eq, std::string("delta")));
            break;
        }
    }
    return preds;
}

/** How the planner is told to place the scan's stages. */
struct Placement
{
    const char *name;
    bool cost_model;
    bool pipeline;
    PlaceForce force;
    /** Device greps keep drive 0 busy while the scan is planned. */
    bool busy_drive0 = false;
};

const Placement kPlacements[] = {
    {"host_stream", false, false, PlaceForce::Auto},  // EngineMode::Conv
    {"all_host", true, false, PlaceForce::AllHost},
    {"all_device", true, false, PlaceForce::AllDevice},
    {"all_chained", true, true, PlaceForce::AllDevice},
    {"auto_busy_drive0", true, true, PlaceForce::Auto, true},
};

constexpr const char *kLogPath = "/data/cotenant.log";
constexpr int kCotenants = 4;

/** One scan's rows and the sites its scan and re-check stages took. */
struct ScanResult
{
    std::vector<std::uint8_t> bytes;
    std::size_t rows = 0;
    std::string placement;
    std::uint64_t assembled = 0;  ///< DbStats::rows_assembled
};

/** The column scanAll adds when asked to. */
Column
scoreColumn()
{
    return col("score", Type::Double);
}

/** What scanAll adds as the score of a whole row. */
double
scoreOf(RowRef r)
{
    return r.num(2) * 0.5 + static_cast<double>(r.i64(0));
}

/**
 * The score of a projected row, whatever cells it kept: the sum of
 * its first @p width bytes.
 */
double
keptSum(const std::uint8_t *slot, Bytes width)
{
    double sum = 0;
    for (Bytes i = 0; i < width; ++i)
        sum += slot[i];
    return sum;
}

/**
 * Every predicate scanned once, in order, on one fresh system, keeping
 * @p columns (every column when empty); with @p score, scoreColumn()
 * is added to each scan's rows, as a query adds a computed column:
 * scoreOf() of a whole row, keptSum() of a projected one.
 */
std::vector<ScanResult>
scanAll(const Placement &pl, std::uint32_t drives,
        const std::vector<ExprPtr> &preds, bool score = false,
        const std::vector<int> &columns = {})
{
    sisc::Env env(ssd::testConfig(), drives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 8_KiB;
    db.planner.place_seed = 0xfeedull;
    db.planner.use_stats = pl.cost_model;
    db.planner.use_cost_model = pl.cost_model;
    db.planner.use_pipeline = pl.pipeline;
    db.planner.place_force = pl.force;
    Table &table = db.createShardedTable("events", eventsSchema());
    table.loadRows(eventRows());
    EXPECT_NE(table.rowCount() % table.rowsPerPage(), 0u);
    if (pl.busy_drive0) {
        host::installGrepModule(host.fsOf(0));
        host::generateWebLog(host.fsOf(0), kLogPath, 1_MiB, "needle",
                             97, 5);
    }

    std::vector<ScanResult> out;
    env.run([&] {
        for (const ExprPtr &pred : preds) {
            std::vector<sim::FiberId> cotenants;
            for (int i = 0; pl.busy_drive0 && i < kCotenants; ++i) {
                cotenants.push_back(env.kernel.spawn("cotenant", [&] {
                    host::grepBiscuit(env.array.drive(0).runtime,
                                      kLogPath, "needle");
                }));
            }
            if (pl.busy_drive0)
                env.kernel.sleep(200 * kUsec);
            DbStats stats;
            PackedScan r = scanTablePacked(
                db, table, pred,
                pl.cost_model ? EngineMode::Biscuit : EngineMode::Conv,
                stats, columns);
            if (score && columns.empty()) {
                r.rows.addColumn(scoreColumn(), scoreOf);
            } else if (score) {
                const Bytes kept = r.rows.rowWidth();
                r.rows.addColumn(scoreColumn(), [kept](RowRef x) {
                    return keptSum(x.data(), kept);
                });
            }
            ScanResult res;
            res.rows = r.rows.size();
            res.bytes = bytesOf(r.rows);
            res.placement = r.placement;
            res.assembled = stats.rows_assembled;
            out.push_back(std::move(res));
            for (sim::FiberId f : cotenants)
                env.kernel.join(f);
        }
    });
    return out;
}

/** Device sites among the first @p stages of a placement string. */
std::uint32_t
deviceSites(const std::string &placement, std::uint32_t stages)
{
    std::uint32_t device = 0;
    std::size_t pos = 0;
    for (std::uint32_t s = 0; s < stages && pos < placement.size(); ++s) {
        const std::size_t end = std::min(placement.find(',', pos),
                                         placement.size());
        if (placement.compare(pos, end - pos, "host") != 0)
            ++device;
        pos = end + 1;
    }
    return device;
}

TEST(ScanMaterialization, RowsAreIdenticalForEveryShardMixAndDriveCount)
{
    const std::vector<ExprPtr> preds = randomPredicates(0x5ca7, 16);

    // The reference: one drive, every page streamed to the host, and
    // that agrees with a plain filter over the stored slots.
    const std::vector<ScanResult> want = scanAll(kPlacements[0], 1, preds);
    {
        sisc::Env env(ssd::testConfig(), 1);
        host::HostSystem host(env.array);
        MiniDb db(env, host);
        Table &table = db.createShardedTable("events", eventsSchema());
        table.loadRows(eventRows());
        for (std::size_t p = 0; p < preds.size(); ++p) {
            std::vector<std::uint8_t> filtered;
            const BoundPred match(preds[p], table.schema());
            table.forEachSlot([&](const std::uint8_t *slot) {
                if (match.matches(slot))
                    filtered.insert(filtered.end(), slot,
                                    slot + table.rowWidth());
            });
            EXPECT_TRUE(want[p].bytes == filtered) << "predicate " << p;
        }
    }
    std::size_t empty = 0;
    for (const ScanResult &r : want)
        empty += r.rows == 0 ? 1 : 0;
    EXPECT_GT(empty, 0u) << "no predicate that matches nothing";
    EXPECT_LT(empty, preds.size()) << "every predicate matches nothing";

    // The same scans with a computed column added: each row is
    // followed by its score cell, and the plans do not change.
    const Schema events = eventsSchema();
    const Bytes row_w = events.rowWidth();
    auto widened = [&](const std::vector<std::uint8_t> &bytes) {
        std::vector<std::uint8_t> out;
        for (std::size_t at = 0; at < bytes.size(); at += row_w) {
            out.insert(out.end(), bytes.begin() + at,
                       bytes.begin() + at + row_w);
            const double v = scoreOf(RowRef(bytes.data() + at, events));
            const auto *cell = reinterpret_cast<const std::uint8_t *>(&v);
            out.insert(out.end(), cell, cell + 8);
        }
        return out;
    };

    std::size_t mixed = 0;
    for (std::uint32_t drives = 1; drives <= 4; ++drives) {
        for (const Placement &pl : kPlacements) {
            const std::vector<ScanResult> got = scanAll(pl, drives, preds);
            const std::vector<ScanResult> wide =
                scanAll(pl, drives, preds, true);
            ASSERT_EQ(got.size(), preds.size());
            ASSERT_EQ(wide.size(), preds.size());
            for (std::size_t p = 0; p < preds.size(); ++p) {
                SCOPED_TRACE(std::string(pl.name) + " drives=" +
                             std::to_string(drives) + " predicate " +
                             std::to_string(p) + " placed [" +
                             got[p].placement + "]");
                EXPECT_EQ(got[p].rows, want[p].rows);
                EXPECT_TRUE(got[p].bytes == want[p].bytes);
                EXPECT_EQ(wide[p].placement, got[p].placement);
                EXPECT_TRUE(wide[p].bytes == widened(want[p].bytes));
                // Scan stages [0, n), re-check stages [n, 2n).
                if (pl.force == PlaceForce::AllDevice) {
                    EXPECT_EQ(deviceSites(got[p].placement, 2 * drives),
                              pl.pipeline ? 2 * drives : drives);
                }
                const std::uint32_t dev =
                    deviceSites(got[p].placement, drives);
                if (pl.busy_drive0 &&
                    dev > 0 && dev < drives)
                    ++mixed;
            }
        }
    }
    EXPECT_GT(mixed, 0u) << "no Auto plan mixed host and device shards";
}

/**
 * The cells @p columns keeps of each events row in @p full, in that
 * order; with @p score, each followed by its keptSum() score cell.
 */
std::vector<std::uint8_t>
projected(const std::vector<std::uint8_t> &full,
          const std::vector<int> &columns, bool score = false)
{
    const Schema s = eventsSchema();
    std::vector<std::uint8_t> out;
    for (std::size_t at = 0; at < full.size(); at += s.rowWidth()) {
        const std::size_t first = out.size();
        for (int c : columns) {
            const auto i = static_cast<std::size_t>(c);
            const std::uint8_t *cell = full.data() + at + s.offsetOf(i);
            out.insert(out.end(), cell, cell + s.at(i).width);
        }
        if (score) {
            const double v = keptSum(out.data() + first, out.size() - first);
            const auto *cell = reinterpret_cast<const std::uint8_t *>(&v);
            out.insert(out.end(), cell, cell + 8);
        }
    }
    return out;
}

TEST(ScanMaterialization, ProjectedRowsAreTheFullScansKeptCells)
{
    const std::vector<ExprPtr> preds = randomPredicates(0x9e07, 8);
    const std::vector<ScanResult> full = scanAll(kPlacements[0], 1, preds);
    // One column; two out of table order; two adjacent ones (one
    // segment); every column in table order (the identity).
    const std::vector<std::vector<int>> projections = {
        {2}, {3, 0}, {1, 2}, {0, 1, 2, 3}};
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        for (const Placement &pl : kPlacements) {
            for (const std::vector<int> &cols : projections) {
                for (bool score : {false, true}) {
                    const std::vector<ScanResult> got =
                        scanAll(pl, drives, preds, score, cols);
                    ASSERT_EQ(got.size(), preds.size());
                    for (std::size_t p = 0; p < preds.size(); ++p) {
                        SCOPED_TRACE(std::string(pl.name) + " drives=" +
                                     std::to_string(drives) + " columns=" +
                                     std::to_string(cols.size()) +
                                     " score=" + std::to_string(score) +
                                     " predicate " + std::to_string(p));
                        EXPECT_EQ(got[p].rows, full[p].rows);
                        EXPECT_TRUE(got[p].bytes ==
                                    projected(full[p].bytes, cols, score));
                        // A lone drive's device or chained shard
                        // projects rows as they arrive, and those rows
                        // are the result: the scan copies none again.
                        if (drives == 1 &&
                            pl.force == PlaceForce::AllDevice) {
                            EXPECT_EQ(got[p].assembled, 0u);
                        }
                        // Host shards are copied once, in assembly.
                        if (!pl.cost_model) {
                            EXPECT_EQ(got[p].assembled, got[p].rows);
                        }
                    }
                }
            }
        }
    }
}

TEST(ScanMaterialization, BadProjectionsAndAmbiguousNamesPanic)
{
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &table = db.createShardedTable("events", eventsSchema());
    table.loadRows(eventRows(200));
    auto scan = [&](const std::vector<int> &columns) {
        env.run([&] {
            DbStats stats;
            scanTablePacked(db, table, nullptr, EngineMode::Conv, stats,
                            columns);
        });
    };
    EXPECT_DEATH(scan({0, 4}),
                 "scan of table 'events': column 4 out of range");
    EXPECT_DEATH(scan({-1}), "scan of table 'events': column -1 out of range");
    EXPECT_DEATH(scan({1, 3, 1}),
                 "scan of table 'events' keeps column 'day' twice");

    // A joined schema whose sides share a name: by-name lookups of the
    // shared name refuse to guess, others resolve.
    const Schema joined = Schema::concat(
        eventsSchema(),
        Schema({col("tag", Type::String, 4), col("x", Type::Int64)}));
    EXPECT_EQ(joined.indexOf("qty"), 2);
    EXPECT_EQ(joined.indexOf("x"), 5);
    EXPECT_DEATH(joined.indexOf("tag"), "ambiguous column: tag");
    EXPECT_DEATH(joined.indexOf("nope"), "no such column: nope");
}

/**
 * Check that @p copy holds @p src's schema and bytes, and that
 * rewriting the source or growing and widening the copy leaves the
 * other as it was. @p src ends as it began.
 */
void
expectIndependentCopy(RowSet &src, RowSet &copy)
{
    const std::size_t cols = src.schema().size();
    const std::size_t n = src.size();
    ASSERT_EQ(copy.schema().size(), cols);
    ASSERT_EQ(copy.rowWidth(), src.rowWidth());
    ASSERT_EQ(copy.size(), n);
    const std::vector<std::uint8_t> bytes = bytesOf(src);
    ASSERT_TRUE(bytesOf(copy) == bytes);

    src.truncate(0);
    if (n > 0)
        std::memset(src.appendSlots(n), 0x3c, bytes.size());
    EXPECT_TRUE(bytesOf(copy) == bytes);

    std::memset(copy.appendSlots(1), 0x5a, copy.rowWidth());
    copy.addColumn(col("seven", Type::Int64),
                   [](RowRef) { return std::int64_t{7}; });
    EXPECT_EQ(src.schema().size(), cols);
    EXPECT_EQ(src.size(), n);
    EXPECT_TRUE(bytesOf(src) ==
                std::vector<std::uint8_t>(bytes.size(), 0x3c));

    src.truncate(0);
    if (n > 0)
        std::memcpy(src.appendSlots(n), bytes.data(), bytes.size());
}

TEST(RowSetCopy, CopiesAreByteIdenticalAndIndependent)
{
    sisc::Env env(ssd::testConfig(), 2);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &table = db.createShardedTable("events", eventsSchema());
    table.loadRows(eventRows(2000));
    const Schema s = eventsSchema();
    PackedScan projected, none;
    env.run([&] {
        DbStats stats;
        projected = scanTablePacked(
            db, table, cmp(s, "tag", CmpOp::Eq, std::string("beta")),
            EngineMode::Conv, stats, {3, 0});
        none = scanTablePacked(
            db, table, cmp(s, "tag", CmpOp::Eq, std::string("delta")),
            EngineMode::Conv, stats, {2});
    });
    ASSERT_GT(projected.rows.size(), 0u);
    ASSERT_EQ(none.rows.size(), 0u);
    RowSet widened = projected.rows;
    widened.addColumn(col("twice", Type::Int64),
                      [](RowRef r) { return 2 * r.i64(1); });

    struct Case
    {
        const char *name;
        RowSet *src;
    };
    RowSet empty(s);
    for (const Case &c : {Case{"projected scan", &projected.rows},
                          Case{"empty scan", &none.rows},
                          Case{"empty set", &empty},
                          Case{"widened", &widened}}) {
        SCOPED_TRACE(c.name);
        RowSet constructed(*c.src);
        expectIndependentCopy(*c.src, constructed);
        // Assigned over a set of another layout that holds rows.
        RowSet assigned = randomRows(5, 40);
        assigned = *c.src;
        expectIndependentCopy(*c.src, assigned);
    }
}

/**
 * Media noisy enough that most reads decode only after one or two
 * re-senses, so the FTL rewrites about half the pages a scan reads
 * (relocate_retry_threshold = 2), and blocks that stay in service.
 * Twice testConfig()'s blocks (8 MiB), so a table can span several
 * readahead windows.
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

/**
 * Host scans of a table on drives whose logical space is mapped but for
 * @p spare_blocks blocks: every retry relocation is a timed write, so
 * the scan's own reads run garbage collection. A host stream reads one
 * 1 MiB window ahead of the one it visits, so from the third window of
 * a shard on, GC can erase blocks holding pages the scan has already
 * visited. The table is about 5 MiB: five windows at one drive, three
 * per shard at two. The scans keep @p columns (every column when
 * empty).
 */
void
expectHostRowsSurviveRelocationAndGc(std::uint64_t spare_blocks,
                                     const std::vector<int> &columns = {})
{
    const std::vector<ExprPtr> preds = {nullptr,
                                        randomPredicates(0x9c, 1)[0]};
    const std::uint64_t block = noisyConfig().geometry.pages_per_block;
    const std::vector<Row> rows = eventRows(150'000);
    for (std::uint32_t drives : {1u, 2u}) {
        sisc::Env env(noisyConfig(), drives);
        host::HostSystem host(env.array);
        MiniDb db(env, host);
        db.planner.use_cost_model = false;
        Table &table = db.createShardedTable("events", eventsSchema());
        table.loadRows(rows);
        ASSERT_GT(table.pageCount() / drives * table.pageSize(), 2_MiB);
        // Fill each drive's logical space but for the spare blocks.
        std::vector<std::uint8_t> filler;
        for (std::uint32_t d = 0; d < drives; ++d) {
            ftl::Ftl &ftl = env.array.drive(d).device.ftl();
            const Bytes page = host.fsOf(d).pageSize();
            filler.assign((ftl.logicalPages() - ftl.mappedPages() -
                           spare_blocks * block) *
                              page,
                          0x5a);
            host.fsOf(d).populate("/data/filler", filler.data(),
                                  filler.size());
        }

        std::vector<std::vector<std::uint8_t>> want;
        for (const ExprPtr &pred : preds) {
            std::vector<std::uint8_t> filtered;
            const BoundPred match(pred, table.schema());
            table.forEachSlot([&](const std::uint8_t *slot) {
                if (match.matches(slot))
                    filtered.insert(filtered.end(), slot,
                                    slot + table.rowWidth());
            });
            want.push_back(columns.empty() ? std::move(filtered)
                                           : projected(filtered, columns));
        }

        std::uint64_t gc_before = 0, relocations_before = 0;
        for (std::uint32_t d = 0; d < drives; ++d) {
            gc_before += env.array.drive(d).device.ftl().gcRuns();
            relocations_before +=
                env.array.drive(d).device.ftl().retryRelocations();
        }
        std::vector<std::vector<std::uint8_t>> got;
        env.run([&] {
            for (const ExprPtr &pred : preds) {
                DbStats stats;
                PackedScan r = scanTablePacked(db, table, pred,
                                               EngineMode::Conv, stats,
                                               columns);
                EXPECT_FALSE(r.used_ndp);
                got.push_back(bytesOf(r.rows));
            }
        });
        std::uint64_t gc_runs = 0, relocations = 0;
        for (std::uint32_t d = 0; d < drives; ++d) {
            gc_runs += env.array.drive(d).device.ftl().gcRuns();
            relocations +=
                env.array.drive(d).device.ftl().retryRelocations();
        }
        SCOPED_TRACE("drives=" + std::to_string(drives));
        EXPECT_GT(relocations, relocations_before);
        EXPECT_GT(gc_runs, gc_before);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_GT(want[0].size(), 0u);
        for (std::size_t p = 0; p < want.size(); ++p)
            EXPECT_TRUE(got[p] == want[p]) << "predicate " << p;
    }
}

TEST(ScanMaterialization, HostRowsSurviveRelocationAndGcMidScan)
{
    // Two spare blocks: the scan's first relocations use them up and
    // the rest run GC.
    expectHostRowsSurviveRelocationAndGc(2);
}

TEST(ScanMaterialization, ProjectedHostRowsSurviveRelocationAndGcMidScan)
{
    // As above, keeping three columns out of table order: each row is
    // projected out of the page a streamed page's address resolves to
    // after the relocations.
    expectHostRowsSurviveRelocationAndGc(2, {3, 0, 2});
}

TEST(ScanMaterialization, HostRowsSurviveRelocationOnAFullyMappedDrive)
{
    // Every logical page mapped: relocations run GC on a drive with
    // no logical space to spare. A reserve-triggered GC that finds
    // nothing to reclaim yet must fall back to the free pool
    // (FtlReserve.FullyMappedDriveWritesBeforeAnythingIsReclaimable
    // drives that path directly).
    expectHostRowsSurviveRelocationAndGc(0);
}

}  // namespace
}  // namespace bisc::db
