/**
 * @file
 * Unit tests for MiniDB: value/schema encoding, heap tables,
 * predicate evaluation, pattern-key derivation and the scan/join
 * executor primitives on a hand-made table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/planner.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/env.h"

namespace bisc::db {
namespace {

TEST(DbTypes, DateHelpers)
{
    EXPECT_EQ(makeDate(1995, 9, 1), "1995-09-01");
    EXPECT_EQ(dateToDays("1970-01-01"), 0);
    EXPECT_EQ(dateToDays("1970-01-02"), 1);
    EXPECT_EQ(daysToDate(dateToDays("1998-08-02")), "1998-08-02");
    EXPECT_EQ(dateAddDays("1995-12-31", 1), "1996-01-01");
    EXPECT_EQ(dateAddDays("1996-02-28", 1), "1996-02-29");  // leap
    EXPECT_EQ(dateAddDays("1997-02-28", 1), "1997-03-01");
}

TEST(DbTypes, DateFormattingRoundTripsEveryDay1900To2100)
{
    // Every calendar day of 1900-2100 against "%04d-%02d-%02d" and a
    // plain day counter from 1970-01-01.
    auto leap = [](int y) {
        return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    };
    const int mdays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    std::int64_t days = -25567;  // 1900-01-01
    char want[24];
    for (int y = 1900; y <= 2100; ++y) {
        for (int m = 1; m <= 12; ++m) {
            const int n = mdays[m - 1] + (m == 2 && leap(y) ? 1 : 0);
            for (int d = 1; d <= n; ++d, ++days) {
                std::snprintf(want, sizeof(want), "%04d-%02d-%02d", y,
                              m, d);
                ASSERT_EQ(makeDate(y, m, d), want);
                ASSERT_EQ(daysToDate(days), want);
                ASSERT_EQ(dateToDays(want), days) << want;
            }
        }
    }
    EXPECT_EQ(days, 47847);  // 2101-01-01
    // Outside the digit-formatting range the printf fallback applies.
    EXPECT_EQ(makeDate(12345, 1, 2), "12345-01-0");
    EXPECT_EQ(makeDate(-1, 1, 2), "-001-01-02");
    EXPECT_EQ(dateToDays(" 970-01-01"), dateToDays("0970-01-01"));
}

TEST(DbTypes, CompareValues)
{
    EXPECT_LT(compareValues(Value(std::int64_t{1}), Value(2.5)), 0);
    EXPECT_EQ(compareValues(Value(2.0), Value(std::int64_t{2})), 0);
    EXPECT_GT(compareValues(Value(std::string("b")),
                            Value(std::string("a"))),
              0);
    EXPECT_DEATH(compareValues(Value(std::string("x")), Value(1.0)),
                 "comparing");
}

TEST(DbTypes, SchemaEncodeDecodeRoundTrip)
{
    Schema s({col("k", Type::Int64), col("price", Type::Double),
              col("name", Type::String, 12),
              col("day", Type::Date)});
    EXPECT_EQ(s.rowWidth(), 8u + 8 + 12 + 10);
    Row row{std::int64_t{42}, 3.25, std::string("widget"),
            std::string("1995-09-01")};
    std::vector<std::uint8_t> slot(s.rowWidth());
    s.encodeRow(row, slot.data());
    Row back = s.decodeRow(slot.data());
    EXPECT_EQ(std::get<std::int64_t>(back[0]), 42);
    EXPECT_EQ(std::get<double>(back[1]), 3.25);
    EXPECT_EQ(std::get<std::string>(back[2]), "widget");
    EXPECT_EQ(std::get<std::string>(back[3]), "1995-09-01");
}

TEST(DbTypes, LongStringsTruncateToWidth)
{
    Schema s({col("name", Type::String, 4)});
    Row row{std::string("abcdefgh")};
    std::vector<std::uint8_t> slot(s.rowWidth());
    s.encodeRow(row, slot.data());
    Row back = s.decodeRow(slot.data());
    EXPECT_EQ(std::get<std::string>(back[0]), "abcd");
}

TEST(DbTypes, CellOfTheWrongTypeIsRefused)
{
    // A value of another type than its column's never reaches a slot:
    // encodeRow, RowSet::appendRow and Table::loadRows all panic.
    Schema s({col("k", Type::Int64), col("price", Type::Double),
              col("name", Type::String, 4)});
    std::vector<std::uint8_t> slot(s.rowWidth());
    EXPECT_DEATH(s.encodeRow({1.5, 2.5, std::string("a")}, slot.data()),
                 "a Double cell for column 'k'");
    EXPECT_DEATH(s.encodeRow({std::int64_t{1}, std::string("2.5"),
                              std::string("a")},
                             slot.data()),
                 "a text cell for column 'price'");
    EXPECT_DEATH(s.encodeRow({std::int64_t{1}, std::int64_t{2},
                              std::string("a")},
                             slot.data()),
                 "an Int64 cell for column 'price'");
    EXPECT_DEATH(
        s.encodeRow({std::int64_t{1}, 2.5, std::int64_t{3}}, slot.data()),
        "an Int64 cell for column 'name'");
    RowSet rows(s);
    EXPECT_DEATH(rows.appendRow({std::int64_t{1}, 2.5, 3.5}),
                 "a Double cell for column 'name'");

    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &t = db.createTable("typed", s);
    EXPECT_DEATH(t.loadRows({{std::int64_t{1}, 2.5, std::string("a")},
                             {std::string("2"), 2.5, std::string("b")}}),
                 "a text cell for column 'k'");
}

TEST(DbTypes, DoubleTextIsPrintedInFull)
{
    // 2^104 and 10 * 2^104 share their first 31 "%.2f" digits.
    const double a = std::ldexp(1.0, 104);
    EXPECT_EQ(valueToString(a), "20282409603651670423947251286016.00");
    EXPECT_EQ(valueToString(10 * a),
              "202824096036516704239472512860160.00");
    // The longest finite text: a sign, 309 digits, the point and two
    // decimals.
    const std::string lowest =
        valueToString(std::numeric_limits<double>::lowest());
    EXPECT_EQ(lowest.size(), 313u);
    EXPECT_EQ(lowest.substr(0, 6), "-17976");
    EXPECT_EQ(lowest.substr(307), "368.00");
    // Text that fitted the old 32-byte buffer is unchanged.
    for (double v : {-0.0, 1.005, 123456.785, -9.99e26, 9.99e27}) {
        char buf[32];
        ASSERT_LT(std::snprintf(buf, sizeof(buf), "%.2f", v), 32);
        EXPECT_EQ(valueToString(v), buf);
    }
}

TEST(DbExpr, LikeMatching)
{
    EXPECT_TRUE(likeMatch("PROMO BRUSHED TIN", "PROMO%"));
    EXPECT_FALSE(likeMatch("STANDARD TIN", "PROMO%"));
    EXPECT_TRUE(likeMatch("LARGE POLISHED BRASS", "%BRASS"));
    EXPECT_FALSE(likeMatch("LARGE POLISHED BRASSY", "%BRASS"));
    EXPECT_TRUE(likeMatch("the special little requests here",
                          "%special%requests%"));
    EXPECT_FALSE(likeMatch("special", "%special%requests%"));
    EXPECT_TRUE(likeMatch("anything", "%"));
    EXPECT_TRUE(likeMatch("exact", "exact"));
    EXPECT_FALSE(likeMatch("exact!", "exact"));
}

class ExprTest : public ::testing::Test
{
  protected:
    ExprTest()
        : schema_({col("id", Type::Int64),
                   col("qty", Type::Double),
                   col("day", Type::Date),
                   col("mode", Type::String, 8)})
    {}

    Row
    row(std::int64_t id, double qty, const std::string &day,
        const std::string &mode)
    {
        return Row{id, qty, day, mode};
    }

    Schema schema_;
};

TEST_F(ExprTest, EvalBasics)
{
    auto p = exprAnd(
        {between(schema_, "day", std::string("1994-01-01"),
                 std::string("1994-12-31")),
         cmp(schema_, "qty", CmpOp::Lt, 24.0),
         inSet(schema_, "mode",
               {std::string("MAIL"), std::string("SHIP")})});
    EXPECT_TRUE(evalPred(*p, row(1, 10, "1994-06-15", "MAIL")));
    EXPECT_FALSE(evalPred(*p, row(1, 30, "1994-06-15", "MAIL")));
    EXPECT_FALSE(evalPred(*p, row(1, 10, "1995-06-15", "MAIL")));
    EXPECT_FALSE(evalPred(*p, row(1, 10, "1994-06-15", "AIR")));
}

TEST_F(ExprTest, EvalOrNotAndColCmp)
{
    auto p = exprOr({cmp(schema_, "id", CmpOp::Eq, std::int64_t{7}),
                     exprNot(cmp(schema_, "mode", CmpOp::Eq,
                                 std::string("AIR")))});
    EXPECT_TRUE(evalPred(*p, row(7, 0, "1994-01-01", "AIR")));
    EXPECT_TRUE(evalPred(*p, row(1, 0, "1994-01-01", "SHIP")));
    EXPECT_FALSE(evalPred(*p, row(1, 0, "1994-01-01", "AIR")));

    Schema two({col("a", Type::Date), col("b", Type::Date)});
    auto q = cmpCols(two, "a", CmpOp::Lt, "b");
    EXPECT_TRUE(evalPred(
        *q, Row{std::string("1994-01-01"), std::string("1994-01-02")}));
    EXPECT_FALSE(evalPred(
        *q, Row{std::string("1994-01-02"), std::string("1994-01-01")}));
}

TEST_F(ExprTest, DeriveEqualityKey)
{
    auto k = deriveKeys(*cmp(schema_, "day", CmpOp::Eq,
                             std::string("1995-01-17")),
                        schema_);
    ASSERT_TRUE(k.offloadable);
    ASSERT_EQ(k.keys.size(), 1u);
    EXPECT_EQ(k.keys.keys()[0], "1995-01-17");
}

TEST_F(ExprTest, DeriveRejectsShortKey)
{
    auto k = deriveKeys(*cmp(schema_, "mode", CmpOp::Eq,
                             std::string("F")),
                        schema_);
    EXPECT_FALSE(k.offloadable);
    EXPECT_NE(k.reason.find("low selectivity"), std::string::npos);
}

TEST_F(ExprTest, DeriveRejectsNumericAndOneSided)
{
    EXPECT_FALSE(deriveKeys(*cmp(schema_, "qty", CmpOp::Eq, 5.0),
                            schema_)
                     .offloadable);
    EXPECT_FALSE(deriveKeys(*cmp(schema_, "day", CmpOp::Le,
                                 std::string("1998-09-02")),
                            schema_)
                     .offloadable);
}

TEST_F(ExprTest, DeriveMonthAndYearPrefixes)
{
    auto month = deriveKeys(
        *between(schema_, "day", std::string("1995-09-01"),
                 std::string("1995-09-30")),
        schema_);
    ASSERT_TRUE(month.offloadable);
    EXPECT_EQ(month.keys.keys(),
              (std::vector<std::string>{"1995-09"}));

    auto quarter = deriveKeys(
        *between(schema_, "day", std::string("1993-07-01"),
                 std::string("1993-09-30")),
        schema_);
    ASSERT_TRUE(quarter.offloadable);
    EXPECT_EQ(quarter.keys.size(), 3u);

    auto years = deriveKeys(
        *between(schema_, "day", std::string("1995-01-01"),
                 std::string("1996-12-31")),
        schema_);
    ASSERT_TRUE(years.offloadable);
    EXPECT_EQ(years.keys.keys(),
              (std::vector<std::string>{"1995-", "1996-"}));

    auto too_wide = deriveKeys(
        *between(schema_, "day", std::string("1992-01-01"),
                 std::string("1998-12-31")),
        schema_);
    EXPECT_FALSE(too_wide.offloadable);
}

TEST_F(ExprTest, DeriveLikeAndNotLike)
{
    auto yes = deriveKeys(*like(schema_, "mode", "PRO%"), schema_);
    ASSERT_TRUE(yes.offloadable);
    EXPECT_EQ(yes.keys.keys()[0], "PRO");

    auto no = deriveKeys(*notLike(schema_, "mode", "%special%"),
                         schema_);
    EXPECT_FALSE(no.offloadable);
    EXPECT_NE(no.reason.find("NOT LIKE"), std::string::npos);
}

TEST_F(ExprTest, DeriveAndPicksFewestKeys)
{
    auto p = exprAnd(
        {between(schema_, "day", std::string("1994-01-01"),
                 std::string("1994-12-31")),  // 1 year key
         inSet(schema_, "mode",
               {std::string("MAIL"), std::string("SHIP")})});  // 2
    auto k = deriveKeys(*p, schema_);
    ASSERT_TRUE(k.offloadable);
    EXPECT_EQ(k.keys.keys(), (std::vector<std::string>{"1994-"}));
}

TEST_F(ExprTest, DeriveOrUnionsOrRejects)
{
    auto ok = deriveKeys(
        *exprOr({cmp(schema_, "day", CmpOp::Eq,
                     std::string("1995-01-17")),
                 cmp(schema_, "day", CmpOp::Eq,
                     std::string("1995-01-18"))}),
        schema_);
    ASSERT_TRUE(ok.offloadable);
    EXPECT_EQ(ok.keys.size(), 2u);

    auto mixed = deriveKeys(
        *exprOr({cmp(schema_, "day", CmpOp::Eq,
                     std::string("1995-01-17")),
                 cmp(schema_, "qty", CmpOp::Lt, 10.0)}),
        schema_);
    EXPECT_FALSE(mixed.offloadable);
}

// ----- Table + executor on a hand-made dataset -----

class MiniDbTest : public ::testing::Test
{
  protected:
    MiniDbTest()
        : env_(ssd::testConfig(), 1),
          host_(env_.array), db_(env_, host_)
    {
        // The tiny test SSD has 4 KiB pages; keep the planner's
        // minimum size small so scans qualify for offload.
        db_.planner.min_table_bytes = 8_KiB;
        db_.planner.sample_pages = 8;

        auto &t = db_.createTable(
            "events", Schema({col("id", Type::Int64),
                              col("day", Type::Date),
                              col("qty", Type::Double),
                              col("tag", Type::String, 10)}));
        // 20000 rows, days ascending over two years: clustered
        // dates, like a warehouse fact table.
        std::vector<Row> rows;
        for (std::int64_t i = 0; i < 20000; ++i) {
            rows.push_back(
                {i, dateAddDays("1994-01-01", i * 730 / 20000),
                 static_cast<double>(i % 50),
                 std::string(i % 3 == 0 ? "alpha" : "beta")});
        }
        t.loadRows(rows);
    }

    sisc::Env env_;
    host::HostSystem host_;
    MiniDb db_;
};

TEST_F(MiniDbTest, TableRoundTrip)
{
    auto &t = db_.table("events");
    EXPECT_EQ(t.rowCount(), 20000u);
    EXPECT_GT(t.pageCount(), 100u);
    Row r0 = t.rowAt(0);
    EXPECT_EQ(std::get<std::int64_t>(r0[0]), 0);
    Row last = t.rowAt(19999);
    EXPECT_EQ(std::get<std::int64_t>(last[0]), 19999);
    std::uint64_t seen = 0;
    t.forEachRow([&](const Row &) { ++seen; });
    EXPECT_EQ(seen, 20000u);
}

TEST_F(MiniDbTest, RowsNeverStraddlePages)
{
    auto &t = db_.table("events");
    EXPECT_EQ(t.rowsPerPage(), t.pageSize() / t.rowWidth());
    // Total pages consistent with rows-per-page packing.
    EXPECT_EQ(t.pageCount(),
              divCeil<std::uint64_t>(t.rowCount(), t.rowsPerPage()));
}

TEST_F(MiniDbTest, ConvScanFiltersExactly)
{
    auto &t = db_.table("events");
    auto pred = cmp(t.schema(), "tag", CmpOp::Eq,
                    std::string("alpha"));
    DbStats stats;
    ScanOutcome out;
    env_.run([&] {
        out = scanTable(db_, t, pred, EngineMode::Conv, stats);
    });
    EXPECT_FALSE(out.used_ndp);
    EXPECT_EQ(out.rows.size(), 6667u);  // ceil(20000/3)
    EXPECT_EQ(stats.pages_to_host, t.pageCount());
}

TEST_F(MiniDbTest, NdpScanMatchesConvResults)
{
    auto &t = db_.table("events");
    auto pred = between(t.schema(), "day", std::string("1994-03-01"),
                        std::string("1994-03-31"));
    DbStats conv_stats, ndp_stats;
    ScanOutcome conv, ndp;
    env_.run([&] {
        conv = scanTable(db_, t, pred, EngineMode::Conv, conv_stats);
        ndp = scanTable(db_, t, pred, EngineMode::Biscuit, ndp_stats);
    });
    ASSERT_TRUE(ndp.used_ndp) << ndp.note;
    ASSERT_EQ(ndp.rows.size(), conv.rows.size());
    for (std::size_t i = 0; i < conv.rows.size(); ++i)
        EXPECT_EQ(std::get<std::int64_t>(ndp.rows[i][0]),
                  std::get<std::int64_t>(conv.rows[i][0]));
    // Clustered dates: far fewer pages crossed the interface.
    EXPECT_LT(ndp_stats.pages_to_host, conv_stats.pages_to_host / 4);
}

// Fibers that reach a module while its first load is in flight wait
// for that load instead of loading (and publishing) a second copy.
TEST_F(MiniDbTest, ConcurrentFirstModuleUsersShareOneLoad)
{
    std::vector<std::vector<std::uint64_t>> ids(3);
    env_.run([&] {
        std::vector<sim::FiberId> users;
        for (auto &mine : ids) {
            users.push_back(env_.kernel.spawn("module.user", [&] {
                mine = driveModules(db_, "minidb");
            }));
        }
        for (sim::FiberId f : users)
            env_.kernel.join(f);
    });
    EXPECT_EQ(env_.runtime.loadedModules(), 1u);
    ASSERT_EQ(ids[0].size(), 1u);
    EXPECT_EQ(ids[1], ids[0]);
    EXPECT_EQ(ids[2], ids[0]);
}

TEST_F(MiniDbTest, SamplingRejectsUnselectivePredicate)
{
    auto &t = db_.table("events");
    // "alpha" hits a third of rows: every page matches.
    auto pred = cmp(t.schema(), "tag", CmpOp::Eq,
                    std::string("alpha"));
    DbStats stats;
    ScanOutcome out;
    env_.run([&] {
        out = scanTable(db_, t, pred, EngineMode::Biscuit, stats);
    });
    EXPECT_FALSE(out.used_ndp);
    EXPECT_NE(out.note.find("sampling advises against"),
              std::string::npos)
        << out.note;
    EXPECT_GT(out.sampled_selectivity, 0.9);
    // The scan still produced correct results via the Conv path.
    EXPECT_EQ(out.rows.size(), 6667u);
}

TEST_F(MiniDbTest, PlannerNotesSmallTablesAndMissingPredicates)
{
    auto &small = db_.createTable(
        "tiny", Schema({col("k", Type::Int64),
                        col("day", Type::Date)}));
    small.loadRows({{std::int64_t{1}, std::string("1994-01-01")}});
    db_.planner.min_table_bytes = 1_MiB;

    DbStats stats;
    env_.run([&] {
        auto d1 = decideOffload(
            db_, small,
            cmp(small.schema(), "day", CmpOp::Eq,
                std::string("1994-01-01")),
            stats);
        EXPECT_FALSE(d1.offload);
        EXPECT_NE(d1.note.find("too small"), std::string::npos);

        auto d2 = decideOffload(db_, db_.table("events"), nullptr,
                                stats);
        EXPECT_FALSE(d2.offload);
        EXPECT_NE(d2.note.find("no filter predicate"),
                  std::string::npos);
    });
}

TEST_F(MiniDbTest, NdpScanIsFasterOnSelectivePredicate)
{
    auto &t = db_.table("events");
    auto pred = between(t.schema(), "day", std::string("1994-03-01"),
                        std::string("1994-03-31"));
    Tick conv_time = 0, ndp_time = 0;
    env_.run([&] {
        DbStats s0, s1, s2;
        // Warm-up: load the offload module once (resident afterwards,
        // as in a steady-state engine).
        scanTable(db_, t, pred, EngineMode::Biscuit, s0);
        Tick t0 = env_.kernel.now();
        scanTable(db_, t, pred, EngineMode::Conv, s1);
        conv_time = env_.kernel.now() - t0;
        t0 = env_.kernel.now();
        scanTable(db_, t, pred, EngineMode::Biscuit, s2);
        ndp_time = env_.kernel.now() - t0;
    });
    // The tiny test table keeps the gap modest, but NDP must win
    // (the host CPU no longer touches ~95% of the pages).
    EXPECT_LT(ndp_time, conv_time);
}

/** A RowSet of @p rows under @p schema. */
RowSet
rowSet(const Schema &schema, const std::vector<Row> &rows)
{
    RowSet out(schema);
    for (const Row &r : rows)
        out.appendRow(r);
    return out;
}

TEST_F(MiniDbTest, BnlJoinCombinesAndCharges)
{
    auto &dims = db_.createTable(
        "dims", Schema({col("k", Type::Int64),
                        col("label", Type::String, 8)}));
    std::vector<Row> dim_rows;
    for (std::int64_t i = 0; i < 50; ++i)
        dim_rows.push_back({i, std::string("L") + std::to_string(i)});
    dims.loadRows(dim_rows);

    auto &t = db_.table("events");
    DbStats stats;
    RowSet joined;
    env_.run([&] {
        auto events = scanTablePacked(
            db_, t,
            cmp(t.schema(), "day", CmpOp::Lt,
                std::string("1994-02-01")),
            EngineMode::Conv, stats);
        // Join on id%50 ... build a computed key column first.
        events.rows.addColumn(col("k50", Type::Int64), [](RowRef r) {
            return r.i64(0) % 50;
        });
        joined = bnlJoin(db_, events.rows, t.rowWidth() + 8, 4, dims,
                         0, nullptr, stats);
    });
    ASSERT_FALSE(joined.empty());
    // Every joined row aligns key columns.
    for (std::size_t i = 0; i < joined.size(); ++i)
        EXPECT_EQ(joined[i].i64(4), joined[i].i64(5));
    EXPECT_GT(stats.pages_to_host, db_.table("events").pageCount());
}

TEST_F(MiniDbTest, JoinedSlotIsOuterSlotThenInnerSlot)
{
    auto &dims = db_.createTable(
        "dims", Schema({col("k", Type::Int64),
                        col("label", Type::String, 8)}));
    // Keys 0..9 twice over: every outer row matches two inner rows.
    std::vector<Row> dim_rows;
    for (std::int64_t i = 0; i < 20; ++i)
        dim_rows.push_back({i % 10, std::string("L") + std::to_string(i)});
    dims.loadRows(dim_rows);

    Schema outer_schema({col("id", Type::Int64), col("k", Type::Int64),
                         col("note", Type::String, 6)});
    RowSet outer = rowSet(outer_schema,
                          {{std::int64_t{100}, std::int64_t{3},
                            std::string("a")},
                           {std::int64_t{101}, std::int64_t{42},
                            std::string("miss")},
                           {std::int64_t{102}, std::int64_t{7},
                            std::string("c")}});
    DbStats stats;
    RowSet joined;
    env_.run([&] {
        joined = bnlJoin(db_, outer, outer_schema.rowWidth(), 1, dims, 0,
                         nullptr, stats);
    });

    const Schema &js = joined.schema();
    ASSERT_EQ(js.size(), outer_schema.size() + dims.schema().size());
    EXPECT_EQ(js.rowWidth(), outer_schema.rowWidth() + dims.rowWidth());
    for (std::size_t i = 0; i < js.size(); ++i) {
        const Column &want = i < outer_schema.size()
                                 ? outer_schema.at(i)
                                 : dims.schema().at(i - outer_schema.size());
        EXPECT_EQ(js.at(i).name, want.name);
        EXPECT_EQ(js.at(i).type, want.type);
        EXPECT_EQ(js.at(i).width, want.width);
    }

    // Outer order; within an outer row, the last-scanned match first.
    ASSERT_EQ(joined.size(), 4u);
    const std::vector<std::pair<std::size_t, std::int64_t>> expect = {
        {0, 13}, {0, 3}, {2, 17}, {2, 7}};
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const auto [outer_row, inner_row] = expect[i];
        EXPECT_EQ(std::memcmp(joined.slot(i), outer.slot(outer_row),
                              outer.rowWidth()),
                  0);
        std::vector<std::uint8_t> inner(dims.rowWidth());
        dims.schema().encodeRow(
            dims.rowAt(static_cast<std::uint64_t>(inner_row)),
            inner.data());
        EXPECT_EQ(std::memcmp(joined.slot(i) + outer.rowWidth(),
                              inner.data(), inner.size()),
                  0);
    }
    EXPECT_EQ(joined[0].str(4), "L13");

    // An empty outer still yields the joined schema.
    RowSet none;
    env_.run([&] {
        none = bnlJoin(db_, RowSet(outer_schema),
                       outer_schema.rowWidth(), 1, dims, 0, nullptr,
                       stats);
    });
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.schema().rowWidth(), js.rowWidth());
}

TEST_F(MiniDbTest, TextAndDoubleJoinKeysMatchAsTheirValueText)
{
    // A key that is not Int64 matches as its valueToString() text:
    // text up to its NUL whatever the two columns' widths, a double as
    // its "%.2f".
    auto &inner = db_.createTable(
        "keyed", Schema({col("name", Type::String, 6),
                         col("day", Type::Date),
                         col("price", Type::Double)}));
    const std::vector<std::string> names = {"abcdef", "abc", "", "ab",
                                            "abcde"};
    const std::vector<std::string> days = {"1995-01-01", "1995-01-02",
                                           "1995-01-0"};
    const std::vector<double> prices = {1.001, 1.004, 2.5, -0.0,
                                        0.0,   2.499, 1e6};
    std::vector<Row> inner_rows;
    for (std::size_t i = 0; i < 40; ++i) {
        inner_rows.push_back({names[i % names.size()],
                              days[i % days.size()],
                              prices[i % prices.size()]});
    }
    inner.loadRows(inner_rows);

    // Wider text columns than the inner's, with bytes after each NUL.
    Schema os({col("name", Type::String, 9), col("day", Type::String, 12),
               col("price", Type::Double)});
    RowSet outer(os);
    const std::vector<Row> outer_rows = {
        {std::string("abcdef"), std::string("1995-01-02"), 1.0},
        {std::string("abcdefg"), std::string("1995-01-0"), 2.5},
        {std::string(""), std::string("1995-01-01"), 0.0},
        {std::string("abc"), std::string("1995-01-011"), 1.005},
        {std::string("zz"), std::string(""), -0.0},
        {std::string("ab"), std::string("1995-01-02"), 1000000.001}};
    for (const Row &r : outer_rows) {
        std::uint8_t *slot = outer.appendSlots(1);
        os.encodeRow(r, slot);
        for (std::size_t c : {0u, 1u}) {
            std::uint8_t *cell = slot + os.offsetOf(c);
            const Bytes w = os.at(c).width;
            for (Bytes i = cellText(cell, w).size() + 1; i < w; ++i)
                cell[i] = 'X';
        }
    }

    // The valueToString()-keyed join: per outer row, every inner row
    // with the same key text, the last-loaded first.
    auto reference = [&](int key) {
        RowSet want(Schema::concat(os, inner.schema()));
        for (std::size_t i = 0; i < outer.size(); ++i) {
            const std::string text =
                valueToString(os.decodeRow(outer.slot(i))[key]);
            for (std::size_t j = inner_rows.size(); j-- > 0;) {
                const Row r = inner.rowAt(j);
                if (valueToString(r[key]) != text)
                    continue;
                std::uint8_t *dst = want.appendSlots(1);
                std::memcpy(dst, outer.slot(i), os.rowWidth());
                inner.schema().encodeRow(r, dst + os.rowWidth());
            }
        }
        return want;
    };

    DbStats stats;
    for (int key : {0, 1, 2}) {
        RowSet joined;
        env_.run([&] {
            joined = bnlJoin(db_, outer, os.rowWidth(), key, inner, key,
                             nullptr, stats);
        });
        const RowSet want = reference(key);
        ASSERT_GT(want.size(), 0u) << "key " << key;
        ASSERT_EQ(joined.size(), want.size()) << "key " << key;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(std::memcmp(joined.slot(i), want.slot(i),
                                  want.rowWidth()),
                      0)
                << "key " << key << " row " << i;
        }
    }

    // A double key against a text key is a query error.
    EXPECT_DEATH(bnlJoin(db_, outer, os.rowWidth(), 2, inner, 0, nullptr,
                         stats),
                 "differ in type");
}

TEST(RowSetTest, ComputedNumericAndStringColumns)
{
    Schema s({col("id", Type::Int64), col("price", Type::Double),
              col("day", Type::Date)});
    RowSet rows = rowSet(s, {{std::int64_t{1}, 2.5,
                              std::string("1995-09-01")},
                             {std::int64_t{2}, 4.0,
                              std::string("1996-01-31")}});
    rows.addColumn(col("twice", Type::Double), [](RowRef r) {
        return 2.0 * r.num(1);
    });
    rows.addColumn(col("n", Type::Int64), [](RowRef r) {
        return r.i64(0) * 10;
    });
    // A fixed-width string column cuts longer values to its width.
    rows.addColumn(col("year", Type::String, 4),
                   [](RowRef r) { return r.str(2); });

    ASSERT_EQ(rows.schema().size(), 6u);
    EXPECT_EQ(rows.rowWidth(), s.rowWidth() + 8 + 8 + 4);
    EXPECT_EQ(rows.schema().offsetOf(5), s.rowWidth() + 16);
    std::vector<Row> back = rows.toRows();
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0], (Row{std::int64_t{1}, 2.5,
                            std::string("1995-09-01"), 5.0,
                            std::int64_t{10}, std::string("1995")}));
    EXPECT_EQ(back[1], (Row{std::int64_t{2}, 4.0,
                            std::string("1996-01-31"), 8.0,
                            std::int64_t{20}, std::string("1996")}));
    EXPECT_EQ(rows[1].str(5), "1996");
    EXPECT_DOUBLE_EQ(rows[1].num(4), 20.0);
}

TEST_F(MiniDbTest, GroupByAggregates)
{
    std::vector<Row> input;
    for (std::int64_t i = 0; i < 10; ++i)
        input.push_back({Value(std::string(i % 2 ? "odd" : "even")),
                         Value(static_cast<double>(i))});
    RowSet rows = rowSet(Schema({col("parity", Type::String, 8),
                                 col("v", Type::Double)}),
                         input);
    DbStats stats;
    RowSet grouped;
    env_.run([&] {
        grouped = groupBy(db_, rows, {0},
                          {{AggSpec::Op::Sum, 1},
                           {AggSpec::Op::Avg, 1},
                           {AggSpec::Op::Count, -1},
                           {AggSpec::Op::Min, 1},
                           {AggSpec::Op::Max, 1}},
                          stats);
    });
    ASSERT_EQ(grouped.size(), 2u);
    sortRows(grouped, {{0, false}});
    std::vector<Row> out = grouped.toRows();
    // even: 0+2+4+6+8 = 20; odd: 1+3+5+7+9 = 25.
    EXPECT_EQ(std::get<std::string>(out[0][0]), "even");
    EXPECT_DOUBLE_EQ(std::get<double>(out[0][1]), 20.0);
    EXPECT_DOUBLE_EQ(std::get<double>(out[0][2]), 4.0);
    EXPECT_EQ(std::get<std::int64_t>(out[0][3]), 5);
    EXPECT_DOUBLE_EQ(std::get<double>(out[0][4]), 0.0);
    EXPECT_DOUBLE_EQ(std::get<double>(out[0][5]), 8.0);
    EXPECT_DOUBLE_EQ(std::get<double>(out[1][1]), 25.0);
}

TEST_F(MiniDbTest, GroupIdentityIsValueToString)
{
    // Doubles group at "%.2f": 1.001 and 1.004 share "1.00". Groups
    // come out ordered by key string ("10.00" sorts before "2.00"),
    // each keyed by its first row's value.
    Schema s({col("k", Type::Double), col("v", Type::Int64)});
    const std::vector<double> keys = {1.004, 2.0, 1.001, 10.0, 1.006,
                                      0.5};
    std::vector<Row> input;
    for (std::size_t i = 0; i < keys.size(); ++i)
        input.push_back({keys[i], static_cast<std::int64_t>(i)});
    DbStats stats;
    RowSet grouped;
    env_.run([&] {
        grouped = groupBy(db_, rowSet(s, input), {0},
                          {{AggSpec::Op::Count, -1},
                           {AggSpec::Op::Sum, 1}},
                          stats);
    });
    std::vector<Row> out = grouped.toRows();
    ASSERT_EQ(out.size(), 5u);
    std::vector<std::string> names;
    for (const Row &r : out)
        names.push_back(valueToString(r[0]));
    EXPECT_EQ(names, (std::vector<std::string>{"0.50", "1.00", "1.01",
                                               "10.00", "2.00"}));
    EXPECT_EQ(std::get<double>(out[1][0]), 1.004);
    EXPECT_EQ(std::get<std::int64_t>(out[1][1]), 2);
    EXPECT_EQ(std::get<double>(out[1][2]), 0.0 + 2.0);
    EXPECT_EQ(grouped.schema().at(1).type, Type::Int64);
    EXPECT_EQ(grouped.schema().at(2).type, Type::Double);
}

TEST_F(MiniDbTest, SortAndFilterRows)
{
    Schema s({col("v", Type::Int64)});
    RowSet rows = rowSet(s, {{Value(std::int64_t{3})},
                             {Value(std::int64_t{1})},
                             {Value(std::int64_t{2})}});
    sortRows(rows, {{0, false}});
    EXPECT_EQ(rows[0].i64(0), 1);
    sortRows(rows, {{0, true}});
    EXPECT_EQ(rows[0].i64(0), 3);

    DbStats stats;
    RowSet kept;
    env_.run([&] {
        kept = filterRows(db_, rows,
                          cmp(s, "v", CmpOp::Ge, std::int64_t{2}),
                          stats);
    });
    EXPECT_EQ(kept.size(), 2u);
}

TEST(RowSetTest, SortWithTiedKeysMatchesRowSort)
{
    // Many ties across mixed-type keys: the slot sort must leave
    // every row exactly where std::sort over decoded Rows with
    // compareValues() does (ties included, since neither is stable).
    Schema s({col("k", Type::Int64), col("d", Type::Double),
              col("name", Type::String, 6), col("seq", Type::Int64)});
    std::vector<Row> input;
    for (std::int64_t i = 0; i < 300; ++i) {
        input.push_back({std::int64_t{(i * 7) % 5},
                         static_cast<double>((i * 13) % 4) / 2.0,
                         std::string(1, static_cast<char>('a' + i % 3)),
                         i});
    }
    const std::vector<std::vector<std::pair<int, bool>>> specs = {
        {{0, false}}, {{1, true}}, {{2, false}, {0, true}},
        {{1, false}, {2, true}}};
    for (const auto &keys : specs) {
        RowSet rows = rowSet(s, input);
        sortRows(rows, keys);
        std::vector<Row> want = input;
        std::sort(want.begin(), want.end(),
                  [&](const Row &a, const Row &b) {
                      for (auto [c, desc] : keys) {
                          int r = compareValues(
                              a[static_cast<std::size_t>(c)],
                              b[static_cast<std::size_t>(c)]);
                          if (r != 0)
                              return desc ? r > 0 : r < 0;
                      }
                      return false;
                  });
        EXPECT_EQ(rows.toRows(), want);
    }
}

TEST_F(MiniDbTest, FilterRowsAgreesWithEvalPred)
{
    Schema s({col("id", Type::Int64), col("qty", Type::Double),
              col("day", Type::Date), col("mode", Type::String, 8),
              col("ship", Type::Date)});
    const char *modes[] = {"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"};
    std::vector<Row> input;
    for (std::int64_t i = 0; i < 400; ++i) {
        input.push_back({i, static_cast<double>(i % 37) / 2.0,
                         dateAddDays("1995-01-01", i % 90),
                         std::string(modes[i % 5]),
                         dateAddDays("1995-01-01", (i * 7) % 95)});
    }
    RowSet rows = rowSet(s, input);
    const std::vector<ExprPtr> preds = {
        exprAnd({between(s, "day", std::string("1995-01-10"),
                         std::string("1995-02-20")),
                 cmp(s, "qty", CmpOp::Lt, 9.0)}),
        exprOr({inSet(s, "mode", {std::string("AIR"),
                                  std::string("RAIL")}),
                like(s, "mode", "%IL")}),
        exprNot(cmpCols(s, "day", CmpOp::Lt, "ship")),
        exprAnd({notLike(s, "mode", "%R%"),
                 cmp(s, "id", CmpOp::Ge, std::int64_t{100})}),
        nullptr};
    for (const ExprPtr &pred : preds) {
        DbStats stats;
        RowSet kept;
        env_.run([&] { kept = filterRows(db_, rows, pred, stats); });
        std::vector<Row> want;
        for (const Row &r : input)
            if (!pred || evalPred(*pred, r))
                want.push_back(r);
        EXPECT_EQ(kept.toRows(), want);
        EXPECT_EQ(stats.rows_examined, input.size());
    }
}

}  // namespace
}  // namespace bisc::db
