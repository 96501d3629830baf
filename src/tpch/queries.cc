#include "tpch/queries.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "db/planner.h"
#include "obs/obs.h"
#include "tpch/dbgen.h"
#include "util/log.h"

namespace bisc::tpch {

using db::AggSpec;
using db::CmpOp;
using db::EngineMode;
using db::ExprPtr;
using db::MiniDb;
using db::PackedScan;
using db::RowRef;
using db::RowSet;
using db::Table;
using db::Value;

namespace {

double
dv(const Value &v)
{
    return std::holds_alternative<std::int64_t>(v)
               ? static_cast<double>(std::get<std::int64_t>(v))
               : std::get<double>(v);
}

/**
 * Append a computed column to every row, written by the typed cell
 * function @p fn (charged per row).
 */
template <class Fn>
void
addComputed(MiniDb &db, RowSet &rows, const db::Column &column,
            const Fn &fn)
{
    rows.addColumn(column, fn);
    db.host().consumeCpu(db::kRowCpu * rows.size());
}

/** A one-row, one-column Double result. */
RowSet
scalar(double v)
{
    RowSet r(db::Schema({db::col("value", db::Type::Double)}));
    r.appendRow({Value(v)});
    return r;
}

/** Everything a query body needs. */
struct Ctx
{
    MiniDb &db;
    EngineMode mode;
    QueryOutcome &out;

    Table &t(const char *name) { return db.table(name); }

    /** The table indices of @p names: a scan's projection. */
    static std::vector<int>
    columnsOf(const Table &table, std::initializer_list<const char *> names)
    {
        std::vector<int> cols;
        for (const char *name : names)
            cols.push_back(table.schema().indexOf(name));
        return cols;
    }

    /**
     * The planner's candidate scan, keeping @p columns: its offload
     * decision defines the query's Fig. 10 category.
     */
    PackedScan
    primary(Table &table, const ExprPtr &pred,
            std::initializer_list<const char *> columns)
    {
        PackedScan s = db::scanTablePacked(db, table, pred, mode, out.stats,
                                           columnsOf(table, columns));
        out.ndp_used = s.used_ndp;
        out.planner_note = s.note;
        out.sampled_selectivity = s.sampled_selectivity;
        out.est_selectivity = s.est_selectivity;
        out.measured_selectivity = s.measured_selectivity;
        out.placement = s.placement;
        out.predicted_ticks = s.predicted_ticks;
        out.measured_ticks = s.measured_ticks;
        return s;
    }

    /**
     * A secondary scan (never the offload candidate), keeping
     * @p columns.
     */
    PackedScan
    scan(Table &table, const ExprPtr &pred,
         std::initializer_list<const char *> columns)
    {
        return db::scanTablePacked(db, table, pred, EngineMode::Conv,
                                   out.stats, columnsOf(table, columns));
    }

    /**
     * Join @p outer on its column @p outer_col. @p outer_width is the
     * outer rows' width in table bytes (the join buffer holds table
     * rows), not the projected rows' own width.
     */
    RowSet
    join(const RowSet &outer, Bytes outer_width, const char *outer_col,
         Table &inner, const char *inner_col,
         const ExprPtr &inner_pred = nullptr)
    {
        return db::bnlJoin(db, outer, outer_width,
                           outer.schema().indexOf(outer_col), inner,
                           inner.schema().indexOf(inner_col), inner_pred,
                           out.stats);
    }

    /** l_extendedprice * (1 - l_discount) of rows under @p s. */
    static auto
    revenueOf(const db::Schema &s)
    {
        const db::NumColumn price(s, s.indexOf("l_extendedprice"));
        const db::NumColumn disc(s, s.indexOf("l_discount"));
        return [=](RowRef r) { return price(r) * (1.0 - disc(r)); };
    }

    /** Append the revenue of each row's lineitem columns. */
    void
    addRevenue(RowSet &rows)
    {
        addComputed(db, rows, db::col("revenue", db::Type::Double),
                    revenueOf(rows.schema()));
    }
};

/** Column @p name of @p rows (panics unless exactly one has it). */
int
colOf(const RowSet &rows, const char *name)
{
    return rows.schema().indexOf(name);
}

// =====================================================================
// The 22 queries. Each scan keeps the columns its query reads, and
// every column is found by name in the row set at hand: joined rows
// concatenate the outer's kept columns with the inner table's. Width
// variables track *table* bytes per outer row for the BNL buffer
// model, whatever the scans kept.
// =====================================================================

// Q1: pricing summary report. One-sided shipdate range: the planner
// never attempts NDP ("expects the selectivity to be very low").
RowSet
q1(Ctx &c)
{
    auto &L = c.t("lineitem");
    auto s = c.primary(
        L,
        db::cmp(L.schema(), "l_shipdate", CmpOp::Le,
                std::string("1998-06-15")),
        {"l_quantity", "l_extendedprice", "l_discount", "l_returnflag",
         "l_linestatus"});
    c.addRevenue(s.rows);
    const RowSet &r = s.rows;
    auto grouped = db::groupBy(
        c.db, r, {colOf(r, "l_returnflag"), colOf(r, "l_linestatus")},
        {{AggSpec::Op::Sum, colOf(r, "l_quantity")},
         {AggSpec::Op::Sum, colOf(r, "l_extendedprice")},
         {AggSpec::Op::Sum, colOf(r, "revenue")},
         {AggSpec::Op::Avg, colOf(r, "l_quantity")},
         {AggSpec::Op::Count, -1}},
        c.out.stats);
    db::sortRows(grouped, {{0, false}, {1, false}});
    return grouped;
}

// Q2: minimum-cost supplier. Part filter samples out (BRASS is a
// fifth of all types: nearly every page matches).
RowSet
q2(Ctx &c)
{
    auto &P = c.t("part");
    const auto &ps = P.schema();
    // The part rows reach the result whole.
    auto parts = c.primary(
        P,
        db::exprAnd({db::like(ps, "p_type", "%BRASS"),
                     db::cmp(ps, "p_size", CmpOp::Eq, std::int64_t{15})}),
        {"p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size",
         "p_container", "p_retailprice"});
    auto j1 = c.join(parts.rows, P.rowWidth(), "p_partkey",
                     c.t("partsupp"), "ps_partkey");
    Bytes w1 = P.rowWidth() + c.t("partsupp").rowWidth();
    auto j2 = c.join(j1, w1, "ps_suppkey", c.t("supplier"), "s_suppkey");
    Bytes w2 = w1 + c.t("supplier").rowWidth();
    auto j3 = c.join(j2, w2, "s_nationkey", c.t("nation"), "n_nationkey");
    Bytes w3 = w2 + c.t("nation").rowWidth();
    auto &R = c.t("region");
    auto j4 = c.join(j3, w3, "n_regionkey", R, "r_regionkey",
                     db::cmp(R.schema(), "r_name", CmpOp::Eq,
                             std::string("EUROPE")));
    db::sortRows(j4, {{colOf(j4, "s_acctbal"), true}});
    j4.truncate(100);
    return j4;
}

// Q3: shipping priority. Customer segment filter samples out.
RowSet
q3(Ctx &c)
{
    auto &C = c.t("customer");
    auto cust = c.primary(C,
                          db::cmp(C.schema(), "c_mktsegment", CmpOp::Eq,
                                  std::string("BUILDING")),
                          {"c_custkey"});
    auto &O = c.t("orders");
    auto j1 = c.join(cust.rows, C.rowWidth(), "c_custkey", O, "o_custkey",
                     db::cmp(O.schema(), "o_orderdate", CmpOp::Lt,
                             std::string("1995-03-15")));
    Bytes w1 = C.rowWidth() + O.rowWidth();
    auto &L = c.t("lineitem");
    auto j2 = c.join(j1, w1, "o_orderkey", L, "l_orderkey",
                     db::cmp(L.schema(), "l_shipdate", CmpOp::Gt,
                             std::string("1995-03-15")));
    c.addRevenue(j2);
    auto grouped = db::groupBy(
        c.db, j2, {colOf(j2, "o_orderkey"), colOf(j2, "o_orderdate")},
        {{AggSpec::Op::Sum, colOf(j2, "revenue")}}, c.out.stats);
    db::sortRows(grouped, {{2, true}});
    grouped.truncate(10);
    return grouped;
}

// Q4: order priority checking. Three-month o_orderdate window: month
// keys, clustered orders, NDP offloads.
RowSet
q4(Ctx &c)
{
    auto &O = c.t("orders");
    auto orders = c.primary(
        O,
        db::between(O.schema(), "o_orderdate", std::string("1993-07-01"),
                    std::string("1993-09-30")),
        {"o_orderkey", "o_orderpriority"});
    auto &L = c.t("lineitem");
    auto j = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                    "l_orderkey",
                    db::cmpCols(L.schema(), "l_commitdate", CmpOp::Lt,
                                "l_receiptdate"));
    // EXISTS semantics: one hit per order.
    std::set<std::int64_t> seen;
    RowSet exists(j.schema());
    int o_orderkey = colOf(j, "o_orderkey");
    for (std::size_t i = 0; i < j.size(); ++i) {
        if (seen.insert(j[i].i64(o_orderkey)).second)
            exists.append(j.slot(i));
    }
    auto grouped = db::groupBy(c.db, exists,
                               {colOf(exists, "o_orderpriority")},
                               {{AggSpec::Op::Count, -1}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q5: local supplier volume. One-year o_orderdate window offloads;
// the offloaded plan puts the filtered orders first in the join
// order, while the conventional MariaDB plan drives the BNL from the
// smallest predicated table (customer), re-scanning the fact tables
// once per buffer block.
RowSet
q5(Ctx &c)
{
    auto &O = c.t("orders");
    auto &L = c.t("lineitem");
    auto &C = c.t("customer");
    auto &N = c.t("nation");
    auto &R = c.t("region");
    auto date_pred = db::between(O.schema(), "o_orderdate",
                                 std::string("1994-01-01"),
                                 std::string("1994-12-31"));
    auto asia = db::cmp(R.schema(), "r_name", CmpOp::Eq,
                        std::string("ASIA"));

    RowSet j3;
    Bytes w3;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered orders first. Layout [O, L, C, N, R].
        auto orders = c.primary(O, date_pred, {"o_orderkey", "o_custkey"});
        auto j1 = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                         "l_orderkey");
        Bytes w1 = O.rowWidth() + L.rowWidth();
        auto j2 = c.join(j1, w1, "o_custkey", C, "c_custkey");
        Bytes w2 = w1 + C.rowWidth();
        j3 = c.join(j2, w2, "c_nationkey", N, "n_nationkey");
        w3 = w2 + N.rowWidth();
    } else {
        // MariaDB plan: customer drives; orders/lineitem are BNL
        // inners re-scanned per block. Layout [C, O, L, N, R].
        c.out.planner_note =
            "conventional plan (customer-outer BNL)";
        auto cust = c.scan(C, nullptr, {"c_custkey", "c_nationkey"});
        auto j1 = c.join(cust.rows, C.rowWidth(), "c_custkey", O,
                         "o_custkey", date_pred);
        Bytes w1 = C.rowWidth() + O.rowWidth();
        auto j2 = c.join(j1, w1, "o_orderkey", L, "l_orderkey");
        Bytes w2 = w1 + L.rowWidth();
        j3 = c.join(j2, w2, "c_nationkey", N, "n_nationkey");
        w3 = w2 + N.rowWidth();
    }
    auto j4 = c.join(j3, w3, "n_regionkey", R, "r_regionkey", asia);

    c.addRevenue(j4);
    auto grouped = db::groupBy(c.db, j4, {colOf(j4, "n_name")},
                               {{AggSpec::Op::Sum, colOf(j4, "revenue")}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    return grouped;
}

// Q6: revenue forecast. Pure scan + aggregate on lineitem; the
// one-year shipdate conjunct provides the key.
RowSet
q6(Ctx &c)
{
    auto &L = c.t("lineitem");
    const auto &ls = L.schema();
    auto s = c.primary(
        L,
        db::exprAnd({db::between(ls, "l_shipdate",
                                 std::string("1994-01-01"),
                                 std::string("1994-12-31")),
                     db::between(ls, "l_discount", 0.05, 0.07),
                     db::cmp(ls, "l_quantity", CmpOp::Lt, 24.0)}),
        {"l_extendedprice", "l_discount"});
    const db::Schema &rs = s.rows.schema();
    const db::NumColumn price(rs, colOf(s.rows, "l_extendedprice"));
    const db::NumColumn disc(rs, colOf(s.rows, "l_discount"));
    double revenue = 0;
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
        const std::uint8_t *slot = s.rows.slot(i);
        revenue += price(slot) * disc(slot);
    }
    c.db.host().consumeCpu(db::kRowCpu * s.rows.size());
    return scalar(revenue);
}

// Q7: volume shipping. The filter lives on tiny nation tables; the
// planner gives up NDP ("target table size is too small").
RowSet
q7(Ctx &c)
{
    auto &N = c.t("nation");
    auto nations = c.primary(
        N,
        db::inSet(N.schema(), "n_name",
                  {std::string("FRANCE"), std::string("GERMANY")}),
        {"n_nationkey", "n_name"});
    auto &S = c.t("supplier");
    auto j1 = c.join(nations.rows, N.rowWidth(), "n_nationkey", S,
                     "s_nationkey");
    Bytes w1 = N.rowWidth() + S.rowWidth();
    auto &L = c.t("lineitem");
    auto j2 = c.join(j1, w1, "s_suppkey", L, "l_suppkey");
    // The date window applies after the join (not the NDP candidate).
    const int ship = colOf(j2, "l_shipdate");
    RowSet filtered(j2.schema());
    for (std::size_t i = 0; i < j2.size(); ++i) {
        std::string_view d = j2[i].str(ship);
        if (d >= "1995-01-01" && d <= "1996-12-31")
            filtered.append(j2.slot(i));
    }
    c.db.host().consumeCpu(db::kRowCpu * j2.size());
    c.addRevenue(filtered);
    auto grouped = db::groupBy(
        c.db, filtered, {colOf(filtered, "n_name")},
        {{AggSpec::Op::Sum, colOf(filtered, "revenue")}}, c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q8: national market share. Two-year o_orderdate window: year keys.
RowSet
q8(Ctx &c)
{
    auto &O = c.t("orders");
    auto orders = c.primary(
        O,
        db::between(O.schema(), "o_orderdate", std::string("1995-01-01"),
                    std::string("1996-12-31")),
        {"o_orderkey", "o_orderdate"});
    auto &L = c.t("lineitem");
    auto j1 = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                     "l_orderkey");
    Bytes w1 = O.rowWidth() + L.rowWidth();
    auto &P = c.t("part");
    auto j2 = c.join(j1, w1, "l_partkey", P, "p_partkey",
                     db::cmp(P.schema(), "p_type", CmpOp::Eq,
                             std::string("ECONOMY ANODIZED STEEL")));
    c.addRevenue(j2);
    // Group volume by order year.
    int o_date = colOf(j2, "o_orderdate");
    j2.addColumn(db::col("year", db::Type::String, 4), [=](RowRef r) {
        return r.str(o_date).substr(0, 4);
    });
    auto grouped = db::groupBy(c.db, j2, {colOf(j2, "year")},
                               {{AggSpec::Op::Sum, colOf(j2, "revenue")}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q9: product type profit. '%green%' p_name filter samples out.
RowSet
q9(Ctx &c)
{
    auto &P = c.t("part");
    auto parts = c.primary(P, db::like(P.schema(), "p_name", "%green%"),
                           {"p_partkey"});
    auto &L = c.t("lineitem");
    auto j1 = c.join(parts.rows, P.rowWidth(), "p_partkey", L,
                     "l_partkey");
    Bytes w1 = P.rowWidth() + L.rowWidth();
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, "l_suppkey", S, "s_suppkey");
    Bytes w2 = w1 + S.rowWidth();
    auto &N = c.t("nation");
    auto j3 = c.join(j2, w2, "s_nationkey", N, "n_nationkey");
    const auto &js = j3.schema();
    const db::NumColumn price(js, colOf(j3, "l_extendedprice"));
    const db::NumColumn disc(js, colOf(j3, "l_discount"));
    const db::NumColumn qty(js, colOf(j3, "l_quantity"));
    addComputed(c.db, j3, db::col("profit", db::Type::Double),
                [=](RowRef r) {
                    return price(r) * (1.0 - disc(r)) - 0.5 * qty(r);
                });
    auto grouped = db::groupBy(c.db, j3, {colOf(j3, "n_name")},
                               {{AggSpec::Op::Sum, colOf(j3, "profit")}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q10: returned item reporting. Three-month o_orderdate offloads;
// conventional MariaDB drives the BNL from customer.
RowSet
q10(Ctx &c)
{
    auto &O = c.t("orders");
    auto &L = c.t("lineitem");
    auto &C = c.t("customer");
    auto date_pred = db::between(O.schema(), "o_orderdate",
                                 std::string("1993-10-01"),
                                 std::string("1993-12-31"));
    auto returned = db::cmp(L.schema(), "l_returnflag", CmpOp::Eq,
                            std::string("R"));

    RowSet j2;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered orders first. Layout [O, L, C].
        auto orders = c.primary(O, date_pred, {"o_orderkey", "o_custkey"});
        auto j1 = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                         "l_orderkey", returned);
        Bytes w1 = O.rowWidth() + L.rowWidth();
        j2 = c.join(j1, w1, "o_custkey", C, "c_custkey");
    } else {
        // MariaDB plan: customer-outer BNL. Layout [C, O, L].
        c.out.planner_note =
            "conventional plan (customer-outer BNL)";
        auto cust = c.scan(C, nullptr, {"c_custkey", "c_name"});
        auto j1 = c.join(cust.rows, C.rowWidth(), "c_custkey", O,
                         "o_custkey", date_pred);
        Bytes w1 = C.rowWidth() + O.rowWidth();
        j2 = c.join(j1, w1, "o_orderkey", L, "l_orderkey", returned);
    }

    c.addRevenue(j2);
    auto grouped = db::groupBy(c.db, j2, {colOf(j2, "c_name")},
                               {{AggSpec::Op::Sum, colOf(j2, "revenue")}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    grouped.truncate(20);
    return grouped;
}

// Q11: important stock. Nation filter on a tiny table: no NDP.
RowSet
q11(Ctx &c)
{
    auto &N = c.t("nation");
    auto nations = c.primary(N,
                             db::cmp(N.schema(), "n_name", CmpOp::Eq,
                                     std::string("GERMANY")),
                             {"n_nationkey"});
    auto &S = c.t("supplier");
    auto j1 = c.join(nations.rows, N.rowWidth(), "n_nationkey", S,
                     "s_nationkey");
    Bytes w1 = N.rowWidth() + S.rowWidth();
    auto &PS = c.t("partsupp");
    auto j2 = c.join(j1, w1, "s_suppkey", PS, "ps_suppkey");
    const db::NumColumn cost(j2.schema(), colOf(j2, "ps_supplycost"));
    const db::NumColumn avail(j2.schema(), colOf(j2, "ps_availqty"));
    addComputed(c.db, j2, db::col("value", db::Type::Double),
                [=](RowRef r) { return cost(r) * avail(r); });
    auto grouped = db::groupBy(c.db, j2, {colOf(j2, "ps_partkey")},
                               {{AggSpec::Op::Sum, colOf(j2, "value")}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    grouped.truncate(50);
    return grouped;
}

// Q12: shipping mode priority. One-year l_receiptdate window
// offloads (the planner prefers the single year key over the two IN
// keys); the conventional MariaDB plan drives the BNL from the
// smaller orders table and re-scans lineitem per block.
RowSet
q12(Ctx &c)
{
    auto &L = c.t("lineitem");
    auto &O = c.t("orders");
    const auto &ls = L.schema();
    auto pred = db::exprAnd(
        {db::between(ls, "l_receiptdate", std::string("1994-01-01"),
                     std::string("1994-12-31")),
         db::inSet(ls, "l_shipmode",
                   {std::string("MAIL"), std::string("SHIP")}),
         db::cmpCols(ls, "l_commitdate", CmpOp::Lt, "l_receiptdate"),
         db::cmpCols(ls, "l_shipdate", CmpOp::Lt, "l_commitdate")});

    RowSet j;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered lineitem first. Layout [L, O].
        auto lines = c.primary(L, pred, {"l_orderkey", "l_shipmode"});
        j = c.join(lines.rows, L.rowWidth(), "l_orderkey", O,
                   "o_orderkey");
    } else {
        // MariaDB plan: orders-outer BNL. Layout [O, L].
        c.out.planner_note = "conventional plan (orders-outer BNL)";
        auto orders =
            c.scan(O, nullptr, {"o_orderkey", "o_orderpriority"});
        j = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                   "l_orderkey", pred);
    }

    int o_prio = colOf(j, "o_orderpriority");
    auto high = [o_prio](RowRef r) {
        std::string_view p = r.str(o_prio);
        return p == "1-URGENT" || p == "2-HIGH";
    };
    j.addColumn(db::col("high", db::Type::Int64), [&](RowRef r) {
        return std::int64_t{high(r) ? 1 : 0};
    });
    j.addColumn(db::col("low", db::Type::Int64), [&](RowRef r) {
        return std::int64_t{high(r) ? 0 : 1};
    });
    auto grouped = db::groupBy(c.db, j, {colOf(j, "l_shipmode")},
                               {{AggSpec::Op::Sum, colOf(j, "high")},
                                {AggSpec::Op::Sum, colOf(j, "low")}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q13: customer distribution. NOT LIKE cannot run on the matcher IP.
RowSet
q13(Ctx &c)
{
    auto &O = c.t("orders");
    auto orders = c.primary(
        O, db::notLike(O.schema(), "o_comment", "%special%requests%"),
        {"o_custkey"});
    auto grouped = db::groupBy(c.db, orders.rows,
                               {colOf(orders.rows, "o_custkey")},
                               {{AggSpec::Op::Count, -1}},
                               c.out.stats);
    // Distribution of counts.
    auto dist = db::groupBy(c.db, grouped, {1},
                            {{AggSpec::Op::Count, -1}}, c.out.stats);
    db::sortRows(dist, {{1, true}, {0, true}});
    return dist;
}

// Q14: promotion effect. One-month l_shipdate window: the flagship
// offload — early filtering flips the join from part-outer (many
// full lineitem passes) to filtered-lineitem-outer.
RowSet
q14(Ctx &c)
{
    auto &L = c.t("lineitem");
    auto &P = c.t("part");
    auto pred = db::between(L.schema(), "l_shipdate",
                            std::string("1995-09-01"),
                            std::string("1995-09-30"));

    RowSet joined;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filter lineitem on the device, then put the
        // (small) filtered row set first in the join order — the
        // paper's query-planning heuristic for offloaded filters.
        auto lines = c.primary(
            L, pred, {"l_partkey", "l_extendedprice", "l_discount"});
        joined = c.join(lines.rows, L.rowWidth(), "l_partkey", P,
                        "p_partkey");
    } else {
        // MariaDB default: smallest table (part) drives the BNL; the
        // big lineitem table is re-scanned once per buffer block,
        // evaluating the date filter on the host each pass.
        c.out.planner_note = "conventional plan (part-outer BNL)";
        auto parts = c.scan(P, nullptr, {"p_partkey", "p_type"});
        joined = c.join(parts.rows, P.rowWidth(), "p_partkey", L,
                        "l_partkey", pred);
    }
    const db::Schema &js = joined.schema();
    const db::NumColumn price(js, colOf(joined, "l_extendedprice"));
    const db::NumColumn disc(js, colOf(joined, "l_discount"));
    const auto type = static_cast<std::size_t>(colOf(joined, "p_type"));
    const Bytes type_off = js.offsetOf(type);
    const Bytes type_w = js.at(type).width;
    double promo = 0, total = 0;
    for (std::size_t i = 0; i < joined.size(); ++i) {
        const std::uint8_t *slot = joined.slot(i);
        double rev = price(slot) * (1.0 - disc(slot));
        total += rev;
        if (db::cellText(slot + type_off, type_w).starts_with("PROMO"))
            promo += rev;
    }
    c.db.host().consumeCpu(db::kRowCpu * joined.size());
    return scalar(total > 0 ? 100.0 * promo / total : 0.0);
}

// Q15: top supplier. Three-month l_shipdate window offloads.
RowSet
q15(Ctx &c)
{
    auto &L = c.t("lineitem");
    auto lines = c.primary(
        L,
        db::between(L.schema(), "l_shipdate", std::string("1996-01-01"),
                    std::string("1996-03-31")),
        {"l_suppkey", "l_extendedprice", "l_discount"});
    c.addRevenue(lines.rows);
    const RowSet &r = lines.rows;
    auto grouped = db::groupBy(c.db, r, {colOf(r, "l_suppkey")},
                               {{AggSpec::Op::Sum, colOf(r, "revenue")}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    grouped.truncate(1);
    // Attach the supplier record.
    auto &S = c.t("supplier");
    return c.join(grouped, 16, "l_suppkey", S, "s_suppkey");
}

// Q16: part/supplier relationship (simplified: the spec's negated
// brand/type predicates are replaced by a brand equality so the
// planner reaches its sampling stage, which rejects the offload — a
// fifth of pages would not match, but nearly all do).
RowSet
q16(Ctx &c)
{
    auto &P = c.t("part");
    auto parts = c.primary(P,
                           db::cmp(P.schema(), "p_brand", CmpOp::Eq,
                                   std::string("Brand#35")),
                           {"p_partkey", "p_brand", "p_type", "p_size"});
    auto &PS = c.t("partsupp");
    auto j = c.join(parts.rows, P.rowWidth(), "p_partkey", PS,
                    "ps_partkey");
    auto grouped = db::groupBy(
        c.db, j,
        {colOf(j, "p_brand"), colOf(j, "p_type"), colOf(j, "p_size")},
        {{AggSpec::Op::Count, -1}}, c.out.stats);
    db::sortRows(grouped, {{3, true}});
    grouped.truncate(40);
    return grouped;
}

// Q17: small-quantity-order revenue. Brand+container filter samples
// out (a 25th of rows still touches nearly every page).
RowSet
q17(Ctx &c)
{
    auto &P = c.t("part");
    const auto &ps = P.schema();
    auto parts = c.primary(
        P,
        db::exprAnd({db::cmp(ps, "p_brand", CmpOp::Eq,
                             std::string("Brand#23")),
                     db::cmp(ps, "p_container", CmpOp::Eq,
                             std::string("MED BOX"))}),
        {"p_partkey"});
    auto &L = c.t("lineitem");
    auto j = c.join(parts.rows, P.rowWidth(), "p_partkey", L,
                    "l_partkey");
    // avg quantity per part, then the below-20% slice.
    int l_qty = colOf(j, "l_quantity");
    int p_key = colOf(j, "p_partkey");
    std::map<std::int64_t, std::pair<double, int>> avg;
    for (std::size_t i = 0; i < j.size(); ++i) {
        auto &acc = avg[j[i].i64(p_key)];
        acc.first += j[i].num(l_qty);
        acc.second += 1;
    }
    double total = 0;
    int l_price = colOf(j, "l_extendedprice");
    for (std::size_t i = 0; i < j.size(); ++i) {
        auto &acc = avg[j[i].i64(p_key)];
        if (j[i].num(l_qty) < 0.2 * acc.first / acc.second)
            total += j[i].num(l_price);
    }
    c.db.host().consumeCpu(2 * db::kRowCpu * j.size());
    return scalar(total / 7.0);
}

// Q18: large volume customer. No filter predicate at all.
RowSet
q18(Ctx &c)
{
    auto &L = c.t("lineitem");
    auto lines = c.primary(L, nullptr, {"l_orderkey", "l_quantity"});
    const RowSet &r = lines.rows;
    auto per_order = db::groupBy(
        c.db, r, {colOf(r, "l_orderkey")},
        {{AggSpec::Op::Sum, colOf(r, "l_quantity")}}, c.out.stats);
    RowSet big(per_order.schema());
    for (std::size_t i = 0; i < per_order.size(); ++i) {
        if (per_order[i].num(1) > 270.0)
            big.append(per_order.slot(i));
    }
    c.db.host().consumeCpu(db::kRowCpu * per_order.size());
    auto &O = c.t("orders");
    auto j = c.join(big, 16, "l_orderkey", O, "o_orderkey");
    db::sortRows(j, {{1, true}});
    j.truncate(100);
    return j;
}

// Q19: discounted revenue. The OR arms mix numeric ranges the matcher
// cannot express: no NDP attempt.
RowSet
q19(Ctx &c)
{
    auto &L = c.t("lineitem");
    const auto &ls = L.schema();
    auto lines = c.primary(
        L,
        db::exprOr(
            {db::exprAnd({db::between(ls, "l_quantity", 1.0, 11.0),
                          db::cmp(ls, "l_shipmode", CmpOp::Eq,
                                  std::string("AIR"))}),
             db::exprAnd({db::between(ls, "l_quantity", 10.0, 20.0),
                          db::cmp(ls, "l_shipmode", CmpOp::Eq,
                                  std::string("AIR"))}),
             db::exprAnd({db::between(ls, "l_quantity", 20.0, 30.0),
                          db::cmp(ls, "l_shipinstruct", CmpOp::Eq,
                                  std::string("DELIVER IN PERSON"))})}),
        {"l_partkey", "l_extendedprice", "l_discount"});
    auto &P = c.t("part");
    auto j = c.join(lines.rows, L.rowWidth(), "l_partkey", P, "p_partkey",
                    db::cmp(P.schema(), "p_brand", CmpOp::Eq,
                            std::string("Brand#12")));
    const int price = colOf(j, "l_extendedprice");
    const int disc = colOf(j, "l_discount");
    double rev = 0;
    for (std::size_t i = 0; i < j.size(); ++i)
        rev += j[i].num(price) * (1.0 - j[i].num(disc));
    c.db.host().consumeCpu(db::kRowCpu * j.size());
    return scalar(rev);
}

// Q20: potential part promotion. 'forest%' p_name filter samples out.
RowSet
q20(Ctx &c)
{
    auto &P = c.t("part");
    auto parts = c.primary(P, db::like(P.schema(), "p_name", "forest%"),
                           {"p_partkey"});
    auto &PS = c.t("partsupp");
    auto j1 = c.join(parts.rows, P.rowWidth(), "p_partkey", PS,
                     "ps_partkey");
    Bytes w1 = P.rowWidth() + PS.rowWidth();
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, "ps_suppkey", S, "s_suppkey");
    auto grouped = db::groupBy(c.db, j2, {colOf(j2, "s_name")},
                               {{AggSpec::Op::Count, -1}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    grouped.truncate(50);
    return grouped;
}

// Q21: suppliers who kept orders waiting. Single-character status
// predicate: expected selectivity too low, no NDP attempt.
RowSet
q21(Ctx &c)
{
    auto &O = c.t("orders");
    auto orders = c.primary(O,
                            db::cmp(O.schema(), "o_orderstatus", CmpOp::Eq,
                                    std::string("F")),
                            {"o_orderkey"});
    auto &L = c.t("lineitem");
    auto j1 = c.join(orders.rows, O.rowWidth(), "o_orderkey", L,
                     "l_orderkey",
                     db::cmpCols(L.schema(), "l_receiptdate", CmpOp::Gt,
                                 "l_commitdate"));
    Bytes w1 = O.rowWidth() + L.rowWidth();
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, "l_suppkey", S, "s_suppkey");
    auto grouped = db::groupBy(c.db, j2, {colOf(j2, "s_name")},
                               {{AggSpec::Op::Count, -1}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    grouped.truncate(100);
    return grouped;
}

// Q22: global sales opportunity. Two-character country codes are
// below the matcher's useful key length: no NDP attempt.
RowSet
q22(Ctx &c)
{
    auto &C = c.t("customer");
    // Only the planner's decision on this scan is used (the Fig. 10
    // category); it keeps the one column its predicate tests.
    c.primary(C,
              db::inSet(C.schema(), "c_phone",
                        {std::string("13"), std::string("31"),
                         std::string("23")}),
              {"c_phone"});
    // Custom predicate: phone prefix in the code set and positive
    // balance (the IN above intentionally fails to match whole
    // fields; re-filter by prefix here).
    auto all = c.scan(C, nullptr, {"c_phone", "c_acctbal"});
    int c_phone = colOf(all.rows, "c_phone");
    int c_bal = colOf(all.rows, "c_acctbal");
    RowSet eligible(all.rows.schema());
    for (std::size_t i = 0; i < all.rows.size(); ++i) {
        const RowRef r = all.rows[i];
        std::string_view p = r.str(c_phone);
        bool code = p.starts_with("13") || p.starts_with("31") ||
                    p.starts_with("23");
        if (code && r.num(c_bal) > 0.0)
            eligible.append(r.data());
    }
    c.db.host().consumeCpu(db::kRowCpu * all.rows.size());
    eligible.addColumn(db::col("code", db::Type::String, 2),
                       [=](RowRef r) { return r.str(c_phone).substr(0, 2); });
    auto grouped = db::groupBy(c.db, eligible, {colOf(eligible, "code")},
                               {{AggSpec::Op::Count, -1},
                                {AggSpec::Op::Sum, c_bal}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

using QueryFn = RowSet (*)(Ctx &);

struct QueryEntry
{
    QueryFn fn;
    const char *title;
};

const std::map<int, QueryEntry> &
queryMap()
{
    static const std::map<int, QueryEntry> m = {
        {1, {q1, "pricing summary report"}},
        {2, {q2, "minimum cost supplier"}},
        {3, {q3, "shipping priority"}},
        {4, {q4, "order priority checking"}},
        {5, {q5, "local supplier volume"}},
        {6, {q6, "forecasting revenue change"}},
        {7, {q7, "volume shipping"}},
        {8, {q8, "national market share"}},
        {9, {q9, "product type profit"}},
        {10, {q10, "returned item reporting"}},
        {11, {q11, "important stock identification"}},
        {12, {q12, "shipping modes and priority"}},
        {13, {q13, "customer distribution"}},
        {14, {q14, "promotion effect"}},
        {15, {q15, "top supplier"}},
        {16, {q16, "parts/supplier relationship"}},
        {17, {q17, "small-quantity-order revenue"}},
        {18, {q18, "large volume customer"}},
        {19, {q19, "discounted revenue"}},
        {20, {q20, "potential part promotion"}},
        {21, {q21, "suppliers who kept orders waiting"}},
        {22, {q22, "global sales opportunity"}},
    };
    return m;
}

}  // namespace

std::vector<int>
allQueries()
{
    std::vector<int> qs;
    for (const auto &[num, entry] : queryMap())
        qs.push_back(num);
    return qs;
}

std::string
queryTitle(int q)
{
    auto it = queryMap().find(q);
    BISC_ASSERT(it != queryMap().end(), "no such query: Q", q);
    return "Q" + std::to_string(q) + " " + it->second.title;
}

QueryOutcome
runQuery(int q, db::MiniDb &db, db::EngineMode mode)
{
    auto it = queryMap().find(q);
    BISC_ASSERT(it != queryMap().end(), "no such query: Q", q);
    QueryOutcome out;
    Ctx ctx{db, mode, out};
    auto &kernel = db.env().kernel;
    Tick t0 = kernel.now();
    out.rows = it->second.fn(ctx).toRows();
    out.elapsed = kernel.now() - t0;
    OBS_COMPLETE(kernel.obs(), "tpch",
                 kernel.obs().intern(
                     "Q" + std::to_string(q) +
                     (mode == EngineMode::Biscuit ? ".biscuit"
                                                  : ".conv")),
                 t0, out.elapsed);
    out.stats.elapsed = out.elapsed;
    return out;
}

QueryRun
runQueryBoth(int q, db::MiniDb &db)
{
    QueryRun run;
    run.number = q;
    run.title = queryTitle(q);
    run.conv = runQuery(q, db, EngineMode::Conv);
    run.biscuit = runQuery(q, db, EngineMode::Biscuit);
    return run;
}

bool
QueryRun::resultsMatch() const
{
    if (conv.rows.size() != biscuit.rows.size())
        return false;
    for (std::size_t i = 0; i < conv.rows.size(); ++i) {
        if (conv.rows[i].size() != biscuit.rows[i].size())
            return false;
        for (std::size_t j = 0; j < conv.rows[i].size(); ++j) {
            const Value &a = conv.rows[i][j];
            const Value &b = biscuit.rows[i][j];
            if (std::holds_alternative<std::string>(a)) {
                if (!std::holds_alternative<std::string>(b) ||
                    std::get<std::string>(a) !=
                        std::get<std::string>(b))
                    return false;
            } else {
                // Join-order changes reorder floating-point
                // accumulation; compare numerics with tolerance.
                double x = dv(a), y = dv(b);
                double tol =
                    1e-6 + 1e-9 * std::max(std::abs(x), std::abs(y));
                if (std::abs(x - y) > tol)
                    return false;
            }
        }
    }
    return true;
}

}  // namespace bisc::tpch
