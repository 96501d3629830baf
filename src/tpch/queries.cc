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

/**
 * Fill computed column @p col, which the scan that made @p rows
 * reserved (charged per row, as addComputed is).
 */
template <class Fn>
void
fillComputed(MiniDb &db, RowSet &rows, int col, const Fn &fn)
{
    rows.fillColumn(col, fn);
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

    int
    ix(const char *table, const char *column)
    {
        return db.table(table).schema().indexOf(column);
    }

    /**
     * The planner's candidate scan: its offload decision defines the
     * query's Fig. 10 category.
     */
    PackedScan
    primary(Table &table, const ExprPtr &pred,
            const std::vector<db::Column> &computed = {})
    {
        PackedScan s = db::scanTablePacked(db, table, pred, mode,
                                           out.stats, computed);
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

    /** A secondary scan (never the offload candidate). */
    PackedScan
    scan(Table &table, const ExprPtr &pred)
    {
        return db::scanTablePacked(db, table, pred, EngineMode::Conv,
                                   out.stats);
    }

    RowSet
    join(const RowSet &outer, Bytes outer_width, int outer_col,
         Table &inner, const char *inner_col,
         const ExprPtr &inner_pred = nullptr)
    {
        return db::bnlJoin(db, outer, outer_width, outer_col, inner,
                           inner.schema().indexOf(inner_col),
                           inner_pred, out.stats);
    }

    /** The column addRevenue appends. */
    static db::Column
    revenueColumn()
    {
        return db::col("revenue", db::Type::Double);
    }

    /**
     * l_extendedprice * (1 - l_discount), reading the lineitem columns
     * at @p base of @p s.
     */
    auto
    revenueOf(const db::Schema &s, int base)
    {
        const db::NumColumn price(
            s, base + ix("lineitem", "l_extendedprice"));
        const db::NumColumn disc(s, base + ix("lineitem", "l_discount"));
        return [=](RowRef r) { return price(r) * (1.0 - disc(r)); };
    }

    /** Append the revenue of the lineitem columns at @p base. */
    void
    addRevenue(RowSet &rows, int base)
    {
        addComputed(db, rows, revenueColumn(),
                    revenueOf(rows.schema(), base));
    }

    /**
     * Fill the revenue cell a lineitem scan reserved after its columns
     * (primary(..., {revenueColumn()})); charged as addRevenue is.
     */
    void
    fillRevenue(RowSet &rows)
    {
        fillComputed(db, rows,
                     static_cast<int>(t("lineitem").schema().size()),
                     revenueOf(rows.schema(), 0));
    }
};

/** Index of the last column of @p rows (a just-computed one). */
int
lastCol(const RowSet &rows)
{
    return static_cast<int>(rows.schema().size()) - 1;
}

// =====================================================================
// The 22 queries. Column index bookkeeping: joined rows concatenate
// outer columns then inner columns; width variables track storage
// bytes for the BNL buffer model.
// =====================================================================

// Q1: pricing summary report. One-sided shipdate range: the planner
// never attempts NDP ("expects the selectivity to be very low").
RowSet
q1(Ctx &c)
{
    auto &L = c.t("lineitem");
    const auto &ls = L.schema();
    auto s = c.primary(
        L,
        db::cmp(ls, "l_shipdate", CmpOp::Le, std::string("1998-06-15")),
        {Ctx::revenueColumn()});
    c.fillRevenue(s.rows);
    int disc_price = static_cast<int>(ls.size());
    auto grouped = db::groupBy(
        c.db, s.rows,
        {ls.indexOf("l_returnflag"), ls.indexOf("l_linestatus")},
        {{AggSpec::Op::Sum, ls.indexOf("l_quantity")},
         {AggSpec::Op::Sum, ls.indexOf("l_extendedprice")},
         {AggSpec::Op::Sum, disc_price},
         {AggSpec::Op::Avg, ls.indexOf("l_quantity")},
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
    auto parts = c.primary(
        P, db::exprAnd({db::like(ps, "p_type", "%BRASS"),
                        db::cmp(ps, "p_size", CmpOp::Eq,
                                std::int64_t{15})}));
    auto j1 = c.join(parts.rows, P.rowWidth(),
                     ps.indexOf("p_partkey"), c.t("partsupp"),
                     "ps_partkey");
    Bytes w1 = P.rowWidth() + c.t("partsupp").rowWidth();
    int ps_suppkey = static_cast<int>(ps.size()) +
                     c.ix("partsupp", "ps_suppkey");
    auto j2 = c.join(j1, w1, ps_suppkey, c.t("supplier"), "s_suppkey");
    Bytes w2 = w1 + c.t("supplier").rowWidth();
    int s_nat = static_cast<int>(ps.size()) + 4 +
                c.ix("supplier", "s_nationkey");
    auto j3 = c.join(j2, w2, s_nat, c.t("nation"), "n_nationkey");
    Bytes w3 = w2 + c.t("nation").rowWidth();
    int n_reg = static_cast<int>(ps.size()) + 4 + 6 +
                c.ix("nation", "n_regionkey");
    auto &R = c.t("region");
    auto j4 = c.join(j3, w3, n_reg, R, "r_regionkey",
                     db::cmp(R.schema(), "r_name", CmpOp::Eq,
                             std::string("EUROPE")));
    int s_acctbal = static_cast<int>(ps.size()) + 4 +
                    c.ix("supplier", "s_acctbal");
    db::sortRows(j4, {{s_acctbal, true}});
    j4.truncate(100);
    return j4;
}

// Q3: shipping priority. Customer segment filter samples out.
RowSet
q3(Ctx &c)
{
    auto &C = c.t("customer");
    const auto &cs = C.schema();
    auto cust = c.primary(C, db::cmp(cs, "c_mktsegment", CmpOp::Eq,
                                     std::string("BUILDING")));
    auto &O = c.t("orders");
    auto j1 = c.join(cust.rows, C.rowWidth(),
                     cs.indexOf("c_custkey"), O, "o_custkey",
                     db::cmp(O.schema(), "o_orderdate", CmpOp::Lt,
                             std::string("1995-03-15")));
    Bytes w1 = C.rowWidth() + O.rowWidth();
    int o_orderkey = static_cast<int>(cs.size()) +
                     c.ix("orders", "o_orderkey");
    auto &L = c.t("lineitem");
    auto j2 = c.join(j1, w1, o_orderkey, L, "l_orderkey",
                     db::cmp(L.schema(), "l_shipdate", CmpOp::Gt,
                             std::string("1995-03-15")));
    int base = static_cast<int>(cs.size() + O.schema().size());
    c.addRevenue(j2, base);
    int rev = static_cast<int>(cs.size() + O.schema().size() +
                               L.schema().size());
    auto grouped = db::groupBy(
        c.db, j2,
        {o_orderkey,
         static_cast<int>(cs.size()) + c.ix("orders", "o_orderdate")},
        {{AggSpec::Op::Sum, rev}}, c.out.stats);
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
    const auto &os = O.schema();
    auto orders = c.primary(
        O, db::between(os, "o_orderdate", std::string("1993-07-01"),
                       std::string("1993-09-30")));
    auto &L = c.t("lineitem");
    auto j = c.join(orders.rows, O.rowWidth(),
                    os.indexOf("o_orderkey"), L, "l_orderkey",
                    db::cmpCols(L.schema(), "l_commitdate", CmpOp::Lt,
                                "l_receiptdate"));
    // EXISTS semantics: one hit per order.
    std::set<std::int64_t> seen;
    RowSet exists(j.schema());
    int o_orderkey = os.indexOf("o_orderkey");
    for (std::size_t i = 0; i < j.size(); ++i) {
        if (seen.insert(j[i].i64(o_orderkey)).second)
            exists.append(j.slot(i));
    }
    auto grouped = db::groupBy(c.db, exists,
                               {os.indexOf("o_orderpriority")},
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
    const auto &os = O.schema();
    auto date_pred = db::between(os, "o_orderdate",
                                 std::string("1994-01-01"),
                                 std::string("1994-12-31"));
    auto asia = db::cmp(R.schema(), "r_name", CmpOp::Eq,
                        std::string("ASIA"));

    RowSet j4;
    int base_l, base_n;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered orders first. Layout [O, L, C, N, R].
        auto orders = c.primary(O, date_pred);
        auto j1 = c.join(orders.rows, O.rowWidth(),
                         os.indexOf("o_orderkey"), L, "l_orderkey");
        Bytes w1 = O.rowWidth() + L.rowWidth();
        auto j2 = c.join(j1, w1, os.indexOf("o_custkey"), C,
                         "c_custkey");
        Bytes w2 = w1 + C.rowWidth();
        int c_nat = static_cast<int>(os.size() + L.schema().size()) +
                    c.ix("customer", "c_nationkey");
        auto j3 = c.join(j2, w2, c_nat, N, "n_nationkey");
        Bytes w3 = w2 + N.rowWidth();
        base_n = static_cast<int>(os.size() + L.schema().size() +
                                  C.schema().size());
        int n_reg = base_n + c.ix("nation", "n_regionkey");
        j4 = c.join(j3, w3, n_reg, R, "r_regionkey", asia);
        base_l = static_cast<int>(os.size());
    } else {
        // MariaDB plan: customer drives; orders/lineitem are BNL
        // inners re-scanned per block. Layout [C, O, L, N, R].
        c.out.planner_note =
            "conventional plan (customer-outer BNL)";
        const auto &cs = C.schema();
        auto cust = c.scan(C, nullptr);
        auto j1 = c.join(cust.rows, C.rowWidth(),
                         cs.indexOf("c_custkey"), O, "o_custkey",
                         date_pred);
        Bytes w1 = C.rowWidth() + O.rowWidth();
        int o_orderkey = static_cast<int>(cs.size()) +
                         c.ix("orders", "o_orderkey");
        auto j2 = c.join(j1, w1, o_orderkey, L, "l_orderkey");
        Bytes w2 = w1 + L.rowWidth();
        int c_nat = cs.indexOf("c_nationkey");
        auto j3 = c.join(j2, w2, c_nat, N, "n_nationkey");
        Bytes w3 = w2 + N.rowWidth();
        base_n = static_cast<int>(cs.size() + os.size() +
                                  L.schema().size());
        int n_reg = base_n + c.ix("nation", "n_regionkey");
        j4 = c.join(j3, w3, n_reg, R, "r_regionkey", asia);
        base_l = static_cast<int>(cs.size() + os.size());
    }

    c.addRevenue(j4, base_l);
    int n_name = base_n + c.ix("nation", "n_name");
    auto grouped = db::groupBy(c.db, j4, {n_name},
                               {{AggSpec::Op::Sum, lastCol(j4)}},
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
        L, db::exprAnd(
               {db::between(ls, "l_shipdate",
                            std::string("1994-01-01"),
                            std::string("1994-12-31")),
                db::between(ls, "l_discount", 0.05, 0.07),
                db::cmp(ls, "l_quantity", CmpOp::Lt, 24.0)}));
    const int price = ls.indexOf("l_extendedprice");
    const int disc = ls.indexOf("l_discount");
    double revenue = 0;
    for (std::size_t i = 0; i < s.rows.size(); ++i)
        revenue += s.rows[i].num(price) * s.rows[i].num(disc);
    c.db.host().consumeCpu(db::kRowCpu * s.rows.size());
    return scalar(revenue);
}

// Q7: volume shipping. The filter lives on tiny nation tables; the
// planner gives up NDP ("target table size is too small").
RowSet
q7(Ctx &c)
{
    auto &N = c.t("nation");
    const auto &ns = N.schema();
    auto nations = c.primary(
        N, db::inSet(ns, "n_name",
                     {std::string("FRANCE"), std::string("GERMANY")}));
    auto &S = c.t("supplier");
    auto j1 = c.join(nations.rows, N.rowWidth(),
                     ns.indexOf("n_nationkey"), S, "s_nationkey");
    Bytes w1 = N.rowWidth() + S.rowWidth();
    int s_suppkey = static_cast<int>(ns.size()) +
                    c.ix("supplier", "s_suppkey");
    auto &L = c.t("lineitem");
    auto j2 = c.join(j1, w1, s_suppkey, L, "l_suppkey");
    // The date window applies after the join (not the NDP candidate).
    int base_l = static_cast<int>(ns.size() + S.schema().size());
    const int ship = base_l + c.ix("lineitem", "l_shipdate");
    RowSet filtered(j2.schema());
    for (std::size_t i = 0; i < j2.size(); ++i) {
        std::string_view d = j2[i].str(ship);
        if (d >= "1995-01-01" && d <= "1996-12-31")
            filtered.append(j2.slot(i));
    }
    c.db.host().consumeCpu(db::kRowCpu * j2.size());
    c.addRevenue(filtered, base_l);
    int n_name = ns.indexOf("n_name");
    auto grouped = db::groupBy(c.db, filtered, {n_name},
                               {{AggSpec::Op::Sum, lastCol(filtered)}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q8: national market share. Two-year o_orderdate window: year keys.
RowSet
q8(Ctx &c)
{
    auto &O = c.t("orders");
    const auto &os = O.schema();
    auto orders = c.primary(
        O, db::between(os, "o_orderdate", std::string("1995-01-01"),
                       std::string("1996-12-31")));
    auto &L = c.t("lineitem");
    auto j1 = c.join(orders.rows, O.rowWidth(),
                     os.indexOf("o_orderkey"), L, "l_orderkey");
    Bytes w1 = O.rowWidth() + L.rowWidth();
    int l_partkey = static_cast<int>(os.size()) +
                    c.ix("lineitem", "l_partkey");
    auto &P = c.t("part");
    auto j2 = c.join(j1, w1, l_partkey, P, "p_partkey",
                     db::cmp(P.schema(), "p_type", CmpOp::Eq,
                             std::string("ECONOMY ANODIZED STEEL")));
    c.addRevenue(j2, static_cast<int>(os.size()));
    // Group volume by order year.
    int o_date = os.indexOf("o_orderdate");
    j2.addColumn(db::col("year", db::Type::String, 4), [=](RowRef r) {
        return r.str(o_date).substr(0, 4);
    });
    int year = lastCol(j2);
    int vol = year - 1;
    auto grouped = db::groupBy(c.db, j2, {year},
                               {{AggSpec::Op::Sum, vol}},
                               c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q9: product type profit. '%green%' p_name filter samples out.
RowSet
q9(Ctx &c)
{
    auto &P = c.t("part");
    const auto &ps = P.schema();
    auto parts =
        c.primary(P, db::like(ps, "p_name", "%green%"));
    auto &L = c.t("lineitem");
    auto j1 = c.join(parts.rows, P.rowWidth(),
                     ps.indexOf("p_partkey"), L, "l_partkey");
    Bytes w1 = P.rowWidth() + L.rowWidth();
    int l_suppkey = static_cast<int>(ps.size()) +
                    c.ix("lineitem", "l_suppkey");
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, l_suppkey, S, "s_suppkey");
    Bytes w2 = w1 + S.rowWidth();
    int s_nat = static_cast<int>(ps.size() + L.schema().size()) +
                c.ix("supplier", "s_nationkey");
    auto &N = c.t("nation");
    auto j3 = c.join(j2, w2, s_nat, N, "n_nationkey");
    int base_l = static_cast<int>(ps.size());
    const auto &js = j3.schema();
    const db::NumColumn price(
        js, base_l + c.ix("lineitem", "l_extendedprice"));
    const db::NumColumn disc(js, base_l + c.ix("lineitem", "l_discount"));
    const db::NumColumn qty(js, base_l + c.ix("lineitem", "l_quantity"));
    addComputed(c.db, j3, db::col("profit", db::Type::Double),
                [=](RowRef r) {
                    return price(r) * (1.0 - disc(r)) - 0.5 * qty(r);
                });
    int n_name = static_cast<int>(ps.size() + L.schema().size() +
                                  S.schema().size()) +
                 c.ix("nation", "n_name");
    auto grouped = db::groupBy(c.db, j3, {n_name},
                               {{AggSpec::Op::Sum, lastCol(j3)}},
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
    const auto &os = O.schema();
    auto date_pred = db::between(os, "o_orderdate",
                                 std::string("1993-10-01"),
                                 std::string("1993-12-31"));
    auto returned = db::cmp(L.schema(), "l_returnflag", CmpOp::Eq,
                            std::string("R"));

    RowSet j2;
    int base_l, c_name;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered orders first. Layout [O, L, C].
        auto orders = c.primary(O, date_pred);
        auto j1 = c.join(orders.rows, O.rowWidth(),
                         os.indexOf("o_orderkey"), L, "l_orderkey",
                         returned);
        Bytes w1 = O.rowWidth() + L.rowWidth();
        j2 = c.join(j1, w1, os.indexOf("o_custkey"), C, "c_custkey");
        base_l = static_cast<int>(os.size());
        c_name = static_cast<int>(os.size() + L.schema().size()) +
                 c.ix("customer", "c_name");
    } else {
        // MariaDB plan: customer-outer BNL. Layout [C, O, L].
        c.out.planner_note =
            "conventional plan (customer-outer BNL)";
        const auto &cs = C.schema();
        auto cust = c.scan(C, nullptr);
        auto j1 = c.join(cust.rows, C.rowWidth(),
                         cs.indexOf("c_custkey"), O, "o_custkey",
                         date_pred);
        Bytes w1 = C.rowWidth() + O.rowWidth();
        int o_orderkey = static_cast<int>(cs.size()) +
                         c.ix("orders", "o_orderkey");
        j2 = c.join(j1, w1, o_orderkey, L, "l_orderkey", returned);
        base_l = static_cast<int>(cs.size() + os.size());
        c_name = cs.indexOf("c_name");
    }

    c.addRevenue(j2, base_l);
    auto grouped = db::groupBy(c.db, j2, {c_name},
                               {{AggSpec::Op::Sum, lastCol(j2)}},
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
    const auto &ns = N.schema();
    auto nations = c.primary(N, db::cmp(ns, "n_name", CmpOp::Eq,
                                        std::string("GERMANY")));
    auto &S = c.t("supplier");
    auto j1 = c.join(nations.rows, N.rowWidth(),
                     ns.indexOf("n_nationkey"), S, "s_nationkey");
    Bytes w1 = N.rowWidth() + S.rowWidth();
    int s_suppkey = static_cast<int>(ns.size()) +
                    c.ix("supplier", "s_suppkey");
    auto &PS = c.t("partsupp");
    auto j2 = c.join(j1, w1, s_suppkey, PS, "ps_suppkey");
    int base_ps = static_cast<int>(ns.size() + S.schema().size());
    const db::NumColumn cost(
        j2.schema(), base_ps + c.ix("partsupp", "ps_supplycost"));
    const db::NumColumn avail(
        j2.schema(), base_ps + c.ix("partsupp", "ps_availqty"));
    addComputed(c.db, j2, db::col("value", db::Type::Double),
                [=](RowRef r) { return cost(r) * avail(r); });
    int ps_partkey = base_ps + c.ix("partsupp", "ps_partkey");
    auto grouped = db::groupBy(c.db, j2, {ps_partkey},
                               {{AggSpec::Op::Sum, lastCol(j2)}},
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
    const auto &os = O.schema();
    auto pred = db::exprAnd(
        {db::between(ls, "l_receiptdate", std::string("1994-01-01"),
                     std::string("1994-12-31")),
         db::inSet(ls, "l_shipmode",
                   {std::string("MAIL"), std::string("SHIP")}),
         db::cmpCols(ls, "l_commitdate", CmpOp::Lt, "l_receiptdate"),
         db::cmpCols(ls, "l_shipdate", CmpOp::Lt, "l_commitdate")});

    RowSet j;
    int l_base, o_base;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filtered lineitem first. Layout [L, O].
        auto lines = c.primary(L, pred);
        j = c.join(lines.rows, L.rowWidth(),
                   ls.indexOf("l_orderkey"), O, "o_orderkey");
        l_base = 0;
        o_base = static_cast<int>(ls.size());
    } else {
        // MariaDB plan: orders-outer BNL. Layout [O, L].
        c.out.planner_note = "conventional plan (orders-outer BNL)";
        auto orders = c.scan(O, nullptr);
        j = c.join(orders.rows, O.rowWidth(),
                   os.indexOf("o_orderkey"), L, "l_orderkey", pred);
        o_base = 0;
        l_base = static_cast<int>(os.size());
    }

    int o_prio = o_base + c.ix("orders", "o_orderpriority");
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
    int hi = lastCol(j) - 1;
    auto grouped = db::groupBy(
        c.db, j, {l_base + ls.indexOf("l_shipmode")},
        {{AggSpec::Op::Sum, hi}, {AggSpec::Op::Sum, hi + 1}},
        c.out.stats);
    db::sortRows(grouped, {{0, false}});
    return grouped;
}

// Q13: customer distribution. NOT LIKE cannot run on the matcher IP.
RowSet
q13(Ctx &c)
{
    auto &O = c.t("orders");
    const auto &os = O.schema();
    auto orders = c.primary(
        O, db::notLike(os, "o_comment", "%special%requests%"));
    auto grouped = db::groupBy(c.db, orders.rows,
                               {os.indexOf("o_custkey")},
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
    const auto &ls = L.schema();
    auto pred = db::between(ls, "l_shipdate",
                            std::string("1995-09-01"),
                            std::string("1995-09-30"));

    RowSet joined;
    int l_base, p_base;
    if (c.mode == EngineMode::Biscuit) {
        // NDP plan: filter lineitem on the device, then put the
        // (small) filtered row set first in the join order — the
        // paper's query-planning heuristic for offloaded filters.
        auto lines = c.primary(L, pred);
        joined = c.join(lines.rows, L.rowWidth(),
                        ls.indexOf("l_partkey"), P, "p_partkey");
        l_base = 0;
        p_base = static_cast<int>(ls.size());
    } else {
        // MariaDB default: smallest table (part) drives the BNL; the
        // big lineitem table is re-scanned once per buffer block,
        // evaluating the date filter on the host each pass.
        c.out.planner_note = "conventional plan (part-outer BNL)";
        auto parts = c.scan(P, nullptr);
        joined = c.join(parts.rows, P.rowWidth(),
                        P.schema().indexOf("p_partkey"), L,
                        "l_partkey", pred);
        p_base = 0;
        l_base = static_cast<int>(P.schema().size());
    }
    const int price = l_base + c.ix("lineitem", "l_extendedprice");
    const int disc = l_base + c.ix("lineitem", "l_discount");
    const int type = p_base + c.ix("part", "p_type");
    double promo = 0, total = 0;
    for (std::size_t i = 0; i < joined.size(); ++i) {
        const RowRef r = joined[i];
        double rev = r.num(price) * (1.0 - r.num(disc));
        total += rev;
        if (r.str(type).starts_with("PROMO"))
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
    const auto &ls = L.schema();
    auto lines = c.primary(
        L,
        db::between(ls, "l_shipdate", std::string("1996-01-01"),
                    std::string("1996-03-31")),
        {Ctx::revenueColumn()});
    c.fillRevenue(lines.rows);
    int rev = static_cast<int>(ls.size());
    auto grouped = db::groupBy(c.db, lines.rows,
                               {ls.indexOf("l_suppkey")},
                               {{AggSpec::Op::Sum, rev}},
                               c.out.stats);
    db::sortRows(grouped, {{1, true}});
    grouped.truncate(1);
    // Attach the supplier record.
    auto &S = c.t("supplier");
    return c.join(grouped, 16, 0, S, "s_suppkey");
}

// Q16: part/supplier relationship (simplified: the spec's negated
// brand/type predicates are replaced by a brand equality so the
// planner reaches its sampling stage, which rejects the offload — a
// fifth of pages would not match, but nearly all do).
RowSet
q16(Ctx &c)
{
    auto &P = c.t("part");
    const auto &ps = P.schema();
    auto parts = c.primary(P, db::cmp(ps, "p_brand", CmpOp::Eq,
                                      std::string("Brand#35")));
    auto &PS = c.t("partsupp");
    auto j = c.join(parts.rows, P.rowWidth(),
                    ps.indexOf("p_partkey"), PS, "ps_partkey");
    auto grouped = db::groupBy(
        c.db, j,
        {ps.indexOf("p_brand"), ps.indexOf("p_type"),
         ps.indexOf("p_size")},
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
        P, db::exprAnd({db::cmp(ps, "p_brand", CmpOp::Eq,
                                std::string("Brand#23")),
                        db::cmp(ps, "p_container", CmpOp::Eq,
                                std::string("MED BOX"))}));
    auto &L = c.t("lineitem");
    auto j = c.join(parts.rows, P.rowWidth(),
                    ps.indexOf("p_partkey"), L, "l_partkey");
    // avg quantity per part, then the below-20% slice.
    int l_qty = static_cast<int>(ps.size()) +
                c.ix("lineitem", "l_quantity");
    int p_key = ps.indexOf("p_partkey");
    std::map<std::int64_t, std::pair<double, int>> avg;
    for (std::size_t i = 0; i < j.size(); ++i) {
        auto &acc = avg[j[i].i64(p_key)];
        acc.first += j[i].num(l_qty);
        acc.second += 1;
    }
    double total = 0;
    int l_price = static_cast<int>(ps.size()) +
                  c.ix("lineitem", "l_extendedprice");
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
    const auto &ls = L.schema();
    auto lines = c.primary(L, nullptr);
    auto per_order = db::groupBy(
        c.db, lines.rows, {ls.indexOf("l_orderkey")},
        {{AggSpec::Op::Sum, ls.indexOf("l_quantity")}}, c.out.stats);
    RowSet big(per_order.schema());
    for (std::size_t i = 0; i < per_order.size(); ++i) {
        if (per_order[i].num(1) > 270.0)
            big.append(per_order.slot(i));
    }
    c.db.host().consumeCpu(db::kRowCpu * per_order.size());
    auto &O = c.t("orders");
    auto j = c.join(big, 16, 0, O, "o_orderkey");
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
        L, db::exprOr(
               {db::exprAnd({db::between(ls, "l_quantity", 1.0, 11.0),
                             db::cmp(ls, "l_shipmode", CmpOp::Eq,
                                     std::string("AIR"))}),
                db::exprAnd({db::between(ls, "l_quantity", 10.0,
                                         20.0),
                             db::cmp(ls, "l_shipmode", CmpOp::Eq,
                                     std::string("AIR"))}),
                db::exprAnd(
                    {db::between(ls, "l_quantity", 20.0, 30.0),
                     db::cmp(ls, "l_shipinstruct", CmpOp::Eq,
                             std::string("DELIVER IN PERSON"))})}));
    auto &P = c.t("part");
    auto j = c.join(lines.rows, L.rowWidth(),
                    ls.indexOf("l_partkey"), P, "p_partkey",
                    db::cmp(P.schema(), "p_brand", CmpOp::Eq,
                            std::string("Brand#12")));
    const int price = c.ix("lineitem", "l_extendedprice");
    const int disc = c.ix("lineitem", "l_discount");
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
    const auto &ps = P.schema();
    auto parts = c.primary(P, db::like(ps, "p_name", "forest%"));
    auto &PS = c.t("partsupp");
    auto j1 = c.join(parts.rows, P.rowWidth(),
                     ps.indexOf("p_partkey"), PS, "ps_partkey");
    Bytes w1 = P.rowWidth() + PS.rowWidth();
    int ps_suppkey = static_cast<int>(ps.size()) +
                     c.ix("partsupp", "ps_suppkey");
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, ps_suppkey, S, "s_suppkey");
    int s_name = static_cast<int>(ps.size() + PS.schema().size()) +
                 c.ix("supplier", "s_name");
    auto grouped = db::groupBy(c.db, j2, {s_name},
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
    const auto &os = O.schema();
    auto orders = c.primary(O, db::cmp(os, "o_orderstatus", CmpOp::Eq,
                                       std::string("F")));
    auto &L = c.t("lineitem");
    auto j1 = c.join(orders.rows, O.rowWidth(),
                     os.indexOf("o_orderkey"), L, "l_orderkey",
                     db::cmpCols(L.schema(), "l_receiptdate",
                                 CmpOp::Gt, "l_commitdate"));
    Bytes w1 = O.rowWidth() + L.rowWidth();
    int l_suppkey = static_cast<int>(os.size()) +
                    c.ix("lineitem", "l_suppkey");
    auto &S = c.t("supplier");
    auto j2 = c.join(j1, w1, l_suppkey, S, "s_suppkey");
    int s_name = static_cast<int>(os.size() + L.schema().size()) +
                 c.ix("supplier", "s_name");
    auto grouped = db::groupBy(c.db, j2, {s_name},
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
    const auto &cs = C.schema();
    auto cust = c.primary(
        C, db::inSet(cs, "c_phone",
                     {std::string("13"), std::string("31"),
                      std::string("23")}));
    // Custom predicate: phone prefix in the code set and positive
    // balance (the IN above intentionally fails to match whole
    // fields; re-filter by prefix here).
    int c_phone = cs.indexOf("c_phone");
    int c_bal = cs.indexOf("c_acctbal");
    auto all = c.scan(C, nullptr);
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
    (void)cust;
    eligible.addColumn(db::col("code", db::Type::String, 2),
                       [=](RowRef r) { return r.str(c_phone).substr(0, 2); });
    auto grouped = db::groupBy(c.db, eligible, {lastCol(eligible)},
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
