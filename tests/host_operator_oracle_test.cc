/**
 * @file
 * Oracles for the host operators' row-level semantics: groupBy
 * against a reference copy of the text-keyed algorithm (group identity
 * is the valueToString() of the keys, groups come out in key-text
 * order), and slot-level predicate evaluation against evalPred() over
 * decoded rows, for every Expr::Kind, including the predicate wire
 * format's round trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/packet.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

std::vector<std::uint8_t>
bytesOf(const RowSet &rows)
{
    if (rows.empty())
        return {};
    return {rows.slot(0), rows.slot(0) + rows.size() * rows.rowWidth()};
}

/** @p n letters from a three-letter alphabet (many collisions). */
std::string
shortText(Rng &rng, std::size_t n)
{
    std::string s(n, 'a');
    for (char &ch : s)
        ch = static_cast<char>('a' + rng.below(3));
    return s;
}

/**
 * Scribble over the bytes after the first NUL of every text cell of
 * @p rows: decoding cuts text at its NUL, so no operator may see them.
 */
void
scribbleAfterNul(RowSet &rows, Rng &rng)
{
    const Schema &s = rows.schema();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        auto *slot = const_cast<std::uint8_t *>(rows.slot(r));
        for (std::size_t c = 0; c < s.size(); ++c) {
            const Column &col = s.at(c);
            if (col.type != Type::String && col.type != Type::Date)
                continue;
            std::uint8_t *cell = slot + s.offsetOf(c);
            Bytes n = 0;
            while (n < col.width && cell[n] != 0)
                ++n;
            for (Bytes i = n + 1; i < col.width; ++i)
                cell[i] = static_cast<std::uint8_t>('A' + rng.below(26));
        }
    }
}

// ----- groupBy against the text-keyed reference -----

/**
 * The text-keyed group-by: identity is the valueToString() of each
 * key joined by '\x01', groups come out ordered by that text, key
 * cells are copied from each group's first row and aggregates
 * accumulate in row order.
 */
RowSet
referenceGroupBy(const RowSet &rows, const std::vector<int> &key_cols,
                 const std::vector<AggSpec> &aggs)
{
    struct Acc
    {
        std::size_t first = 0;
        std::uint64_t count = 0;
        std::vector<double> sum, min, max;
    };
    const Schema &in = rows.schema();
    const std::vector<Row> decoded = rows.toRows();
    std::map<std::string, Acc> groups;
    for (std::size_t r = 0; r < decoded.size(); ++r) {
        std::string key;
        for (int c : key_cols)
            key += valueToString(decoded[r].at(c)) + '\x01';
        auto [it, fresh] = groups.try_emplace(key);
        Acc &acc = it->second;
        if (fresh) {
            acc.first = r;
            acc.sum.assign(aggs.size(), 0.0);
            acc.min.assign(aggs.size(), 0.0);
            acc.max.assign(aggs.size(), 0.0);
        }
        for (std::size_t a = 0; a < aggs.size(); ++a) {
            if (aggs[a].column < 0)
                continue;
            const Value &v = decoded[r].at(aggs[a].column);
            const double x =
                std::holds_alternative<std::int64_t>(v)
                    ? static_cast<double>(std::get<std::int64_t>(v))
                    : std::get<double>(v);
            acc.sum[a] += x;
            if (fresh || x < acc.min[a])
                acc.min[a] = x;
            if (fresh || x > acc.max[a])
                acc.max[a] = x;
        }
        ++acc.count;
    }

    std::vector<Column> cols;
    for (int c : key_cols)
        cols.push_back(in.at(static_cast<std::size_t>(c)));
    for (const AggSpec &agg : aggs) {
        cols.push_back(agg.op == AggSpec::Op::Count
                           ? col("count", Type::Int64)
                           : col("agg", Type::Double));
    }
    RowSet out{Schema(std::move(cols))};
    const Schema &os = out.schema();
    for (const auto &[key, acc] : groups) {
        std::uint8_t *dst = out.appendSlots(1);
        const std::uint8_t *src = rows.slot(acc.first);
        for (std::size_t k = 0; k < key_cols.size(); ++k) {
            const auto c = static_cast<std::size_t>(key_cols[k]);
            std::memcpy(dst + os.offsetOf(k), src + in.offsetOf(c),
                        in.at(c).width);
        }
        for (std::size_t a = 0; a < aggs.size(); ++a) {
            std::uint8_t *cell = dst + os.offsetOf(key_cols.size() + a);
            double v = 0.0;
            switch (aggs[a].op) {
              case AggSpec::Op::Sum:
                v = acc.sum[a];
                break;
              case AggSpec::Op::Avg:
                v = acc.sum[a] / static_cast<double>(acc.count);
                break;
              case AggSpec::Op::Count: {
                auto n = static_cast<std::int64_t>(acc.count);
                std::memcpy(cell, &n, 8);
                continue;
              }
              case AggSpec::Op::Min:
                v = acc.min[a];
                break;
              case AggSpec::Op::Max:
                v = acc.max[a];
                break;
            }
            std::memcpy(cell, &v, 8);
        }
    }
    return out;
}

/** Key columns 0-3 (every key type), value columns 4-5. */
Schema
groupSchema()
{
    return Schema({col("ik", Type::Int64), col("dk", Type::Double),
                   col("sk", Type::String, 6), col("day", Type::Date),
                   col("iv", Type::Int64), col("dv", Type::Double)});
}

std::int64_t
groupInt(Rng &rng)
{
    // Text order differs from numeric order: 9 vs 10, -1 vs -10.
    static const std::int64_t kPool[] = {
        0, 1, 2, 9, 10, 11, 19, 100, 99, -1, -9, -10, -100,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()};
    return kPool[rng.below(std::size(kPool))];
}

double
groupDouble(Rng &rng)
{
    // Several share a "%.2f" text: 1.001/1.004 ("1.00"), 2.0/1.996
    // ("2.00"), 0.0/0.001 ("0.00"); -0.0 prints "-0.00".
    static const double kPool[] = {1.001, 1.004, 1.006, 2.0, 1.996,
                                   10.0, 0.0, 0.001, -0.0, -0.004,
                                   -1.5, 123456.785, 0.125, 0.135};
    return kPool[rng.below(std::size(kPool))];
}

RowSet
randomGroupRows(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    static const char *kDays[] = {"1995-01-01", "1995-01-02",
                                  "1996-12-31", ""};
    RowSet rows(groupSchema());
    for (std::size_t i = 0; i < n; ++i) {
        // Text keys from empty to the full column width.
        rows.appendRow({groupInt(rng), groupDouble(rng),
                        shortText(rng, rng.below(7)),
                        std::string(kDays[rng.below(4)]),
                        static_cast<std::int64_t>(rng.below(1000)) - 500,
                        static_cast<double>(rng.below(100000)) / 64.0});
    }
    scribbleAfterNul(rows, rng);
    return rows;
}

std::vector<AggSpec>
everyAgg()
{
    return {{AggSpec::Op::Sum, 4},   {AggSpec::Op::Sum, 5},
            {AggSpec::Op::Avg, 5},   {AggSpec::Op::Count, -1},
            {AggSpec::Op::Min, 4},   {AggSpec::Op::Max, 5},
            {AggSpec::Op::Min, 5},   {AggSpec::Op::Avg, 4}};
}

class GroupByOracle : public ::testing::Test
{
  protected:
    GroupByOracle()
        : env_(ssd::testConfig(), 1), host_(env_.array),
          db_(env_, host_)
    {}

    RowSet
    grouped(const RowSet &rows, const std::vector<int> &keys,
            const std::vector<AggSpec> &aggs)
    {
        DbStats stats;
        RowSet out;
        env_.run([&] { out = groupBy(db_, rows, keys, aggs, stats); });
        return out;
    }

    void
    expectSame(const RowSet &rows, const std::vector<int> &keys,
               const std::vector<AggSpec> &aggs)
    {
        const RowSet want = referenceGroupBy(rows, keys, aggs);
        const RowSet got = grouped(rows, keys, aggs);
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(got.schema().size(), want.schema().size());
        for (std::size_t c = 0; c < want.schema().size(); ++c) {
            EXPECT_EQ(got.schema().at(c).type, want.schema().at(c).type);
            EXPECT_EQ(got.schema().at(c).width,
                      want.schema().at(c).width);
        }
        EXPECT_TRUE(bytesOf(got) == bytesOf(want));
    }

    sisc::Env env_;
    host::HostSystem host_;
    MiniDb db_;
};

TEST_F(GroupByOracle, EveryKeyTypeAndArityMatchesTextKeyedReference)
{
    // One to three key columns over every key type, in several orders.
    const std::vector<std::vector<int>> key_sets = {
        {0}, {1}, {2}, {3}, {0, 2}, {2, 0}, {1, 3}, {3, 1},
        {0, 1}, {2, 3}, {0, 1, 2}, {3, 2, 1}, {1, 0, 3}, {2, 3, 0}};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const RowSet rows = randomGroupRows(seed, 50 + 700 * seed);
        for (const auto &keys : key_sets) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(keys.size()) + " keys from " +
                         std::to_string(keys[0]));
            expectSame(rows, keys, everyAgg());
        }
    }
}

TEST_F(GroupByOracle, EmptyInputAndKeysOnly)
{
    expectSame(RowSet(groupSchema()), {0, 2}, everyAgg());
    expectSame(randomGroupRows(7, 300), {2, 3}, {});
}

TEST_F(GroupByOracle, FullWidthAndEmptyTextKeys)
{
    Rng rng(0x5e);
    RowSet rows(groupSchema());
    for (std::size_t i = 0; i < 2000; ++i) {
        // Only the two extremes: "" and six letters (no NUL at all).
        std::string s = rng.below(2) == 0 ? "" : shortText(rng, 6);
        rows.appendRow({std::int64_t{0}, 0.0, s,
                        std::string(rng.below(2) == 0 ? ""
                                                      : "1998-12-01"),
                        std::int64_t{1}, 1.0});
    }
    scribbleAfterNul(rows, rng);
    expectSame(rows, {2}, everyAgg());
    expectSame(rows, {3, 2}, everyAgg());
}

TEST_F(GroupByOracle, ManyGroupsComeOutInKeyTextOrder)
{
    // The shape of Q18's per-order group-by: one Int64 key with more
    // than 10,000 distinct values, whose text order ("10000" before
    // "9") differs from their numeric order.
    Rng rng(0x18);
    Schema s({col("l_orderkey", Type::Int64), col("qty", Type::Double)});
    RowSet rows(s);
    for (std::int64_t k = 1; k <= 15'000; ++k) {
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
            rows.appendRow({k * 4 - 3, static_cast<double>(
                                           1 + rng.below(50))});
    }
    expectSame(rows, {0},
               {{AggSpec::Op::Sum, 1}, {AggSpec::Op::Count, -1}});
    EXPECT_GT(referenceGroupBy(rows, {0}, {}).size(), 10'000u);
}

TEST_F(GroupByOracle, DoubleKeysPastThirtyOneDigitsStayApart)
{
    // 2^104 and 10 * 2^104 share their first 31 "%.2f" digits: only
    // the rest of their text tells the two groups apart.
    const double a = std::ldexp(1.0, 104), b = 10 * a;
    RowSet rows(Schema({col("k", Type::Double), col("v", Type::Int64)}));
    for (std::int64_t i = 0; i < 6; ++i)
        rows.appendRow({i % 3 == 0 ? a : b, i});
    expectSame(rows, {0},
               {{AggSpec::Op::Count, -1}, {AggSpec::Op::Sum, 1}});
    const RowSet got = grouped(rows, {0}, {{AggSpec::Op::Count, -1}});
    ASSERT_EQ(got.size(), 2u);
    // Key-text order: "...016.00" sorts before "...0160.00".
    EXPECT_EQ(got[0].num(0), a);
    EXPECT_EQ(got[0].i64(1), 2);
    EXPECT_EQ(got[1].num(0), b);
    EXPECT_EQ(got[1].i64(1), 4);
    const std::vector<Row> out = got.toRows();
    EXPECT_EQ(valueToString(out[1][0]),
              "202824096036516704239472512860160.00");
}

// ----- Slot predicates against evalPred over decoded rows -----

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

/**
 * Columns: 0 id Int64, 1 price Double, 2 day Date, 3 name String(6),
 * 4 tag String(9), 5 qty Int64: text cells narrower and wider than 8
 * bytes.
 */
Schema
predSchema()
{
    return Schema({col("id", Type::Int64), col("price", Type::Double),
                   col("day", Type::Date), col("name", Type::String, 6),
                   col("tag", Type::String, 9), col("qty", Type::Int64)});
}

/** The width of text column @p column of predSchema(). */
std::size_t
predWidth(int column)
{
    return column == 2 ? 10 : column == 4 ? 9 : 6;
}

std::int64_t
predInt(Rng &rng)
{
    // Around 2^53, where int64 -> double conversion starts to tie.
    static const std::int64_t kPool[] = {
        0, 1, -1, 7, 42, kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo53 + 2,
        kTwo53 + 3, -kTwo53 - 1, std::int64_t{1} << 60,
        (std::int64_t{1} << 60) + 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()};
    return kPool[rng.below(std::size(kPool))];
}

double
predDouble(Rng &rng)
{
    static const double kPool[] = {0.0, -0.0, 0.5, 7.0, 42.0, 41.999,
                                   static_cast<double>(kTwo53),
                                   static_cast<double>(kTwo53) + 2.0,
                                   -1e300, 1e300};
    return kPool[rng.below(std::size(kPool))];
}

std::string
predDay(Rng &rng)
{
    static const char *kDays[] = {"1994-01-01", "1994-06-15",
                                  "1995-03-15", "1995-03-1",
                                  "1995-03-150", "", "1996"};
    return kDays[rng.below(std::size(kDays))];
}

std::vector<Row>
randomPredRows(Rng &rng, std::size_t n)
{
    std::vector<Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
        std::string day = predDay(rng);
        if (day.size() > 10)
            day.resize(10);
        rows.push_back({predInt(rng), predDouble(rng), day,
                        shortText(rng, rng.below(7)),
                        shortText(rng, rng.below(10)), predInt(rng)});
    }
    return rows;
}

/** A text constant for a text column: ties, prefixes, overlong. */
std::string
textConstant(Rng &rng, int column)
{
    if (column == 2)
        return predDay(rng);
    const std::size_t width = predWidth(column);
    switch (rng.below(4)) {
      case 0:
        return shortText(rng, rng.below(width + 1));
      case 1:
        // Longer than the column: ties with a full-width slot's bytes.
        return shortText(rng, width) + shortText(rng, 1 + rng.below(3));
      case 2:
        return "";
      default:
        // A prefix of a likely slot value.
        return shortText(rng, 1 + rng.below(2));
    }
}

Value
numericConstant(Rng &rng)
{
    if (rng.below(2) == 0)
        return predInt(rng);
    return predDouble(rng);
}

bool
isTextCol(int c)
{
    return c == 2 || c == 3 || c == 4;
}

Value
constantFor(Rng &rng, int column)
{
    return isTextCol(column) ? Value(textConstant(rng, column))
                             : numericConstant(rng);
}

std::string
likePattern(Rng &rng)
{
    static const char *kPool[] = {"%",    "",    "a%",  "%a",  "%ab%",
                                  "a%b",  "%%",  "abc", "%b%a%",
                                  "aaaaaa", "aaaaaaa%", "19%", "%-03-%"};
    return kPool[rng.below(std::size(kPool))];
}

const CmpOp kOps[] = {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt,
                      CmpOp::Le, CmpOp::Gt, CmpOp::Ge};

ExprPtr
randomExpr(Rng &rng, const Schema &s, int depth)
{
    static const char *kNames[] = {"id", "price", "day",
                                   "name", "tag", "qty"};
    const std::uint64_t kinds = depth > 0 ? 9 : 6;
    const int c = static_cast<int>(rng.below(6));
    const char *name = kNames[c];
    switch (rng.below(kinds)) {
      case 0:
        return cmp(s, name, kOps[rng.below(6)], constantFor(rng, c));
      case 1: {
        // Same type class on both sides.
        static const int kText[] = {2, 3, 4};
        static const int kNum[] = {0, 1, 5};
        const int *pool = isTextCol(c) ? kText : kNum;
        return cmpCols(s, name, kOps[rng.below(6)],
                       kNames[pool[rng.below(3)]]);
      }
      case 2:
        return between(s, name, constantFor(rng, c),
                       constantFor(rng, c));
      case 3: {
        std::vector<Value> set;
        for (std::uint64_t n = rng.below(5); n > 0; --n)
            set.push_back(constantFor(rng, c));
        return inSet(s, name, std::move(set));
      }
      case 4:
      case 5: {
        const char *text = kNames[2 + rng.below(3)];
        return rng.below(2) == 0 ? like(s, text, likePattern(rng))
                                 : notLike(s, text, likePattern(rng));
      }
      case 6:
      case 7: {
        std::vector<ExprPtr> kids;
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n)
            kids.push_back(randomExpr(rng, s, depth - 1));
        return rng.below(2) == 0 ? exprAnd(std::move(kids))
                                 : exprOr(std::move(kids));
      }
      default:
        return exprNot(randomExpr(rng, s, depth - 1));
    }
}

/** A RowSet of @p rows with scribbled bytes after each text NUL. */
RowSet
packed(const Schema &s, const std::vector<Row> &rows, Rng &rng)
{
    RowSet out(s);
    for (const Row &r : rows)
        out.appendRow(r);
    scribbleAfterNul(out, rng);
    return out;
}

/** Rows of @p rows where the bound predicate and evalPred differ. */
std::size_t
mismatches(const Expr &e, const RowSet &rows,
           const std::vector<Row> &decoded)
{
    const BoundPred bound(e, rows.schema());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (bound.matches(rows.slot(i)) != evalPred(e, decoded[i]))
            ++bad;
    }
    return bad;
}

TEST(BoundPredOracle, RandomPredicatesMatchEvalPredOnDecodedRows)
{
    const Schema s = predSchema();
    Rng rng(0xb0b);
    const std::vector<Row> rows = randomPredRows(rng, 400);
    const RowSet slots = packed(s, rows, rng);
    const std::vector<Row> decoded = slots.toRows();
    ASSERT_EQ(decoded, rows);
    std::size_t held = 0, evaluated = 0;
    for (int i = 0; i < 1500; ++i) {
        const ExprPtr e = randomExpr(rng, s, 3);
        ASSERT_EQ(mismatches(*e, slots, decoded), 0u) << "predicate " << i;
        for (const Row &r : decoded)
            held += evalPred(*e, r) ? 1 : 0;
        evaluated += decoded.size();
    }
    // Neither trivially true nor trivially false.
    EXPECT_GT(held, evaluated / 10);
    EXPECT_LT(held, evaluated - evaluated / 10);
}

TEST(BoundPredOracle, IntConstantsBeyondTwoToThe53CompareAsDoubles)
{
    // 2^53 + 1 is not a double: the constant and the slot both round,
    // so 2^53 == 2^53 + 1 holds, as compareValues() has it.
    const Schema s = predSchema();
    Rng rng(3);
    std::vector<Row> rows = randomPredRows(rng, 4);
    rows[0][0] = kTwo53;
    rows[1][0] = kTwo53 + 1;
    rows[2][0] = kTwo53 + 2;
    rows[3][0] = kTwo53 - 1;
    const RowSet slots = packed(s, rows, rng);
    for (CmpOp op : kOps) {
        for (std::int64_t k : {kTwo53, kTwo53 + 1, kTwo53 + 2}) {
            const ExprPtr e = cmp(s, "id", op, k);
            EXPECT_EQ(mismatches(*e, slots, rows), 0u);
        }
        const ExprPtr d =
            cmp(s, "price", op, std::int64_t{kTwo53 + 1});
        EXPECT_EQ(mismatches(*d, slots, rows), 0u);
    }
    EXPECT_TRUE(BoundPred(*cmp(s, "id", CmpOp::Eq, kTwo53 + 1), s)
                    .matches(slots.slot(0)));
}

TEST(BoundPredOracle, TextConstantsLongerThanTheColumnAndPrefixTies)
{
    const Schema s = predSchema();
    Rng rng(4);
    std::vector<Row> rows = randomPredRows(rng, 6);
    rows[0][3] = std::string("abcabc");  // full width
    rows[1][3] = std::string("abc");     // a prefix of the above
    rows[2][3] = std::string("");
    rows[3][3] = std::string("abcab");
    rows[4][3] = std::string("abd");
    rows[5][3] = std::string("b");
    // The same shapes in a cell wider than 8 bytes.
    rows[0][4] = std::string("abcabcabc");
    rows[1][4] = std::string("abcabcab");
    rows[2][4] = std::string("");
    rows[3][4] = std::string("abcab");
    rows[4][4] = std::string("abcabcabd");
    rows[5][4] = std::string("b");
    const RowSet slots = packed(s, rows, rng);
    const std::vector<std::string> constants = {
        "abcabc", "abcabca", "abcabcz", "abc", "abca", "ab", "",
        "abcab", "abcabb", "abd", "b", "ba", "abc\x01"};
    for (const std::string &k : constants) {
        for (CmpOp op : kOps) {
            const ExprPtr e = cmp(s, "name", op, k);
            EXPECT_EQ(mismatches(*e, slots, rows), 0u)
                << "'" << k << "' op " << static_cast<int>(op);
        }
        const ExprPtr b = between(s, "name", std::string("ab"), k);
        EXPECT_EQ(mismatches(*b, slots, rows), 0u) << k;
        const ExprPtr in = inSet(s, "name", {k, std::string("b")});
        EXPECT_EQ(mismatches(*in, slots, rows), 0u) << k;
        for (const std::string &w :
             {k, k + k, "abcabcab" + k, "abcabcabc" + k}) {
            for (CmpOp op : kOps) {
                const ExprPtr e = cmp(s, "tag", op, w);
                EXPECT_EQ(mismatches(*e, slots, rows), 0u)
                    << "'" << w << "' op " << static_cast<int>(op);
            }
        }
    }
    // A full-width slot never equals a longer constant.
    EXPECT_FALSE(
        BoundPred(*cmp(s, "name", CmpOp::Eq, std::string("abcabca")), s)
            .matches(slots.slot(0)));
    EXPECT_TRUE(
        BoundPred(*cmp(s, "name", CmpOp::Lt, std::string("abcabca")), s)
            .matches(slots.slot(0)));
}

TEST(BoundPredOracle, LikeNotLikeAndNestedConnectives)
{
    const Schema s = predSchema();
    Rng rng(5);
    const std::vector<Row> rows = randomPredRows(rng, 300);
    const RowSet slots = packed(s, rows, rng);
    for (int i = 0; i < 40; ++i) {
        const std::string p = likePattern(rng);
        const ExprPtr l = like(s, "name", p);
        const ExprPtr nl = notLike(s, "tag", p);
        const ExprPtr nested = exprNot(exprOr(
            {exprAnd({l, nl}),
             exprNot(exprAnd({like(s, "day", "%-03-%"),
                              cmp(s, "qty", CmpOp::Gt,
                                  std::int64_t{7})})),
             exprAnd({})}));
        for (const ExprPtr &e : {l, nl, nested, exprOr({}),
                                 exprAnd({exprNot(l), nl})})
            EXPECT_EQ(mismatches(*e, slots, rows), 0u) << p;
    }
}

TEST(BoundPredOracle, WireRoundTripKeepsMeaningAndPinnedSize)
{
    const Schema s = predSchema();
    Rng rng(6);
    const std::vector<Row> rows = randomPredRows(rng, 200);
    const RowSet slots = packed(s, rows, rng);
    for (int i = 0; i < 300; ++i) {
        const ExprPtr e = randomExpr(rng, s, 3);
        Packet p;
        encodeExpr(p, *e);
        const std::size_t size = p.size();
        const ExprPtr back = decodeExpr(p);
        EXPECT_TRUE(p.exhausted());
        Packet again;
        encodeExpr(again, *back);
        ASSERT_EQ(again.size(), size);
        EXPECT_EQ(std::memcmp(again.data(), p.data(), size), 0);
        EXPECT_EQ(mismatches(*back, slots, rows), 0u) << "predicate " << i;
    }

    // The encoded bytes cross the HIL as the re-check SSDlet's
    // argument: their count is simulated time. Q12's predicate shape.
    const ExprPtr q12 = exprAnd(
        {between(s, "day", std::string("1994-01-01"),
                 std::string("1994-12-31")),
         inSet(s, "name", {std::string("MAIL"), std::string("SHIP")}),
         cmpCols(s, "name", CmpOp::Lt, "tag"),
         cmp(s, "price", CmpOp::Ge, 0.05)});
    Packet p;
    encodeExpr(p, *q12);
    EXPECT_EQ(p.size(), 275u);
}

}  // namespace
}  // namespace bisc::db
