/**
 * @file
 * The statistics builder against a per-row oracle. Random tables with
 * awkward values must give field-identical TableStats (doubles compared
 * bit for bit) to a direct fold over Schema::decodeRow and dateToDays:
 *
 *  - strings with embedded NULs and high bytes, full-width strings;
 *  - non-date, blank and sign-prefixed text in Date columns, all-digit
 *    dates with out-of-range months and days, a Date column wider
 *    than its ten date bytes;
 *  - negative values and -0.0, Int64 values beyond 2^53;
 *  - empty and one-row tables, partial last pages, several chunks,
 *    one and three drives.
 *
 * NaN is out of scope (see db/stats.h).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "db/minidb.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

Schema
oddSchema()
{
    Column wide_date{"d12", Type::Date, 12};
    return Schema({col("k", Type::Int64), col("x", Type::Double),
                   col("s", Type::String, 7), col("d", Type::Date),
                   col("flag", Type::String, 1), wide_date,
                   col("t", Type::String, 19)});
}

std::string
randomBytes(Rng &rng, std::size_t max_len)
{
    std::string s(rng.below(max_len + 1), '\0');
    for (char &c : s) {
        switch (rng.below(4)) {
          case 0: c = '\0'; break;                                 // NUL
          case 1: c = static_cast<char>(0x80 + rng.below(0x80)); break;
          default: c = static_cast<char>('a' + rng.below(3)); break;
        }
    }
    return s;
}

std::string
digits(Rng &rng, int n)
{
    std::string s;
    for (int i = 0; i < n; ++i)
        s.push_back(static_cast<char>('0' + rng.below(10)));
    return s;
}

/** Date-column text: mostly clustered dates, plus every odd shape. */
std::string
randomDate(Rng &rng, std::int64_t i)
{
    switch (rng.below(10)) {
      case 0:  // any all-digit "YYYY-MM-DD", months and days 00..99
        return digits(rng, 4) + "-" + digits(rng, 2) + "-" +
               digits(rng, 2);
      case 1: {  // date-shaped text that std::stoi still parses
        static const char *const kShapes[] = {
            " 995-01-31", "+199-12-01", "-001-03-01", "1995- 1-02",
            "1995-1 -02", "0000-02-00", "0000-03-00", "1996-02-3x"};
        return kShapes[rng.below(8)];
      }
      case 2: {  // not date-shaped at all
        static const std::string kNot[] = {
            "", "abc", "1995-1-01", "1995/01/01", "19950101xx",
            "1995-01-01x", "1995-01-01xy",
            std::string("1995-01\0-01", 10)};
        return kNot[rng.below(8)];
      }
      default:
        return daysToDate(8000 + i / 7 + static_cast<std::int64_t>(
                                             rng.below(40)));
    }
}

std::int64_t
randomInt(Rng &rng, std::int64_t i)
{
    constexpr std::int64_t k2p53 = std::int64_t{1} << 53;
    switch (rng.below(6)) {
      case 0: return k2p53 + static_cast<std::int64_t>(rng.below(5));
      case 1: return -k2p53 - static_cast<std::int64_t>(rng.below(5));
      case 2:
        return rng.below(2) ? std::numeric_limits<std::int64_t>::max()
                            : std::numeric_limits<std::int64_t>::min();
      default: return i - 50 + static_cast<std::int64_t>(rng.below(9));
    }
}

double
randomDouble(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return -0.0;
      case 1: return 0.0;
      case 2: return -1e300 * rng.uniform();
      case 3: return std::numeric_limits<double>::denorm_min();
      default: return rng.uniform() * 200.0 - 100.0;
    }
}

Row
randomRow(Rng &rng, std::int64_t i)
{
    std::string wide = randomDate(rng, i);
    if (rng.below(4) == 0)
        wide += rng.below(2) ? "zz" : std::string(2, '\0');
    std::string full(19, static_cast<char>('a' + rng.below(3)));
    return {randomInt(rng, i),
            randomDouble(rng),
            randomBytes(rng, 9),  // longer than the width: truncated
            randomDate(rng, i),
            randomBytes(rng, 1),
            wide,
            rng.below(2) ? full : randomBytes(rng, 19)};
}

bool
looksLikeDate(const std::string &t)
{
    return t.size() == 10 && t[4] == '-' && t[7] == '-';
}

/** The histogram domain value of one decoded cell, if it has one. */
bool
domainValue(Type type, const Value &v, double *out)
{
    switch (type) {
      case Type::Int64:
        *out = static_cast<double>(std::get<std::int64_t>(v));
        return true;
      case Type::Double:
        *out = std::get<double>(v);
        return true;
      case Type::Date: {
        const std::string &t = std::get<std::string>(v);
        if (!looksLikeDate(t))
            return false;
        *out = static_cast<double>(dateToDays(t));
        return true;
      }
      case Type::String:
        return false;
    }
    return false;
}

/** The statistics, folded row by row from decoded rows. */
TableStats
oracle(const Table &t)
{
    const Schema &s = t.schema();
    const std::size_t ncols = s.size();
    TableStats st;
    st.row_count = t.rowCount();
    st.page_count = t.pageCount();
    st.hists.resize(ncols);

    std::vector<Row> rows;
    t.forEachRow([&](const Row &r) { rows.push_back(r); });

    std::vector<double> lo(ncols), hi(ncols);
    std::vector<bool> seen(ncols, false);
    std::uint64_t row = 0;
    for (std::uint64_t p = 0; p < st.page_count; ++p) {
        if (p % kPagesPerChunk == 0) {
            st.chunks.emplace_back();
            st.chunks.back().first_page = p;
            st.chunks.back().cols.resize(ncols);
        }
        ChunkStats &chunk = st.chunks.back();
        ++chunk.page_count;
        for (std::uint64_t i = 0; i < t.rowsInPage(p); ++i, ++row) {
            const Row &r = rows.at(row);
            const bool first = chunk.row_count++ == 0;
            for (std::size_t c = 0; c < ncols; ++c) {
                ColumnZone &z = chunk.cols[c];
                const Type type = s.at(c).type;
                if (type == Type::String || type == Type::Date) {
                    const std::string &v = std::get<std::string>(r[c]);
                    if (first || v < z.str_min)
                        z.str_min = v;
                    if (first || v > z.str_max)
                        z.str_max = v;
                } else {
                    double v = 0.0;
                    domainValue(type, r[c], &v);
                    if (first || v < z.num_min)
                        z.num_min = v;
                    if (first || v > z.num_max)
                        z.num_max = v;
                }
                double d;
                if (domainValue(type, r[c], &d)) {
                    if (!seen[c] || d < lo[c])
                        lo[c] = d;
                    if (!seen[c] || d > hi[c])
                        hi[c] = d;
                    seen[c] = true;
                }
            }
        }
    }
    for (std::size_t c = 0; c < ncols; ++c) {
        if (!seen[c])
            continue;
        EqualWidthHistogram &h = st.hists[c];
        h.lo = lo[c];
        h.hi = hi[c];
        h.buckets.assign(kHistogramBuckets, 0);
        for (const Row &r : rows) {
            double v;
            if (!domainValue(s.at(c).type, r[c], &v))
                continue;
            std::size_t b = 0;
            if (h.hi > h.lo) {
                const double width =
                    (h.hi - h.lo) / static_cast<double>(h.buckets.size());
                b = std::min(h.buckets.size() - 1,
                             static_cast<std::size_t>((v - h.lo) / width));
            }
            ++h.buckets[b];
            ++h.total;
        }
    }
    return st;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameStats(const TableStats &want, const TableStats &got)
{
    EXPECT_EQ(want.pages_per_chunk, got.pages_per_chunk);
    EXPECT_EQ(want.row_count, got.row_count);
    EXPECT_EQ(want.page_count, got.page_count);
    ASSERT_EQ(want.chunks.size(), got.chunks.size());
    for (std::size_t k = 0; k < want.chunks.size(); ++k) {
        const ChunkStats &a = want.chunks[k], &b = got.chunks[k];
        EXPECT_EQ(a.first_page, b.first_page) << "chunk " << k;
        EXPECT_EQ(a.page_count, b.page_count) << "chunk " << k;
        EXPECT_EQ(a.row_count, b.row_count) << "chunk " << k;
        ASSERT_EQ(a.cols.size(), b.cols.size());
        for (std::size_t c = 0; c < a.cols.size(); ++c) {
            const ColumnZone &x = a.cols[c], &y = b.cols[c];
            EXPECT_EQ(bits(x.num_min), bits(y.num_min))
                << "chunk " << k << " col " << c;
            EXPECT_EQ(bits(x.num_max), bits(y.num_max))
                << "chunk " << k << " col " << c;
            EXPECT_EQ(x.str_min, y.str_min) << "chunk " << k << " col " << c;
            EXPECT_EQ(x.str_max, y.str_max) << "chunk " << k << " col " << c;
            EXPECT_EQ(x.null_count, y.null_count);
        }
    }
    ASSERT_EQ(want.hists.size(), got.hists.size());
    for (std::size_t c = 0; c < want.hists.size(); ++c) {
        const EqualWidthHistogram &x = want.hists[c], &y = got.hists[c];
        EXPECT_EQ(bits(x.lo), bits(y.lo)) << "col " << c;
        EXPECT_EQ(bits(x.hi), bits(y.hi)) << "col " << c;
        EXPECT_EQ(x.buckets, y.buckets) << "col " << c;
        EXPECT_EQ(x.total, y.total) << "col " << c;
    }
}

TEST(StatsOracle, BuilderMatchesPerRowFoldOnRandomTables)
{
    // 0 and 1 rows; one partial page; several chunks ending mid-page.
    const std::int64_t kSizes[] = {0, 1, 23, 5000};
    for (std::uint32_t drives : {1u, 3u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            for (std::int64_t rows : kSizes) {
                SCOPED_TRACE("drives " + std::to_string(drives) +
                             " seed " + std::to_string(seed) + " rows " +
                             std::to_string(rows));
                sisc::Env env(ssd::testConfig(), drives);
                host::HostSystem host(env.array);
                MiniDb db(env, host);
                Table &t = db.createShardedTable("odd", oddSchema());
                Rng rng(seed);
                {
                    Table::Loader load(t);
                    for (std::int64_t i = 0; i < rows; ++i)
                        t.schema().encodeRow(randomRow(rng, i), load.slot());
                }
                if (rows == 5000) {
                    ASSERT_GT(t.pageCount(), kPagesPerChunk);
                    ASSERT_NE(t.rowCount() % t.rowsPerPage(), 0u);
                }
                expectSameStats(oracle(t), *buildTableStats(t));
            }
        }
    }
}

TEST(StatsOracle, AllDigitDatesMatchDateToDays)
{
    // The builder's histogram domain must equal dateToDays over every
    // year, month and day digit pair, including months and days past
    // the calendar.
    sisc::Env env(ssd::testConfig(), 1);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    Table &t = db.createTable("dates", Schema({col("d", Type::Date)}));
    for (int y : {0, 1, 399, 400, 1970, 2000, 9999}) {
        for (int m : {0, 1, 2, 3, 12, 13, 99}) {
            for (int d : {0, 1, 28, 31, 99}) {
                const std::string date = makeDate(y, m, d);
                t.loadRows({{date}});
                auto st = buildTableStats(t);
                ASSERT_EQ(st->hists[0].total, 1u) << date;
                EXPECT_EQ(st->hists[0].lo,
                          static_cast<double>(dateToDays(date)))
                    << date;
            }
        }
    }

    // Every month and day digit pair of two years a century apart,
    // shuffled into one table: 20,000 distinct dates, more than the
    // builder's date memo holds, so its entries collide and are
    // replaced, and dates that differ only in the century meet.
    std::vector<Row> rows;
    for (int y : {1900, 2000}) {
        for (int m = 0; m < 100; ++m) {
            for (int d = 0; d < 100; ++d)
                rows.push_back({makeDate(y, m, d)});
        }
    }
    Rng rng(7);
    for (std::size_t i = rows.size(); i > 1; --i)
        std::swap(rows[i - 1], rows[rng.below(i)]);
    Table &all =
        db.createTable("all_dates", Schema({col("d", Type::Date)}));
    all.loadRows(rows);
    expectSameStats(oracle(all), *buildTableStats(all));
}

}  // namespace
}  // namespace bisc::db
