/**
 * @file
 * Pinned TPC-H answers: all 22 queries in both engine modes at
 * SF 0.01, on 1 and on 4 drives, each reduced to a digest of its full
 * result. Doubles enter the digest bit-exact (the hex of their IEEE754
 * bits) and strings raw, so any change to row content, row order,
 * column types or floating-point accumulation order fails here; the
 * simulated-time goldens would not see an answer that moved while the
 * ticks stayed put.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "db/minidb.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace bisc::tpch {
namespace {

/** Canonical text form of a result: one type-tagged token per value. */
std::string
serialize(const std::vector<db::Row> &rows)
{
    std::string s;
    char buf[32];
    for (const db::Row &row : rows) {
        s += 'R';
        for (const db::Value &v : row) {
            if (const auto *i = std::get_if<std::int64_t>(&v)) {
                s += 'i';
                s += std::to_string(*i);
            } else if (const auto *d = std::get_if<double>(&v)) {
                std::uint64_t bits;
                std::memcpy(&bits, d, sizeof(bits));
                std::snprintf(buf, sizeof(buf), "d%016llx",
                              static_cast<unsigned long long>(bits));
                s += buf;
            } else {
                const auto &str = std::get<std::string>(v);
                s += 's';
                s += std::to_string(str.size());
                s += ':';
                s += str;
            }
            s += ';';
        }
    }
    return s;
}

/** FNV-1a 64 of serialize(@p rows), as 16 hex digits plus row count. */
std::string
digest(const std::vector<db::Row> &rows)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : serialize(rows)) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%016llx/%zu",
                  static_cast<unsigned long long>(h), rows.size());
    return buf;
}

/** (query, mode) -> digest; mode 0 = Conv, 1 = Biscuit. */
using Pinned = std::map<std::pair<int, int>, std::string>;

const Pinned &
pinned()
{
    static const Pinned p = {
        {{1, 0}, "1c17b8556546b3fa/2"},
        {{1, 1}, "1c17b8556546b3fa/2"},
        {{2, 0}, "98eb1b8b28452d83/1"},
        {{2, 1}, "98eb1b8b28452d83/1"},
        {{3, 0}, "abfe47de70f295f6/10"},
        {{3, 1}, "abfe47de70f295f6/10"},
        {{4, 0}, "c8cb6df009e0113b/5"},
        {{4, 1}, "c8cb6df009e0113b/5"},
        {{5, 0}, "677cd4e07cedc643/5"},
        {{5, 1}, "99eead8c9bfcb29b/5"},
        {{6, 0}, "09c0c4f5f34fb95e/1"},
        {{6, 1}, "09c0c4f5f34fb95e/1"},
        {{7, 0}, "29421c0fb4f82c41/2"},
        {{7, 1}, "29421c0fb4f82c41/2"},
        {{8, 0}, "5dba10bb1b7a9f2f/2"},
        {{8, 1}, "5dba10bb1b7a9f2f/2"},
        {{9, 0}, "7e2c9808e2b77afa/24"},
        {{9, 1}, "7e2c9808e2b77afa/24"},
        {{10, 0}, "28324f0afb801363/20"},
        {{10, 1}, "8b478695facf888e/20"},
        {{11, 0}, "85ffdc3a5cb88bc5/50"},
        {{11, 1}, "85ffdc3a5cb88bc5/50"},
        {{12, 0}, "409bba0027735c1e/2"},
        {{12, 1}, "409bba0027735c1e/2"},
        {{13, 0}, "2fc420431326131d/21"},
        {{13, 1}, "2fc420431326131d/21"},
        {{14, 0}, "9e1a4a0e46e6a65e/1"},
        {{14, 1}, "9f2a4a0e47cdd98e/1"},
        {{15, 0}, "120f52ad787eeb04/1"},
        {{15, 1}, "120f52ad787eeb04/1"},
        {{16, 0}, "1c7053599c2e1eb6/40"},
        {{16, 1}, "1c7053599c2e1eb6/40"},
        {{17, 0}, "224b545dc44e5b9b/1"},
        {{17, 1}, "224b545dc44e5b9b/1"},
        {{18, 0}, "e7cbcb8e7525dbf6/19"},
        {{18, 1}, "e7cbcb8e7525dbf6/19"},
        {{19, 0}, "b08032ffb13db88c/1"},
        {{19, 1}, "b08032ffb13db88c/1"},
        {{20, 0}, "9c737573f5a0d7e1/50"},
        {{20, 1}, "9c737573f5a0d7e1/50"},
        {{21, 0}, "dc513e63e0a064a3/100"},
        {{21, 1}, "dc513e63e0a064a3/100"},
        {{22, 0}, "4050e605546457a2/3"},
        {{22, 1}, "4050e605546457a2/3"},
    };
    return p;
}

class TpchAnswers : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(TpchAnswers, AllQueriesMatchPinnedDigests)
{
    sisc::Env env(ssd::defaultConfig(), GetParam());
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    db.planner.min_table_bytes = 128_KiB;
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    buildTpch(db, cfg);

    std::map<std::pair<int, int>, std::string> got;
    env.run([&] {
        for (int q : allQueries()) {
            QueryRun r = runQueryBoth(q, db);
            got[{q, 0}] = digest(r.conv.rows);
            got[{q, 1}] = digest(r.biscuit.rows);
        }
    });

    for (const auto &[key, d] : got) {
        auto it = pinned().find(key);
        const std::string want =
            it == pinned().end() ? "<unpinned>" : it->second;
        EXPECT_EQ(d, want) << "Q" << key.first << " "
                           << (key.second ? "biscuit" : "conv")
                           << " on " << GetParam() << " drive(s)";
    }
}

INSTANTIATE_TEST_SUITE_P(Drives, TpchAnswers,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace bisc::tpch
