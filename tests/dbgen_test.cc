/**
 * @file
 * Data-quality tests for the TPC-H generator: the value distributions
 * the 22 queries' predicates rely on must actually hold in the
 * generated data (otherwise planner categories and selectivities are
 * accidents).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"

namespace bisc::tpch {
namespace {

class DbgenTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        env_ = new sisc::Env(ssd::defaultConfig());
        host_ = new host::HostSystem(env_->array);
        db_ = new db::MiniDb(*env_, *host_);
        TpchConfig cfg;
        cfg.scale_factor = 0.01;
        buildTpch(*db_, cfg);
    }

    static void
    TearDownTestSuite()
    {
        delete db_;
        delete host_;
        delete env_;
        db_ = nullptr;
        host_ = nullptr;
        env_ = nullptr;
    }

    static sisc::Env *env_;
    static host::HostSystem *host_;
    static db::MiniDb *db_;
};

sisc::Env *DbgenTest::env_ = nullptr;
host::HostSystem *DbgenTest::host_ = nullptr;
db::MiniDb *DbgenTest::db_ = nullptr;

TEST_F(DbgenTest, MktSegmentsAreBalancedFifths)
{
    auto &C = db_->table("customer");
    int seg = C.schema().indexOf("c_mktsegment");
    std::map<std::string, std::uint64_t> counts;
    C.forEachRow([&](const db::Row &r) {
        ++counts[std::get<std::string>(r[seg])];
    });
    ASSERT_EQ(counts.size(), 5u);
    ASSERT_TRUE(counts.count("BUILDING"));  // Q3's filter value
    double expect = static_cast<double>(C.rowCount()) / 5.0;
    for (const auto &[name, n] : counts)
        EXPECT_NEAR(static_cast<double>(n), expect, expect * 0.35)
            << name;
}

TEST_F(DbgenTest, PartTypeVocabularyFeedsTheQueries)
{
    auto &P = db_->table("part");
    int type = P.schema().indexOf("p_type");
    int name = P.schema().indexOf("p_name");
    int brand = P.schema().indexOf("p_brand");
    std::uint64_t brass = 0, promo = 0, green = 0, forest = 0,
                  brand23 = 0;
    P.forEachRow([&](const db::Row &r) {
        const auto &t = std::get<std::string>(r[type]);
        brass += t.size() >= 5 &&
                 t.compare(t.size() - 5, 5, "BRASS") == 0;
        promo += t.rfind("PROMO", 0) == 0;
        const auto &n = std::get<std::string>(r[name]);
        green += n.find("green") != std::string::npos;
        forest += n.rfind("forest", 0) == 0;
        brand23 += std::get<std::string>(r[brand]) == "Brand#23";
    });
    std::uint64_t total = P.rowCount();
    // Q2 (%BRASS): one of five third-words.
    EXPECT_NEAR(static_cast<double>(brass) / total, 0.2, 0.08);
    // Q14 (PROMO%): one of six first-words.
    EXPECT_NEAR(static_cast<double>(promo) / total, 1.0 / 6, 0.07);
    // Q9 (%green%), Q20 (forest%): colors from a 17-word pool.
    EXPECT_GT(green, 0u);
    EXPECT_GT(forest, 0u);
    // Q17 (Brand#23): one of 25 brands.
    EXPECT_NEAR(static_cast<double>(brand23) / total, 0.04, 0.03);
}

TEST_F(DbgenTest, OrderCommentsPlantSpecialRequests)
{
    auto &O = db_->table("orders");
    int comment = O.schema().indexOf("o_comment");
    std::uint64_t special = 0;
    O.forEachRow([&](const db::Row &r) {
        const auto &c = std::get<std::string>(r[comment]);
        special += c.find("special") != std::string::npos &&
                   c.find("requests") != std::string::npos;
    });
    // Q13's NOT LIKE must exclude a small but nonzero slice (~2%).
    EXPECT_GT(special, 0u);
    EXPECT_LT(static_cast<double>(special) /
                  static_cast<double>(O.rowCount()),
              0.06);
}

TEST_F(DbgenTest, PhonesCarryNationCountryCodes)
{
    auto &C = db_->table("customer");
    int phone = C.schema().indexOf("c_phone");
    int nat = C.schema().indexOf("c_nationkey");
    C.forEachRow([&](const db::Row &r) {
        const auto &p = std::get<std::string>(r[phone]);
        ASSERT_EQ(p.size(), 11u) << p;
        int code = std::stoi(p.substr(0, 2));
        EXPECT_EQ(code,
                  10 + static_cast<int>(
                           std::get<std::int64_t>(r[nat])));
    });
}

TEST_F(DbgenTest, LineitemNumericRangesMatchSpec)
{
    auto &L = db_->table("lineitem");
    const auto &ls = L.schema();
    int qty = ls.indexOf("l_quantity");
    int disc = ls.indexOf("l_discount");
    int tax = ls.indexOf("l_tax");
    int line = ls.indexOf("l_linenumber");
    std::int64_t max_line = 0;
    L.forEachRow([&](const db::Row &r) {
        double q = std::get<double>(r[qty]);
        ASSERT_GE(q, 1.0);
        ASSERT_LE(q, 50.0);
        double d = std::get<double>(r[disc]);
        ASSERT_GE(d, 0.0);
        ASSERT_LE(d, 0.10001);
        double t = std::get<double>(r[tax]);
        ASSERT_GE(t, 0.0);
        ASSERT_LE(t, 0.08001);
        max_line =
            std::max(max_line, std::get<std::int64_t>(r[line]));
    });
    EXPECT_GE(max_line, 5);  // up to 7 lines per order
    EXPECT_LE(max_line, 7);
}

TEST_F(DbgenTest, ForeignKeysResolve)
{
    auto &O = db_->table("orders");
    auto &C = db_->table("customer");
    auto &L = db_->table("lineitem");
    std::uint64_t customers = C.rowCount();
    std::uint64_t orders = O.rowCount();
    int o_cust = O.schema().indexOf("o_custkey");
    O.forEachRow([&](const db::Row &r) {
        auto k = std::get<std::int64_t>(r[o_cust]);
        ASSERT_GE(k, 1);
        ASSERT_LE(k, static_cast<std::int64_t>(customers));
    });
    int l_order = L.schema().indexOf("l_orderkey");
    L.forEachRow([&](const db::Row &r) {
        auto k = std::get<std::int64_t>(r[l_order]);
        ASSERT_GE(k, 1);
        ASSERT_LE(k, static_cast<std::int64_t>(orders));
    });
}

TEST_F(DbgenTest, GenerationIsDeterministic)
{
    // Rebuilding with the same config yields byte-identical tables.
    sisc::Env env2(ssd::defaultConfig(), 1);
    host::HostSystem host2(env2.array);
    db::MiniDb db2(env2, host2);
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    buildTpch(db2, cfg);

    auto &a = db_->table("lineitem");
    auto &b = db2.table("lineitem");
    ASSERT_EQ(a.rowCount(), b.rowCount());
    for (std::uint64_t i = 0; i < a.rowCount(); i += 1777) {
        auto ra = a.rowAt(i);
        auto rb = b.rowAt(i);
        ASSERT_EQ(ra.size(), rb.size());
        for (std::size_t c = 0; c < ra.size(); ++c)
            EXPECT_EQ(db::valueToString(ra[c]),
                      db::valueToString(rb[c]))
                << "row " << i << " col " << c;
    }
}

std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * FNV-1a over every page of every table (sorted by name), pages in
 * global order: the exact bytes dbgen and Table::Loader install.
 */
std::uint64_t
pageDigest(std::uint32_t drives)
{
    sisc::Env env(ssd::defaultConfig(), drives);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    buildTpch(db, cfg);

    std::uint64_t h = 1469598103934665603ull;
    for (const std::string &name : db.tableNames()) {
        const db::Table &t = db.table(name);
        h = fnv1a(h, reinterpret_cast<const std::uint8_t *>(name.data()),
                  name.size());
        std::vector<std::uint8_t> page(t.pageSize());
        for (std::uint64_t p = 0; p < t.pageCount(); ++p) {
            t.shardFs(t.shardOf(p))
                .peek(t.file(), t.localPage(p) * t.pageSize(),
                      t.pageSize(), page.data());
            h = fnv1a(h, page.data(), page.size());
        }
    }
    return h;
}

TEST_F(DbgenTest, PageDigestIsPinnedAtEveryDriveCount)
{
    // Pins the generated bytes: any change to dbgen's value stream,
    // its RNG draw order or the row packing moves this digest.
    const std::uint64_t one = pageDigest(1);
    EXPECT_EQ(one, pageDigest(4));
    EXPECT_EQ(one, 0x5850685faa4512fcull) << std::hex << one;
}

}  // namespace
}  // namespace bisc::tpch
