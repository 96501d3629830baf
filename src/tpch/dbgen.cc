#include "tpch/dbgen.h"

#include <array>
#include <cstdio>

#include "db/table.h"
#include "db/types.h"
#include "util/rng.h"

namespace bisc::tpch {

using db::col;
using db::Schema;
using db::Type;

namespace {

// ----- Word and name pools (abridged from the TPC-H specification) -----

const char *const kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                 "MIDDLE EAST"};

struct NationDef
{
    const char *name;
    int region;
};

const NationDef kNations[25] = {
    {"ALGERIA", 0},   {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},    {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},    {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2}, {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},     {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},   {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},     {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},   {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1},
};

const char *const kSegments[5] = {"AUTOMOBILE", "BUILDING",
                                  "FURNITURE", "MACHINERY",
                                  "HOUSEHOLD"};

const char *const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECI", "5-LOW"};

const char *const kShipModes[7] = {"REG AIR", "AIR", "RAIL", "SHIP",
                                   "TRUCK", "MAIL", "FOB"};

const char *const kInstructs[4] = {"DELIVER IN PERSON",
                                   "COLLECT COD", "NONE",
                                   "TAKE BACK RETURN"};

const char *const kContainers[8] = {"SM CASE", "SM BOX", "MED BOX",
                                    "MED BAG", "LG CASE", "LG BOX",
                                    "JUMBO PACK", "WRAP JAR"};

const char *const kTypes1[6] = {"STANDARD", "SMALL", "MEDIUM",
                                "LARGE", "ECONOMY", "PROMO"};
const char *const kTypes2[5] = {"ANODIZED", "BURNISHED", "PLATED",
                                "POLISHED", "BRUSHED"};
const char *const kTypes3[5] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                "COPPER"};

const char *const kColors[17] = {
    "almond", "azure", "beige",  "blue",   "brown",  "chocolate",
    "coral",  "cyan",  "forest", "green",  "indigo", "ivory",
    "lemon",  "navy",  "olive",  "orchid", "red"};

const char *const kCommentWords[12] = {
    "carefully", "quickly", "furiously", "deposits", "packages",
    "accounts",  "pending", "requests",  "ideas",    "foxes",
    "theodolites", "platelets"};

/** Write @p words random comment words into @p out. */
void
randomComment(Rng &rng, int words, std::string &out)
{
    out.clear();
    for (int i = 0; i < words; ++i) {
        if (i)
            out += ' ';
        out += kCommentWords[rng.below(12)];
    }
}

/** Write a phone number with @p nation's country code into @p out. */
void
phoneFor(Rng &rng, std::int64_t nation, std::string &out)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02d-%03d-%04d",
                  static_cast<int>(10 + nation),
                  static_cast<int>(100 + rng.below(900)),
                  static_cast<int>(1000 + rng.below(9000)));
    out.assign(buf);
}

double
money(Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.uniform();
}

/**
 * "YYYY-MM-DD" text of every day in [first, last], formatted once per
 * build: rows copy a date instead of formatting it.
 */
class DateText
{
  public:
    DateText(std::int64_t first, std::int64_t last) : first_(first)
    {
        text_.reserve(static_cast<std::size_t>(last - first + 1) * 10);
        for (std::int64_t d = first; d <= last; ++d)
            text_ += db::daysToDate(d);
    }

    std::string_view
    operator()(std::int64_t day) const
    {
        const auto at = static_cast<std::size_t>(day - first_) * 10;
        BISC_ASSERT(day >= first_ && at < text_.size(), "day ", day,
                    " outside the generated date range");
        return {text_.data() + at, 10};
    }

  private:
    std::int64_t first_;
    std::string text_;
};

}  // namespace

TpchSizes
TpchSizes::of(double sf)
{
    TpchSizes s;
    auto scale = [sf](double base) {
        auto v = static_cast<std::uint64_t>(base * sf + 0.5);
        return v == 0 ? 1 : v;
    };
    s.suppliers = scale(10000);
    s.parts = scale(200000);
    s.partsupps = s.parts * 4;
    s.customers = scale(150000);
    s.orders = scale(1500000);
    return s;
}

void
buildTpch(db::MiniDb &db, const TpchConfig &cfg)
{
    TpchSizes n = TpchSizes::of(cfg.scale_factor);
    Rng rng(cfg.seed);

    // Every generator below writes each row's cells straight into the
    // slot its table's loader hands out. The order of its RNG draws is
    // part of the generated data (DbgenTest pins the page bytes): it
    // is not always column order.
    std::string text;  // a text cell being built; reused row to row

    // ----- region -----
    auto &region = db.createTable(
        "region", Schema({col("r_regionkey", Type::Int64),
                          col("r_name", Type::String, 12),
                          col("r_comment", Type::String, 24)}));
    {
        const Schema &s = region.schema();
        db::Table::Loader load(region);
        for (std::int64_t i = 0; i < 5; ++i) {
            std::uint8_t *row = load.slot();
            s.setCell(row, 0, i);
            s.setCell(row, 1, kRegions[i]);
            randomComment(rng, 3, text);
            s.setCell(row, 2, text);
        }
    }

    // ----- nation -----
    auto &nation = db.createTable(
        "nation", Schema({col("n_nationkey", Type::Int64),
                          col("n_name", Type::String, 16),
                          col("n_regionkey", Type::Int64)}));
    {
        const Schema &s = nation.schema();
        db::Table::Loader load(nation);
        for (std::int64_t i = 0; i < 25; ++i) {
            std::uint8_t *row = load.slot();
            s.setCell(row, 0, i);
            s.setCell(row, 1, kNations[i].name);
            s.setCell(row, 2,
                      static_cast<std::int64_t>(kNations[i].region));
        }
    }

    // ----- supplier -----
    auto &supplier = db.createTable(
        "supplier", Schema({col("s_suppkey", Type::Int64),
                            col("s_name", Type::String, 18),
                            col("s_nationkey", Type::Int64),
                            col("s_acctbal", Type::Double),
                            col("s_phone", Type::String, 12),
                            col("s_comment", Type::String, 36)}));
    {
        const Schema &s = supplier.schema();
        db::Table::Loader load(supplier);
        for (std::uint64_t i = 1; i <= n.suppliers; ++i) {
            std::uint8_t *row = load.slot();
            const auto key = static_cast<std::int64_t>(i);
            s.setCell(row, 0, key);
            char name[20];
            std::snprintf(name, sizeof(name), "Supplier#%09lld",
                          static_cast<long long>(key));
            s.setCell(row, 1, name);
            const auto nat = static_cast<std::int64_t>(rng.below(25));
            s.setCell(row, 2, nat);
            randomComment(rng, 3, text);
            if (rng.below(100) < 2)  // Q16's complaints filter
                text = "Customer stuff Complaints";
            s.setCell(row, 5, text);
            s.setCell(row, 3, money(rng, -999.0, 9999.0));
            phoneFor(rng, nat, text);
            s.setCell(row, 4, text);
        }
    }

    // ----- part -----
    auto &part = db.createTable(
        "part", Schema({col("p_partkey", Type::Int64),
                        col("p_name", Type::String, 24),
                        col("p_mfgr", Type::String, 16),
                        col("p_brand", Type::String, 10),
                        col("p_type", Type::String, 26),
                        col("p_size", Type::Int64),
                        col("p_container", Type::String, 12),
                        col("p_retailprice", Type::Double)}));
    {
        const Schema &s = part.schema();
        db::Table::Loader load(part);
        for (std::uint64_t i = 1; i <= n.parts; ++i) {
            std::uint8_t *row = load.slot();
            s.setCell(row, 0, static_cast<std::int64_t>(i));
            // Multi-word names draw their words last to first.
            const char *color2 = kColors[rng.below(17)];
            text.assign(kColors[rng.below(17)]);
            text += ' ';
            text += color2;
            s.setCell(row, 1, text);
            int mfgr = 1 + static_cast<int>(rng.below(5));
            char mfgr_s[18], brand_s[12];
            std::snprintf(mfgr_s, sizeof(mfgr_s), "Manufacturer#%d",
                          mfgr);
            std::snprintf(brand_s, sizeof(brand_s), "Brand#%d%d",
                          mfgr, static_cast<int>(1 + rng.below(5)));
            s.setCell(row, 2, mfgr_s);
            s.setCell(row, 3, brand_s);
            const char *type3 = kTypes3[rng.below(5)];
            const char *type2 = kTypes2[rng.below(5)];
            text.assign(kTypes1[rng.below(6)]);
            text += ' ';
            text += type2;
            text += ' ';
            text += type3;
            s.setCell(row, 4, text);
            s.setCell(row, 5, static_cast<std::int64_t>(1 + rng.below(50)));
            s.setCell(row, 6, kContainers[rng.below(8)]);
            s.setCell(row, 7, money(rng, 900.0, 2000.0));
        }
    }

    // ----- partsupp -----
    auto &partsupp = db.createTable(
        "partsupp", Schema({col("ps_partkey", Type::Int64),
                            col("ps_suppkey", Type::Int64),
                            col("ps_availqty", Type::Int64),
                            col("ps_supplycost", Type::Double)}));
    {
        const Schema &s = partsupp.schema();
        db::Table::Loader load(partsupp);
        for (std::uint64_t i = 0; i < n.partsupps; ++i) {
            std::uint8_t *row = load.slot();
            s.setCell(row, 0, static_cast<std::int64_t>(i / 4 + 1));
            s.setCell(row, 1,
                      static_cast<std::int64_t>(
                          (i % 4) * (n.suppliers / 4) +
                          rng.below(std::max<std::uint64_t>(
                              1, n.suppliers / 4)) +
                          1));
            s.setCell(row, 2, static_cast<std::int64_t>(1 + rng.below(9999)));
            s.setCell(row, 3, money(rng, 1.0, 1000.0));
        }
    }

    // ----- customer -----
    auto &customer = db.createTable(
        "customer", Schema({col("c_custkey", Type::Int64),
                            col("c_name", Type::String, 20),
                            col("c_nationkey", Type::Int64),
                            col("c_mktsegment", Type::String, 12),
                            col("c_acctbal", Type::Double),
                            col("c_phone", Type::String, 12),
                            col("c_comment", Type::String, 30)}));
    {
        const Schema &s = customer.schema();
        db::Table::Loader load(customer);
        for (std::uint64_t i = 1; i <= n.customers; ++i) {
            std::uint8_t *row = load.slot();
            const auto key = static_cast<std::int64_t>(i);
            s.setCell(row, 0, key);
            char name[22];
            std::snprintf(name, sizeof(name), "Customer#%09lld",
                          static_cast<long long>(key));
            s.setCell(row, 1, name);
            const auto nat = static_cast<std::int64_t>(rng.below(25));
            s.setCell(row, 2, nat);
            s.setCell(row, 3, kSegments[rng.below(5)]);
            s.setCell(row, 4, money(rng, -999.0, 9999.0));
            phoneFor(rng, nat, text);
            s.setCell(row, 5, text);
            randomComment(rng, 3, text);
            s.setCell(row, 6, text);
        }
    }

    // ----- orders (o_orderdate monotone: warehouse load order) -----
    // The two big tables shard round-robin across the drive array
    // (one drive: same layout as ever). Generation order and the RNG
    // stream are shard-count invariant, so row content is identical
    // for any drive count — only page placement differs.
    auto &orders = db.createShardedTable(
        "orders", Schema({col("o_orderkey", Type::Int64),
                          col("o_custkey", Type::Int64),
                          col("o_orderstatus", Type::String, 2),
                          col("o_totalprice", Type::Double),
                          col("o_orderdate", Type::Date),
                          col("o_orderpriority", Type::String, 12),
                          col("o_shippriority", Type::Int64),
                          col("o_comment", Type::String, 30)}));
    const std::int64_t start_day = db::dateToDays(kStartDate);
    const std::int64_t end_day = db::dateToDays(kEndDate);
    // Order i (from 0) is placed on this day.
    auto orderDay = [&](std::uint64_t i) {
        return start_day + static_cast<std::int64_t>(
                               (end_day - start_day) *
                               (static_cast<double>(i) /
                                static_cast<double>(n.orders)));
    };
    // Receipt dates run latest: at most 121 + 30 days past an order
    // placed on or before end_day.
    const DateText dates(start_day, end_day + 151);
    {
        const Schema &s = orders.schema();
        db::Table::Loader load(orders);
        for (std::uint64_t i = 0; i < n.orders; ++i) {
            std::uint8_t *row = load.slot();
            s.setCell(row, 0, static_cast<std::int64_t>(i + 1));
            const std::int64_t day = orderDay(i);
            s.setCell(row, 2,
                      day + 121 < end_day
                          ? (rng.below(20) == 0 ? "P" : "F")
                          : "O");
            randomComment(rng, 3, text);
            if (rng.below(100) < 2)
                text = "dogged special requests wake";
            s.setCell(row, 7, text);
            s.setCell(row, 1,
                      static_cast<std::int64_t>(1 + rng.below(n.customers)));
            s.setCell(row, 3, money(rng, 1000.0, 400000.0));
            s.setCell(row, 4, dates(day));
            s.setCell(row, 5, kPriorities[rng.below(5)]);
            s.setCell(row, 6, std::int64_t{0});
        }
    }

    // ----- lineitem -----
    auto &lineitem = db.createShardedTable(
        "lineitem",
        Schema({col("l_orderkey", Type::Int64),
                col("l_partkey", Type::Int64),
                col("l_suppkey", Type::Int64),
                col("l_linenumber", Type::Int64),
                col("l_quantity", Type::Double),
                col("l_extendedprice", Type::Double),
                col("l_discount", Type::Double),
                col("l_tax", Type::Double),
                col("l_returnflag", Type::String, 2),
                col("l_linestatus", Type::String, 2),
                col("l_shipdate", Type::Date),
                col("l_commitdate", Type::Date),
                col("l_receiptdate", Type::Date),
                col("l_shipinstruct", Type::String, 18),
                col("l_shipmode", Type::String, 8),
                col("l_comment", Type::String, 20)}));
    {
        const Schema &s = lineitem.schema();
        db::Table::Loader load(lineitem);
        for (std::uint64_t order = 1; order <= n.orders; ++order) {
            const std::uint64_t lines = 1 + rng.below(7);
            const std::int64_t order_day = orderDay(order - 1);
            for (std::uint64_t line = 1; line <= lines; ++line) {
                std::uint8_t *row = load.slot();
                std::int64_t ship =
                    order_day + 1 +
                    static_cast<std::int64_t>(rng.below(121));
                std::int64_t commit =
                    order_day + 30 +
                    static_cast<std::int64_t>(rng.below(61));
                std::int64_t receipt =
                    ship + 1 + static_cast<std::int64_t>(rng.below(30));
                double qty = 1.0 + static_cast<double>(rng.below(50));
                double price = qty * money(rng, 900.0, 2000.0) / 10.0;
                bool shipped = ship <= end_day;
                s.setCell(row, 0, static_cast<std::int64_t>(order));
                s.setCell(row, 1,
                          static_cast<std::int64_t>(1 + rng.below(n.parts)));
                s.setCell(row, 2, static_cast<std::int64_t>(
                                      1 + rng.below(n.suppliers)));
                s.setCell(row, 3, static_cast<std::int64_t>(line));
                s.setCell(row, 4, qty);
                s.setCell(row, 5, price);
                s.setCell(row, 6, 0.01 * static_cast<double>(rng.below(11)));
                s.setCell(row, 7, 0.01 * static_cast<double>(rng.below(9)));
                s.setCell(row, 8,
                          shipped && rng.below(4) == 0 ? "R"
                          : shipped                    ? "A"
                                                       : "N");
                s.setCell(row, 9, shipped ? "F" : "O");
                s.setCell(row, 10, dates(ship));
                s.setCell(row, 11, dates(commit));
                s.setCell(row, 12, dates(receipt));
                s.setCell(row, 13, kInstructs[rng.below(4)]);
                s.setCell(row, 14, kShipModes[rng.below(7)]);
                randomComment(rng, 2, text);
                s.setCell(row, 15, text);
            }
        }
    }
}

}  // namespace bisc::tpch
