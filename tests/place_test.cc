/**
 * @file
 * Cost-model SSDlet placement contracts (db/costmodel.h, db/placer.h):
 *
 *  1. Calibration is deterministic: two identically-configured,
 *     identically-trafficked systems calibrate field-for-field equal
 *     models and make byte-identical placement decisions at a fixed
 *     seed.
 *  2. Gate closed (use_cost_model=false), the placement machinery is
 *     dead code: the annealer seed is never read and simulated timing
 *     is tick-identical to the statistics-era planner; gate-on
 *     returns the same rows.
 *  3. A lane forked from a frozen device image reproduces the
 *     primary's placement decision exactly (same plan, same note,
 *     same simulated ticks) — including under LaneRunner threads.
 *
 * The annealer's budget and comparator properties, for cost-model
 * graphs with host-pinned re-checks too, live in pipeline_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "db/costmodel.h"
#include "db/executor.h"
#include "db/expr.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "db/placer.h"
#include "db/planner.h"
#include "db/stats.h"
#include "db/table.h"
#include "db/types.h"
#include "host/host_system.h"
#include "host/lane_runner.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
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

/** Clustered fact rows: id/day ascending, qty noise (see prune_test). */
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

/** What one placed scan decided and cost. */
struct ScanRecord
{
    std::vector<Row> rows;
    std::string placement;
    std::string note;
    Tick predicted = 0;
    Tick elapsed = 0;
};

ScanRecord
scanOnce(sisc::Env &env, MiniDb &db, const ExprPtr &pred)
{
    ScanRecord r;
    env.run([&] {
        DbStats stats;
        Tick t0 = env.kernel.now();
        ScanOutcome out = scanTable(db, db.table("events"), pred,
                                    EngineMode::Biscuit, stats);
        r.elapsed = env.kernel.now() - t0;
        r.rows = std::move(out.rows);
        r.placement = out.placement;
        r.note = out.note;
        r.predicted = out.predicted_ticks;
    });
    return r;
}

/** A fresh 2-drive system with the standard events table loaded. */
struct PlaceSystem
{
    sisc::Env env;
    host::HostSystem host;
    MiniDb db;

    PlaceSystem()
        : env(ssd::testConfig(), 2), host(env.array), db(env, host)
    {
        db.planner.min_table_bytes = 8_KiB;
        db.planner.sample_pages = 8;
        db.planner.use_stats = true;
        db.planner.use_cost_model = true;
        db.planner.place_seed = 0xfeedull;
        auto &t = db.createShardedTable("events", eventsSchema());
        t.loadRows(eventRows(7, 20000));
    }
};

TEST(PlaceCalib, CalibrationAndPlacementDeterministic)
{
    PlaceSystem a;
    PlaceSystem b;

    const CostCalibration ca = calibrateCostModel(a.db);
    const CostCalibration cb = calibrateCostModel(b.db);
    EXPECT_EQ(ca.describe(), cb.describe());
    EXPECT_GT(ca.dev_ctrl_ns_per_page, 0.0);
    EXPECT_GT(ca.stage_setup_ns, 0.0);
    EXPECT_GT(ca.host_cpu_factor, 0.0);

    auto pred = between(eventsSchema(), "day",
                        std::string("1995-03-01"),
                        std::string("1995-03-10"));
    ScanRecord ra = scanOnce(a.env, a.db, pred);
    ScanRecord rb = scanOnce(b.env, b.db, pred);
    ASSERT_FALSE(ra.rows.empty());
    EXPECT_EQ(ra.rows, rb.rows);
    EXPECT_EQ(ra.placement, rb.placement);
    EXPECT_EQ(ra.note, rb.note);
    EXPECT_EQ(ra.predicted, rb.predicted);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_NE(ra.note.find("cost model placed"), std::string::npos)
        << ra.note;

    // Calibrating again after traffic still agrees across systems
    // (the NAND-refined channel rate is part of the contract).
    EXPECT_EQ(calibrateCostModel(a.db).describe(),
              calibrateCostModel(b.db).describe());
}

TEST(PlaceGate, GateClosedLeavesTimingIdentical)
{
    auto pred = between(eventsSchema(), "day",
                        std::string("1995-03-01"),
                        std::string("1995-04-15"));

    // Gate closed, two different annealer seeds: the seed must never
    // be read, so decisions, notes and simulated ticks are identical.
    PlaceSystem a;
    a.db.planner.use_cost_model = false;
    a.db.planner.place_seed = 1;
    PlaceSystem b;
    b.db.planner.use_cost_model = false;
    b.db.planner.place_seed = 0xdeadbeefull;

    ScanRecord ra = scanOnce(a.env, a.db, pred);
    ScanRecord rb = scanOnce(b.env, b.db, pred);
    ASSERT_FALSE(ra.rows.empty());
    EXPECT_EQ(ra.rows, rb.rows);
    EXPECT_EQ(ra.note, rb.note);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    // The legacy decision carries no placement plan.
    EXPECT_TRUE(ra.placement.empty()) << ra.placement;
    EXPECT_EQ(ra.predicted, Tick{0});

    // Gate open: same rows, now with a placement attached.
    PlaceSystem g;
    ScanRecord rg = scanOnce(g.env, g.db, pred);
    EXPECT_EQ(rg.rows, ra.rows);
    EXPECT_FALSE(rg.placement.empty());
    EXPECT_NE(rg.note.find("cost model placed"), std::string::npos)
        << rg.note;
}

TEST(PlaceLane, ForkedLaneReproducesPlacement)
{
    const Schema schema = eventsSchema();
    constexpr std::uint32_t kDrives = 2;

    sisc::Env env(ssd::testConfig(), kDrives);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 8_KiB;
    db.planner.sample_pages = 8;
    db.planner.use_stats = true;
    db.planner.use_cost_model = true;
    db.planner.place_seed = 0xfeedull;
    auto &t = db.createShardedTable("events", schema);
    t.loadRows(eventRows(7, 20000));

    const Catalog cat = captureCatalog(db);
    sim::DeviceImage image = sisc::freezeDeviceImage(env);
    exportTableStats(db, image);

    auto pred = between(schema, "day", std::string("1995-03-01"),
                        std::string("1995-04-15"));
    ScanRecord primary = scanOnce(env, db, pred);
    ASSERT_FALSE(primary.rows.empty());
    ASSERT_FALSE(primary.placement.empty());

    // Two lanes on real threads (the TSan target): each forks the
    // frozen image, adopts the primary's statistics, and must make
    // the identical placement decision on the identical clock.
    host::LaneRunner runner(2);
    std::vector<ScanRecord> lanes(2);
    runner.run(2, [&](std::size_t i) {
        Fork lane(image, cat);
        lanes[i] = scanOnce(lane.env, lane.db, pred);
    });

    for (const ScanRecord &lane : lanes) {
        EXPECT_EQ(lane.rows, primary.rows);
        EXPECT_EQ(lane.placement, primary.placement);
        EXPECT_EQ(lane.note, primary.note);
        EXPECT_EQ(lane.predicted, primary.predicted);
        EXPECT_EQ(lane.elapsed, primary.elapsed);
    }
}

}  // namespace
}  // namespace bisc::db
