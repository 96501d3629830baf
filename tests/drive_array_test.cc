/**
 * @file
 * DriveArray correctness: the multi-drive scale-out refactor must be
 * invisible to results. Three invariants:
 *
 *  1. Drive-count transparency — a TPC-H query returns byte-identical
 *     rows whether the tables live on one drive or are sharded
 *     round-robin across four, in both engine modes.
 *  2. Array fork — freezing a multi-drive system into a DeviceImage
 *     and forking lanes from it reproduces a query run bit-identically
 *     (rows, elapsed ticks, engine stats, per-drive counter deltas),
 *     and sibling lanes agree with each other.
 *  3. Fault-domain isolation — each drive owns an independent fault
 *     RNG stream: a fault campaign on drive 0 never perturbs drive 1's
 *     timing or retry pattern, and drive k's stream is exactly the one
 *     DriveArray::faultSeedFor(cfg, k) names.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "host/grep.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "sim/kernel.h"
#include "sim/stats.h"
#include "sisc/device_image.h"
#include "sisc/drive_array.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace bisc {
namespace {

/** A complete system with TPC-H loaded, at a chosen drive count. */
struct TpchSystem
{
    sisc::Env env;
    host::HostSystem host;
    db::MiniDb db;

    explicit TpchSystem(std::uint32_t drives)
        : env(ssd::defaultConfig(), drives), host(env.array),
          db(env, host)
    {
        db.planner.min_table_bytes = 128_KiB;
        tpch::TpchConfig cfg;
        cfg.scale_factor = 0.01;
        tpch::buildTpch(db, cfg);
    }
};

// ----- 1. drive-count transparency -----

TEST(DriveArrayTest, FourDriveTpchMatchesSingleDrive)
{
    TpchSystem one(1);
    TpchSystem four(4);
    EXPECT_EQ(one.db.table("lineitem").shardCount(), 1u);
    EXPECT_EQ(four.db.table("lineitem").shardCount(), 4u);
    // Sharding must not change what was generated: same rows in the
    // same global order.
    EXPECT_EQ(one.db.table("lineitem").rowCount(),
              four.db.table("lineitem").rowCount());
    EXPECT_EQ(one.db.table("lineitem").rowAt(12345),
              four.db.table("lineitem").rowAt(12345));

    for (int q : {1, 6}) {
        tpch::QueryRun a, b;
        one.env.run([&] { a = tpch::runQueryBoth(q, one.db); });
        four.env.run([&] { b = tpch::runQueryBoth(q, four.db); });
        EXPECT_TRUE(a.resultsMatch()) << "Q" << q;
        EXPECT_TRUE(b.resultsMatch()) << "Q" << q;
        EXPECT_EQ(a.conv.rows, b.conv.rows) << "Q" << q;
        EXPECT_EQ(a.biscuit.rows, b.biscuit.rows) << "Q" << q;
        EXPECT_EQ(a.biscuit.ndp_used, b.biscuit.ndp_used) << "Q" << q;
        // The planner sees the same page-level selectivity: pages are
        // placed round-robin but their contents are unchanged.
        EXPECT_EQ(a.biscuit.sampled_selectivity,
                  b.biscuit.sampled_selectivity)
            << "Q" << q;
    }
}

// ----- 2. array freeze/fork -----

/** Everything a query run can observably produce, per drive. */
struct ArrayRecord
{
    std::vector<db::Row> rows;
    Tick elapsed = 0;
    db::DbStats stats;
    std::vector<std::map<std::string, double>> drive_deltas;
};

std::map<std::string, double>
counters(ssd::SsdDevice &dev)
{
    sim::Stats st;
    dev.exportStats(st);
    return st.all();
}

ArrayRecord
recordQ6(sisc::Env &env, db::MiniDb &db)
{
    ArrayRecord r;
    std::vector<std::map<std::string, double>> before;
    for (std::uint32_t k = 0; k < env.array.driveCount(); ++k)
        before.push_back(counters(env.array.drive(k).device));
    env.run([&] {
        tpch::QueryOutcome out =
            tpch::runQuery(6, db, db::EngineMode::Biscuit);
        r.rows = std::move(out.rows);
        r.elapsed = out.elapsed;
        r.stats = out.stats;
    });
    for (std::uint32_t k = 0; k < env.array.driveCount(); ++k) {
        std::map<std::string, double> delta;
        auto after = counters(env.array.drive(k).device);
        for (const auto &[name, v] : after) {
            double d = v - before[k][name];
            if (d != 0.0)
                delta[name] = d;
        }
        r.drive_deltas.push_back(std::move(delta));
    }
    return r;
}

void
expectSameRecord(const ArrayRecord &a, const ArrayRecord &b)
{
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.stats.pages_to_host, b.stats.pages_to_host);
    EXPECT_EQ(a.stats.pages_scanned_device,
              b.stats.pages_scanned_device);
    EXPECT_EQ(a.stats.rows_examined, b.stats.rows_examined);
    EXPECT_EQ(a.drive_deltas, b.drive_deltas);
}

TEST(DriveArrayTest, ArrayForkIsBitIdenticalAcrossLanes)
{
    TpchSystem primary(2);
    sim::DeviceImage image = sisc::freezeDeviceImage(primary.env);
    ASSERT_EQ(image.driveCount(), 2u);
    ASSERT_EQ(image.extra_drives.size(), 1u);

    ArrayRecord serial = recordQ6(primary.env, primary.db);
    ASSERT_FALSE(serial.rows.empty());
    ASSERT_EQ(serial.drive_deltas.size(), 2u);
    // A sharded scan exercised both drives.
    EXPECT_FALSE(serial.drive_deltas[0].empty());
    EXPECT_FALSE(serial.drive_deltas[1].empty());

    const db::Catalog cat = db::captureCatalog(primary.db);
    std::vector<ArrayRecord> lanes;
    for (int i = 0; i < 2; ++i) {
        db::Fork lane(image, cat);
        ASSERT_EQ(lane.env.array.driveCount(), 2u);
        lanes.push_back(recordQ6(lane.env, lane.db));
    }
    expectSameRecord(serial, lanes[0]);
    expectSameRecord(lanes[0], lanes[1]);
}

// ----- 3. fault-domain isolation -----

ssd::SsdConfig
faultyConfig()
{
    ssd::SsdConfig c = ssd::testConfig();
    c.fault.enabled = true;
    c.fault.seed = 42;
    // Frequent-but-survivable faults: every draw consumes RNG state,
    // so any cross-drive leakage shows up as a timing change.
    c.fault.raw_ber = 2e-4;
    c.fault.die_stall_prob = 0.05;
    c.fault.channel_stall_prob = 0.05;
    return c;
}

/** Grep drive @p k of @p array and report the timed result. */
host::GrepResult
grepDrive(sim::Kernel &kernel, sisc::DriveArray &array,
          std::uint32_t k, const std::string &needle)
{
    host::GrepResult r;
    kernel.spawn("host", [&] {
        r = host::grepBiscuit(array.drive(k).runtime, "/log", needle);
    });
    kernel.run();
    return r;
}

TEST(DriveArrayTest, DriveFaultStreamsAreIndependent)
{
    const ssd::SsdConfig cfg = faultyConfig();
    ASSERT_NE(sisc::DriveArray::faultSeedFor(cfg, 1), cfg.fault.seed);
    ASSERT_NE(sisc::DriveArray::faultSeedFor(cfg, 2),
              sisc::DriveArray::faultSeedFor(cfg, 1));

    // Baseline: drive 1 scans with drive 0 idle.
    host::GrepResult quiet;
    {
        sim::Kernel kernel;
        sisc::DriveArray array(kernel, 2, cfg);
        for (std::uint32_t k = 0; k < 2; ++k)
            host::generateWebLog(array.drive(k).fs, "/log", 1_MiB,
                                 "fault_sig", 50, 7);
        quiet = grepDrive(kernel, array, 1, "fault_sig");
    }
    ASSERT_GT(quiet.matches, 0u);

    // Same system, but drive 0 runs a fault campaign first. If the
    // drives shared one RNG stream, drive 0's draws would shift every
    // stall and retry drive 1 subsequently sees.
    host::GrepResult noisy;
    {
        sim::Kernel kernel;
        sisc::DriveArray array(kernel, 2, cfg);
        for (std::uint32_t k = 0; k < 2; ++k)
            host::generateWebLog(array.drive(k).fs, "/log", 1_MiB,
                                 "fault_sig", 50, 7);
        host::GrepResult storm =
            grepDrive(kernel, array, 0, "fault_sig");
        ASSERT_GT(storm.matches, 0u);
        noisy = grepDrive(kernel, array, 1, "fault_sig");
    }
    EXPECT_EQ(quiet.matches, noisy.matches);
    EXPECT_EQ(quiet.bytes_scanned, noisy.bytes_scanned);
    EXPECT_EQ(quiet.elapsed, noisy.elapsed)
        << "drive 0's fault draws leaked into drive 1's stream";

    // And drive 1's stream is exactly the derived seed: a standalone
    // device configured with faultSeedFor(cfg, 1) replays it.
    host::GrepResult standalone;
    {
        ssd::SsdConfig solo = cfg;
        solo.fault.seed = sisc::DriveArray::faultSeedFor(cfg, 1);
        sim::Kernel kernel;
        sisc::DriveArray array(kernel, 1, solo);
        host::generateWebLog(array.drive(0).fs, "/log", 1_MiB,
                             "fault_sig", 50, 7);
        standalone = grepDrive(kernel, array, 0, "fault_sig");
    }
    EXPECT_EQ(quiet.matches, standalone.matches);
    EXPECT_EQ(quiet.elapsed, standalone.elapsed)
        << "drive 1 does not run the seed faultSeedFor() names";
}

}  // namespace
}  // namespace bisc
