/**
 * @file
 * Snapshot/fork correctness (the parallel-lanes substrate): a lane
 * forked from a frozen device image must reproduce a query run
 * bit-identically to running it in place on the frozen system — same
 * result rows, same elapsed virtual ticks, same engine statistics,
 * same device counter deltas. Covers the cold case (the fork pays the
 * module load and selectivity sampling exactly like the serial first
 * offload), the warm case (preseeded statistics, resident module),
 * fault-injecting configurations under two RNG seeds, and the
 * copy-on-write overlay: lane writes never leak into the shared image
 * or into sibling lanes.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "host/host_system.h"
#include "sim/stats.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace bisc {
namespace {

/** Everything a query run can observably produce. */
struct RunRecord
{
    std::vector<db::Row> rows;
    Tick elapsed = 0;
    bool ndp_used = false;
    double sampled_selectivity = -1.0;
    std::string planner_note;
    db::DbStats stats;
    std::map<std::string, double> device_delta;
};

std::map<std::string, double>
deviceCounters(ssd::SsdDevice &dev)
{
    sim::Stats st;
    dev.exportStats(st);
    return st.all();
}

std::map<std::string, double>
counterDelta(const std::map<std::string, double> &before,
             const std::map<std::string, double> &after)
{
    std::map<std::string, double> delta;
    for (const auto &[name, v] : after) {
        auto it = before.find(name);
        double d = v - (it == before.end() ? 0.0 : it->second);
        if (d != 0.0)
            delta[name] = d;
    }
    return delta;
}

void
expectSameRecord(const RunRecord &serial, const RunRecord &fork)
{
    EXPECT_EQ(serial.rows, fork.rows);
    EXPECT_EQ(serial.elapsed, fork.elapsed);
    EXPECT_EQ(serial.ndp_used, fork.ndp_used);
    EXPECT_EQ(serial.sampled_selectivity, fork.sampled_selectivity);
    EXPECT_EQ(serial.planner_note, fork.planner_note);
    EXPECT_EQ(serial.stats.pages_to_host, fork.stats.pages_to_host);
    EXPECT_EQ(serial.stats.pages_scanned_device,
              fork.stats.pages_scanned_device);
    EXPECT_EQ(serial.stats.sample_pages, fork.stats.sample_pages);
    EXPECT_EQ(serial.stats.rows_examined, fork.stats.rows_examined);
    EXPECT_EQ(serial.stats.ndp_scans, fork.stats.ndp_scans);
    EXPECT_EQ(serial.stats.conv_scans, fork.stats.conv_scans);
    EXPECT_EQ(serial.device_delta, fork.device_delta);
}

/**
 * Shared TPC-H instance, frozen right after population. Tests run in
 * declaration order; the cold-offload test must be the first Biscuit
 * run in the in-place database (its serial reference pays the module
 * load and the first sampling, like the serial suite's first
 * offload).
 */
class SnapshotForkTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        env_ = new sisc::Env(ssd::defaultConfig());
        host_ = new host::HostSystem(env_->array);
        db_ = new db::MiniDb(*env_, *host_);
        db_->planner.min_table_bytes = 128_KiB;
        tpch::TpchConfig cfg;
        cfg.scale_factor = 0.01;
        tpch::buildTpch(*db_, cfg);
        image_ = new sim::DeviceImage(sisc::freezeDeviceImage(*env_));
    }

    static void
    TearDownTestSuite()
    {
        delete image_;
        delete db_;
        delete host_;
        delete env_;
        image_ = nullptr;
        db_ = nullptr;
        host_ = nullptr;
        env_ = nullptr;
    }

    static RunRecord
    record(sisc::Env &env, db::MiniDb &db, int q, db::EngineMode mode)
    {
        RunRecord r;
        auto before = deviceCounters(env.device);
        env.run([&] {
            tpch::QueryOutcome out = tpch::runQuery(q, db, mode);
            r.rows = std::move(out.rows);
            r.elapsed = out.elapsed;
            r.ndp_used = out.ndp_used;
            r.sampled_selectivity = out.sampled_selectivity;
            r.planner_note = out.planner_note;
            r.stats = out.stats;
        });
        r.device_delta = counterDelta(before, deviceCounters(env.device));
        return r;
    }

    /** The in-place serial reference run. */
    static RunRecord
    runInPlace(int q, db::EngineMode mode)
    {
        return record(*env_, *db_, q, mode);
    }

    /** A fork of @p primary's catalog over @p image. */
    struct Lane : db::Fork
    {
        Lane(const sim::DeviceImage &image, db::MiniDb &primary)
            : db::Fork(image, db::captureCatalog(primary))
        {}
    };

    static sisc::Env *env_;
    static host::HostSystem *host_;
    static db::MiniDb *db_;
    static sim::DeviceImage *image_;
};

sisc::Env *SnapshotForkTest::env_ = nullptr;
host::HostSystem *SnapshotForkTest::host_ = nullptr;
db::MiniDb *SnapshotForkTest::db_ = nullptr;
sim::DeviceImage *SnapshotForkTest::image_ = nullptr;

TEST_F(SnapshotForkTest, ForkedConvQueryBitIdentical)
{
    RunRecord serial = runInPlace(6, db::EngineMode::Conv);
    Lane lane(*image_, *db_);
    RunRecord fork = record(lane.env, lane.db, 6, db::EngineMode::Conv);
    ASSERT_FALSE(serial.rows.empty());
    expectSameRecord(serial, fork);
    // A conventional scan never programs a page: the lane served
    // everything from the shared image.
    EXPECT_EQ(lane.env.device.nand().overlayPages(), 0u);
    EXPECT_GT(lane.env.device.nand().basePages(), 0u);
}

TEST_F(SnapshotForkTest, ForkedBiscuitColdBitIdentical)
{
    // First Biscuit run in place: pays the module load plus the first
    // selectivity sampling — exactly the state a cold fork sees.
    ASSERT_TRUE(db_->selectivity_stats.empty());
    RunRecord serial = runInPlace(6, db::EngineMode::Biscuit);
    Lane lane(*image_, *db_);
    RunRecord fork =
        record(lane.env, lane.db, 6, db::EngineMode::Biscuit);
    EXPECT_TRUE(serial.ndp_used);
    expectSameRecord(serial, fork);
}

TEST_F(SnapshotForkTest, ForkedBiscuitWarmBitIdentical)
{
    // After a first in-place offload the statistics cache and module
    // are warm; a repeat run hits both. A lane reproduces that view
    // by preseeding the cache and warm-loading the module.
    runInPlace(6, db::EngineMode::Biscuit);
    ASSERT_FALSE(db_->selectivity_stats.empty());
    RunRecord serial = runInPlace(6, db::EngineMode::Biscuit);
    Lane lane(*image_, *db_);
    lane.db.selectivity_stats = db_->selectivity_stats;
    lane.env.run([&] { db::warmMinidbModule(lane.db); });
    RunRecord fork =
        record(lane.env, lane.db, 6, db::EngineMode::Biscuit);
    EXPECT_EQ(serial.stats.sample_pages, 0u);
    expectSameRecord(serial, fork);
}

TEST_F(SnapshotForkTest, WriteThroughOverlayStaysInLane)
{
    const std::string file = db_->table("region").file();
    const Bytes page = env_->fs.pageSize();

    std::vector<std::uint8_t> original(page);
    env_->fs.peek(file, 0, page, original.data());

    Lane writer(*image_, *db_);
    std::vector<std::uint8_t> junk(page, 0xa5);
    writer.env.run(
        [&] { writer.env.fs.write(file, 0, junk.data(), page); });
    EXPECT_GT(writer.env.device.nand().overlayPages(), 0u);

    // The writer observes its own write...
    std::vector<std::uint8_t> seen(page);
    writer.env.fs.peek(file, 0, page, seen.data());
    EXPECT_EQ(seen, junk);

    // ...while the frozen system and a sibling fork still see the
    // original bytes.
    env_->fs.peek(file, 0, page, seen.data());
    EXPECT_EQ(seen, original);
    Lane sibling(*image_, *db_);
    sibling.env.fs.peek(file, 0, page, seen.data());
    EXPECT_EQ(seen, original);
}

TEST_F(SnapshotForkTest, FaultSeedsReplayIdentically)
{
    using db::CmpOp;
    for (std::uint64_t seed : {7ull, 99ull}) {
        ssd::SsdConfig cfg = ssd::defaultConfig();
        cfg.fault.enabled = true;
        cfg.fault.seed = seed;

        sisc::Env env(cfg);
        host::HostSystem host(env.array);
        db::MiniDb mdb(env, host);
        db::Schema schema({db::col("id", db::Type::Int64),
                           db::col("tag", db::Type::String, 8)});
        auto &t = mdb.createTable("faulty", schema);
        std::vector<db::Row> rows;
        for (std::int64_t i = 0; i < 4000; ++i)
            rows.push_back({i, std::string(i % 7 ? "beta" : "alfa")});
        t.loadRows(rows);
        sim::DeviceImage image = sisc::freezeDeviceImage(env);

        auto pred = db::cmp(schema, "tag", CmpOp::Eq,
                            std::string("alfa"));
        auto scan = [&](sisc::Env &e, db::MiniDb &d) {
            RunRecord r;
            auto before = deviceCounters(e.device);
            e.run([&] {
                db::DbStats s;
                Tick t0 = e.kernel.now();
                auto out = db::scanTable(d, d.table("faulty"), pred,
                                         db::EngineMode::Conv, s);
                r.rows = std::move(out.rows);
                r.elapsed = e.kernel.now() - t0;
                r.stats = s;
            });
            r.device_delta =
                counterDelta(before, deviceCounters(e.device));
            return r;
        };

        RunRecord serial = scan(env, mdb);
        ASSERT_FALSE(serial.rows.empty());

        sisc::Env lane(image);
        host::HostSystem lhost(lane.array);
        db::MiniDb ldb(lane, lhost);
        ldb.attachTable("faulty", schema, t.rowCount());
        RunRecord fork = scan(lane, ldb);

        // The image carries the fault RNG mid-stream state, so the
        // fork replays the identical retry/correction pattern.
        expectSameRecord(serial, fork);
    }
}

}  // namespace
}  // namespace bisc
