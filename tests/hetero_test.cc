/**
 * @file
 * Unified workload-pipeline contracts (db/workloads.h,
 * db/session.h — PlannerConfig::use_unified_pipelines):
 *
 *  1. Property, 24 seeds x {1, 2, 4} drives: grep and word-count
 *     results through the unified stage-DAG path are byte-identical
 *     to the legacy drivers, compared like-for-like per site — a
 *     forced-host unified grep against host::grepConv, a
 *     forced-device one against host::grepBiscuitResident, and word
 *     counts against host::wordCount on either site.
 *  2. Gate closed (use_unified_pipelines=false), the session
 *     machinery is dead code: an attached PlacementSession changes
 *     nothing — notes, rows and simulated ticks are identical to a
 *     session-free system.
 *  3. Session joint planning is deterministic and occupancy-aware:
 *     two identical systems produce identical joint plans, and an
 *     admitted query's projected device occupancy is visible in
 *     effectiveLoads to everyone but itself.
 *  4. Mid-flight re-planning honors the hysteresis (no drift, no
 *     re-plan; forced plans never re-plan) and reproduces exactly
 *     across identical runs.
 *  5. A lane forked from a frozen device image reproduces the
 *     primary's admit -> drift -> re-plan -> run sequence exactly —
 *     including under LaneRunner threads (the TSan target).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/costmodel.h"
#include "db/executor.h"
#include "db/expr.h"
#include "db/lane_suite.h"
#include "db/minidb.h"
#include "db/placer.h"
#include "db/session.h"
#include "db/table.h"
#include "db/types.h"
#include "db/workloads.h"
#include "host/grep.h"
#include "host/host_system.h"
#include "host/lane_runner.h"
#include "host/load_gen.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace bisc::db {
namespace {

constexpr const char *kLogPath = "/data/hetero/web.log";
constexpr const char *kNeedle = "heisenbug";

/** A fresh unified-pipeline system with one identical web-log corpus
 *  per drive (population-time writes, zero simulated time). */
struct HeteroSystem
{
    sisc::Env env;
    host::HostSystem host;
    MiniDb db;
    std::uint64_t planted = 0;  ///< needles per drive

    explicit HeteroSystem(std::uint32_t drives = 2,
                          Bytes log_bytes = 192_KiB,
                          std::uint64_t log_seed = 20160618)
        : env(ssd::testConfig(), drives), host(env.array),
          db(env, host)
    {
        db.planner.use_stats = true;
        db.planner.use_cost_model = true;
        db.planner.use_pipeline = true;
        db.planner.use_unified_pipelines = true;
        db.planner.place_seed = 0x4e7e5eedull;
        for (std::uint32_t d = 0; d < drives; ++d) {
            host::installGrepModule(host.fsOf(d));
            planted = host::generateWebLog(host.fsOf(d), kLogPath,
                                           log_bytes, kNeedle, 53,
                                           log_seed);
        }
    }
};

WorkloadSpec
grepSpec(std::uint32_t drive, PlaceForce force)
{
    WorkloadSpec s;
    s.kind = WorkloadKind::Grep;
    s.drive = drive;
    s.path = kLogPath;
    s.pattern = kNeedle;
    s.force = force;
    return s;
}

WorkloadSpec
wcSpec(std::uint32_t drive, PlaceForce force)
{
    WorkloadSpec s;
    s.kind = WorkloadKind::WordCount;
    s.drive = drive;
    s.path = kLogPath;
    s.force = force;
    return s;
}

TEST(HeteroProperty, WorkloadsByteIdenticalLegacyVsUnified)
{
    constexpr std::uint64_t kSeeds = 24;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng rng(0x4e7e0000 + seed);
        const std::uint32_t drives = 1u << rng.below(3);  // 1, 2, 4
        const Bytes log_bytes = 64_KiB * (1 + rng.below(3));
        const std::uint32_t drive = rng.below(drives);

        HeteroSystem s(drives, log_bytes, 0x10c0 + seed);
        s.env.run([&] {
            // Like-for-like host site: the unified forced-host grep
            // must reproduce the legacy streaming scanner exactly.
            const host::GrepResult legacy_host =
                host::grepConv(s.host, drive, kLogPath, kNeedle);
            const WorkloadOutcome uni_host = runWorkload(
                s.db, grepSpec(drive, PlaceForce::AllHost));
            EXPECT_EQ(uni_host.grep.matches, legacy_host.matches)
                << "seed " << seed;
            EXPECT_EQ(uni_host.grep.bytes_scanned,
                      legacy_host.bytes_scanned)
                << "seed " << seed;
            EXPECT_GE(legacy_host.matches, s.planted)
                << "seed " << seed;

            // Like-for-like device site: the unified forced-device
            // grep must reproduce the resident SSDlet exactly.
            warmGrepModules(s.db);
            const host::GrepResult legacy_dev =
                host::grepBiscuitResident(
                    s.env.array.drive(drive).runtime,
                    s.db.grep_drive_modules[drive], kLogPath,
                    kNeedle);
            const WorkloadOutcome uni_dev = runWorkload(
                s.db, grepSpec(drive, PlaceForce::AllDevice));
            EXPECT_EQ(uni_dev.grep.matches, legacy_dev.matches)
                << "seed " << seed;
            EXPECT_EQ(uni_dev.grep.bytes_scanned,
                      legacy_dev.bytes_scanned)
                << "seed " << seed;

            // Word counts run the same whitespace state machine on
            // either site: words and lines identical to the legacy
            // host driver from both.
            const host::WordCountResult legacy_wc =
                host::wordCount(s.host, drive, kLogPath);
            const WorkloadOutcome wc_host = runWorkload(
                s.db, wcSpec(drive, PlaceForce::AllHost));
            const WorkloadOutcome wc_dev = runWorkload(
                s.db, wcSpec(drive, PlaceForce::AllDevice));
            EXPECT_EQ(wc_host.wc.words, legacy_wc.words)
                << "seed " << seed;
            EXPECT_EQ(wc_host.wc.lines, legacy_wc.lines)
                << "seed " << seed;
            EXPECT_EQ(wc_dev.wc.words, legacy_wc.words)
                << "seed " << seed;
            EXPECT_EQ(wc_dev.wc.lines, legacy_wc.lines)
                << "seed " << seed;
            EXPECT_EQ(wc_dev.wc.bytes_scanned,
                      legacy_wc.bytes_scanned)
                << "seed " << seed;
        });
    }
}

TEST(HeteroProperty, AutoPlacementPreservesResults)
{
    // The annealer's free choice may land either site; whatever it
    // picks, results equal the forced-host reference.
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        HeteroSystem s(drives);
        s.env.run([&] {
            const WorkloadOutcome ref = runWorkload(
                s.db, wcSpec(0, PlaceForce::AllHost));
            const WorkloadOutcome wc =
                runWorkload(s.db, wcSpec(0, PlaceForce::Auto));
            EXPECT_EQ(wc.wc.words, ref.wc.words)
                << "drives " << drives;
            EXPECT_EQ(wc.wc.lines, ref.wc.lines)
                << "drives " << drives;
            ASSERT_TRUE(wc.plan.valid);
            EXPECT_FALSE(wc.note.empty());

            const WorkloadOutcome g =
                runWorkload(s.db, grepSpec(0, PlaceForce::Auto));
            EXPECT_GE(g.grep.matches, s.planted)
                << "drives " << drives;
        });
    }
}

// ----- gate-closed identity -----

Schema
eventsSchema()
{
    return Schema({col("id", Type::Int64), col("day", Type::Date),
                   col("qty", Type::Double),
                   col("tag", Type::String, 10)});
}

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

struct ScanRecord
{
    std::vector<Row> rows;
    std::string note;
    Tick elapsed = 0;
    std::uint32_t admitted = 0;  ///< session queries after the scan
    std::uint32_t live = 0;      ///< of those, not yet released
};

/** Pipeline-placing system with the events table; gate per @p flag. */
struct GateSystem
{
    sisc::Env env;
    host::HostSystem host;
    MiniDb db;

    explicit GateSystem(bool unified)
        : env(ssd::testConfig(), 2), host(env.array), db(env, host)
    {
        db.planner.min_table_bytes = 8_KiB;
        db.planner.sample_pages = 8;
        db.planner.use_stats = true;
        db.planner.use_cost_model = true;
        db.planner.use_pipeline = true;
        db.planner.use_unified_pipelines = unified;
        db.planner.place_seed = 0xfeedull;
        auto &t = db.createShardedTable("events", eventsSchema());
        t.loadRows(eventRows(7, 6000));
    }

    ScanRecord
    scan(bool with_session)
    {
        ScanRecord r;
        env.run([&] {
            std::unique_ptr<PlacementSession> session;
            if (with_session)
                session = std::make_unique<PlacementSession>(db);
            auto pred = between(eventsSchema(), "day",
                                std::string("1995-03-01"),
                                std::string("1995-04-15"));
            DbStats stats;
            const Tick t0 = env.kernel.now();
            ScanOutcome out =
                scanTable(db, db.table("events"), pred,
                          EngineMode::Biscuit, stats);
            r.elapsed = env.kernel.now() - t0;
            r.rows = std::move(out.rows);
            r.note = out.note;
            if (session) {
                r.admitted = session->admitted();
                r.live = session->live();
            }
        });
        return r;
    }
};

TEST(HeteroGate, GateClosedSessionIsDeadCode)
{
    // Gate closed: an attached session must change nothing — not the
    // note, not the rows, not a single simulated tick.
    GateSystem plain(false);
    GateSystem attached(false);
    ScanRecord rp = plain.scan(false);
    ScanRecord ra = attached.scan(true);
    ASSERT_FALSE(rp.rows.empty());
    EXPECT_EQ(ra.rows, rp.rows);
    EXPECT_EQ(ra.note, rp.note);
    EXPECT_EQ(ra.elapsed, rp.elapsed);
    EXPECT_NE(rp.note.find("pipeline placed"), std::string::npos)
        << rp.note;
    EXPECT_EQ(rp.note.find("session"), std::string::npos) << rp.note;

    // Gate open with a session: same rows, now planned through it.
    GateSystem unified(true);
    ScanRecord ru = unified.scan(true);
    EXPECT_EQ(ru.rows, rp.rows);
    EXPECT_NE(ru.note.find("session pipeline placed"),
              std::string::npos)
        << ru.note;
    // The scan was admitted and released when it drained.
    EXPECT_EQ(ru.admitted, 1u);
    EXPECT_EQ(ru.live, 0u);

    // A forced plan goes through the session too, and is released.
    GateSystem forced(true);
    forced.db.planner.place_force = PlaceForce::AllDevice;
    ScanRecord rf = forced.scan(true);
    EXPECT_EQ(rf.rows, rp.rows);
    EXPECT_EQ(rf.admitted, 1u);
    EXPECT_EQ(rf.live, 0u);
}

// ----- session joint planning -----

struct JointRecord
{
    std::vector<std::string> placements;
    std::vector<Tick> predicted;
    std::uint32_t admitted = 0;
};

JointRecord
jointScenario(HeteroSystem &s)
{
    JointRecord r;
    s.env.run([&] {
        PlacementSession session(s.db);
        std::vector<int> qids;
        qids.push_back(
            admitWorkload(s.db, grepSpec(0, PlaceForce::Auto)));
        qids.push_back(
            admitWorkload(s.db, grepSpec(1, PlaceForce::Auto)));
        qids.push_back(
            admitWorkload(s.db, wcSpec(0, PlaceForce::Auto)));
        session.planJointly();
        for (int qid : qids) {
            const PlacementPlan &p = session.plan(qid);
            EXPECT_TRUE(p.valid);
            r.placements.push_back(p.describe());
            r.predicted.push_back(p.predicted);
        }
        r.admitted = session.admitted();
        for (int qid : qids)
            session.release(qid);

        // Workloads run with the session attached — planned freely
        // or forced — are admitted and released when they drain.
        runWorkload(s.db, grepSpec(0, PlaceForce::Auto));
        runWorkload(s.db, wcSpec(1, PlaceForce::Auto));
        runWorkload(s.db, grepSpec(1, PlaceForce::AllDevice));
        EXPECT_EQ(session.admitted(), r.admitted + 3);
        EXPECT_EQ(session.live(), 0u);
    });
    return r;
}

TEST(HeteroSession, JointPlanningIsDeterministic)
{
    HeteroSystem a(2);
    HeteroSystem b(2);
    JointRecord ra = jointScenario(a);
    JointRecord rb = jointScenario(b);
    EXPECT_EQ(ra.placements, rb.placements);
    EXPECT_EQ(ra.predicted, rb.predicted);
    EXPECT_EQ(ra.admitted, 3u);
    EXPECT_EQ(rb.admitted, 3u);
}

TEST(HeteroSession, OccupancyVisibleToOthersNotSelf)
{
    HeteroSystem s(2);
    s.env.run([&] {
        PlacementSession session(s.db);
        const int q0 =
            admitWorkload(s.db, grepSpec(0, PlaceForce::AllDevice));
        ASSERT_TRUE(session.plan(q0).valid);
        ASSERT_FALSE(session.plan(q0).sites[0].on_host);
        const std::uint32_t d = session.plan(q0).sites[0].drive;

        // Everyone else prices q0's app slot on its drive; q0's own
        // view excludes it.
        const auto all = session.effectiveLoads(-1);
        const auto mine = session.effectiveLoads(q0);
        EXPECT_EQ(all[d].active_apps, mine[d].active_apps + 1);
        EXPECT_GE(all[d].min_core_backlog, mine[d].min_core_backlog);

        session.release(q0);
        const auto drained = session.effectiveLoads(-1);
        EXPECT_EQ(drained[d].active_apps, mine[d].active_apps);
        EXPECT_EQ(session.live(), 0u);
    });

    // A TPC-H join query under all four gates admits its scans and
    // its join prefilter to the session; every one is released by
    // the time the query returns.
    sisc::Env env(ssd::defaultConfig(), 2);
    host::HostSystem host(env.array);
    MiniDb db(env, host);
    db.planner.min_table_bytes = 128_KiB;
    db.planner.use_stats = true;
    db.planner.use_cost_model = true;
    db.planner.use_pipeline = true;
    db.planner.use_unified_pipelines = true;
    db.planner.place_seed = 0x4e7e5eedull;
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.005;
    tpch::buildTpch(db, cfg);
    env.run([&] {
        PlacementSession session(db);
        const tpch::QueryOutcome q14 =
            tpch::runQuery(14, db, EngineMode::Biscuit);
        EXPECT_FALSE(q14.rows.empty());
        EXPECT_GE(session.admitted(), 2u);
        EXPECT_EQ(session.live(), 0u);
    });
}

// ----- mid-flight re-planning -----

struct ReplanRecord
{
    bool premature = true;   ///< replan before any drift
    bool forced = true;      ///< replan of a forced plan
    bool moved = false;      ///< replan after drift moved a site
    std::uint32_t replans = 0;
    std::string final_placement;
    std::uint64_t matches = 0;
    Tick end_tick = 0;
};

/** Admit a grep, let a co-tenant fleet pile onto its drive, then hit
 *  the launch checkpoint. @p s is a HeteroSystem or a db::Fork of
 *  one. */
template <typename System>
ReplanRecord
replanScenario(System &s)
{
    ReplanRecord r;
    s.env.run([&] {
        warmGrepModules(s.db);
        PlacementSession session(s.db);

        // A forced plan never re-plans, drift or not.
        const int forced =
            admitWorkload(s.db, grepSpec(0, PlaceForce::AllDevice));

        const int qid =
            admitWorkload(s.db, grepSpec(0, PlaceForce::Auto));
        // No drift yet: the hysteresis must hold the plan steady.
        r.premature = session.maybeReplan(qid);

        std::vector<sim::FiberId> tenants;
        for (int i = 0; i < 8; ++i) {
            tenants.push_back(s.env.kernel.spawn(
                "cotenant" + std::to_string(i), [&] {
                    host::grepBiscuitResident(
                        s.env.array.drive(0).runtime,
                        s.db.grep_drive_modules[0], kLogPath,
                        kNeedle);
                }));
        }
        s.env.kernel.sleep(Tick{500000});

        r.forced = session.maybeReplan(forced);
        r.moved = session.maybeReplan(qid);
        r.replans = session.replans();
        r.final_placement = session.plan(qid).describe();

        const WorkloadOutcome out = runPlannedWorkload(
            s.db, grepSpec(0, PlaceForce::Auto), qid);
        r.matches = out.grep.matches;
        session.release(forced);
        for (sim::FiberId f : tenants)
            s.env.kernel.join(f);
        r.end_tick = s.env.kernel.now();
    });
    return r;
}

TEST(HeteroReplan, HysteresisAndDeterminism)
{
    HeteroSystem a(2);
    HeteroSystem b(2);
    ReplanRecord ra = replanScenario(a);
    ReplanRecord rb = replanScenario(b);

    EXPECT_FALSE(ra.premature);
    EXPECT_FALSE(ra.forced);

    // Bit-for-bit reproduction: same decision, same final sites, same
    // result, same clock.
    EXPECT_EQ(ra.premature, rb.premature);
    EXPECT_EQ(ra.moved, rb.moved);
    EXPECT_EQ(ra.replans, rb.replans);
    EXPECT_EQ(ra.final_placement, rb.final_placement);
    EXPECT_EQ(ra.matches, rb.matches);
    EXPECT_EQ(ra.end_tick, rb.end_tick);
}

TEST(HeteroLane, ForkedLaneReproducesReplanSequence)
{
    constexpr std::uint32_t kDrives = 2;
    HeteroSystem primary(kDrives);
    const Catalog cat = captureCatalog(primary.db);
    const sim::DeviceImage image =
        sisc::freezeDeviceImage(primary.env);

    ReplanRecord ref = replanScenario(primary);

    // Two lanes on real threads (the TSan target): each forks the
    // frozen image and must replay admit -> drift -> re-plan -> run
    // on the identical clock.
    host::LaneRunner runner(2);
    std::vector<ReplanRecord> lanes(2);
    runner.run(2, [&](std::size_t i) {
        // The corpus pages are already in the image; the lane replays
        // the identical scenario over them.
        Fork lane(image, cat);
        lanes[i] = replanScenario(lane);
    });

    for (const ReplanRecord &lane : lanes) {
        EXPECT_EQ(lane.premature, ref.premature);
        EXPECT_EQ(lane.forced, ref.forced);
        EXPECT_EQ(lane.moved, ref.moved);
        EXPECT_EQ(lane.replans, ref.replans);
        EXPECT_EQ(lane.final_placement, ref.final_placement);
        EXPECT_EQ(lane.matches, ref.matches);
        EXPECT_EQ(lane.end_tick, ref.end_tick);
    }
}

}  // namespace
}  // namespace bisc::db
