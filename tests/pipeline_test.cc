/**
 * @file
 * Multi-stage pipeline placement contracts (db/costmodel.h
 * stageDemand and predictPipeline, db/placer.h placePipeline and
 * replanPipeline, the chained shapes of the scan executor):
 *
 *  1. Property, 24 seeds of random pipeline graphs (scan -> re-check
 *     -> merge shapes) and drive loads including host streams and
 *     channel backlogs: the annealed plan honors per-drive core/DRAM
 *     budgets and colocation legality, and is never worse than its
 *     greedy seed or the all-host comparator. A mid-flight re-plan
 *     keeps launched stages in place and never prices worse than
 *     not moving. The same graphs with host-pinned re-checks (the
 *     cost-model planner's shape) keep every Transform on the host
 *     under the same bounds. The seed's graph and a second one
 *     admitted into one PlacementSession and planned jointly stay
 *     within the same budgets. Each family's plans are pinned in its
 *     own digest.
 *  2. A forced all-device chain admitted to a PlacementSession claims
 *     instance DRAM for every device stage, colocated or not.
 *  3. Gate closed (use_pipeline=false), re-checks never chain
 *     in-drive: decisions, notes and simulated ticks are identical
 *     across annealer runs and the note is the cost-model planner's.
 *  4. Rows are byte-identical across forced all-host, all-device and
 *     searched placements, at 1, 2 and 4 drives.
 *  5. A lane forked from a frozen device image reproduces the
 *     primary's pipeline decision exactly — including under
 *     LaneRunner threads (the TSan target).
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
#include "db/session.h"
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

/** FNV-1a fold of one plan's (sites, predicted, from_anneal) into @p h. */
std::uint64_t
foldPlan(std::uint64_t h, const PlacementPlan &plan)
{
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const Site &s : plan.sites)
        mix(s.on_host ? ~0ull : s.drive);
    mix(plan.predicted);
    mix(plan.from_anneal ? 1 : 0);
    return h;
}

/** What one pipelined scan decided and cost. */
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

/** A fresh pipeline-placing system with the events table loaded. */
struct PipeSystem
{
    sisc::Env env;
    host::HostSystem host;
    MiniDb db;

    explicit PipeSystem(std::uint32_t drives = 2)
        : env(ssd::testConfig(), drives), host(env.array),
          db(env, host)
    {
        db.planner.min_table_bytes = 8_KiB;
        db.planner.sample_pages = 8;
        db.planner.use_stats = true;
        db.planner.use_cost_model = true;
        db.planner.use_pipeline = true;
        db.planner.place_seed = 0xfeedull;
        auto &t = db.createShardedTable("events", eventsSchema());
        t.loadRows(eventRows(7, 20000));
    }
};

/** An idle array of @p drives drives with no tables: what a
 *  PlacementSession calibrates and snapshots when nothing runs. */
struct IdleArray
{
    sisc::Env env;
    host::HostSystem host;
    MiniDb db;

    explicit IdleArray(std::uint32_t drives)
        : env(ssd::testConfig(), drives), host(env.array),
          db(env, host)
    {}
};

/** A random scan -> re-check -> merge graph over @p drives shards. */
PipelineGraph
randomGraph(Rng &rng, std::uint32_t drives)
{
    PipelineGraph g;
    const std::uint32_t shards = 1 + rng.below(drives);
    for (std::uint32_t s = 0; s < shards; ++s) {
        StageSpec scan;
        scan.label = "scan.s" + std::to_string(s);
        scan.shard = s;
        scan.kind = StageKind::Scan;
        scan.pages = 1 + rng.below(2000);
        scan.page_bytes = 8192;
        scan.selectivity = rng.below(101) / 100.0;
        scan.eligible_drives = {s % drives};
        scan.dram = 256_KiB;
        g.stages.push_back(scan);
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
        StageSpec re;
        re.label = "recheck.s" + std::to_string(s);
        re.shard = s;
        re.kind = StageKind::Transform;
        re.page_bytes = 8192;
        re.cpu_ns_per_byte = 1.0 + rng.below(8);
        re.colocate_with = static_cast<int>(s);
        re.eligible_drives = {s % drives};
        re.dram = 256_KiB;
        g.stages.push_back(re);

        const Bytes streamed =
            g.stages[s].pages * g.stages[s].page_bytes;
        PipelineEdge e;
        e.from = s;
        e.to = shards + s;
        e.bytes = static_cast<Bytes>(
            static_cast<double>(streamed) *
            g.stages[s].selectivity);
        e.bytes_host = streamed;
        g.edges.push_back(e);
    }
    StageSpec merge;
    merge.label = "merge";
    merge.kind = StageKind::Merge;
    merge.cpu_ns_per_byte = 0.5;
    merge.eligible_drives = {};
    g.stages.push_back(merge);
    for (std::uint32_t s = 0; s < shards; ++s) {
        const Bytes matched = static_cast<Bytes>(
            static_cast<double>(g.stages[s].pages *
                                g.stages[s].page_bytes) *
            g.stages[s].selectivity / 8.0);
        PipelineEdge e;
        e.from = shards + s;
        e.to = 2 * shards;
        e.bytes = matched;
        e.bytes_host = matched;
        g.edges.push_back(e);
    }
    return g;
}

/**
 * Budgets and legality of @p plan over @p g: host sites only for
 * host-eligible stages, Merge never on a drive, a device Transform
 * chained in-drive only on its device-placed upstream's drive (the
 * colocated pair consumes one core slot), and per-drive core and
 * DRAM claims within the budgets.
 */
void
expectWithinBudgets(const PipelineGraph &g, const PlacementPlan &plan,
                    const std::vector<DriveLoadSnapshot> &loads,
                    const PlacerConfig &pc, std::uint64_t seed)
{
    const std::size_t drives = loads.size();
    ASSERT_EQ(plan.sites.size(), g.stages.size()) << "seed " << seed;
    std::vector<std::uint32_t> cores(drives, 0);
    std::vector<Bytes> dram(drives, 0);
    for (std::size_t s = 0; s < plan.sites.size(); ++s) {
        const Site &site = plan.sites[s];
        const StageSpec &spec = g.stages[s];
        if (site.on_host) {
            EXPECT_TRUE(spec.host_eligible) << "seed " << seed;
            continue;
        }
        ASSERT_LT(site.drive, drives) << "seed " << seed;
        EXPECT_NE(spec.kind, StageKind::Merge) << "seed " << seed;
        bool colocated = false;
        if (spec.kind == StageKind::Transform &&
            spec.colocate_with >= 0) {
            const Site &up =
                plan.sites[static_cast<std::size_t>(spec.colocate_with)];
            EXPECT_FALSE(up.on_host) << "seed " << seed;
            EXPECT_EQ(up.drive, site.drive) << "seed " << seed;
            colocated = true;
        }
        if (!colocated)
            ++cores[site.drive];
        dram[site.drive] += spec.dram;
    }
    for (std::size_t d = 0; d < drives; ++d) {
        EXPECT_LE(cores[d], pc.core_budget) << "seed " << seed;
        EXPECT_LE(dram[d], pc.dram_budget) << "seed " << seed;
        EXPECT_LE(dram[d], loads[d].user_mem_free) << "seed " << seed;
    }
}

TEST(PipelineProperty, AnnealRespectsBudgetsAndComparators)
{
    constexpr std::uint64_t kSeeds = 24;
    CostCalibration c;
    c.dev_ctrl_ns_per_page = 5300;
    c.stage_setup_ns = 160700;
    c.ship_dev_ns_per_page = 7775;
    c.chan_ns_per_byte = 1.667;
    c.channels = 8;
    c.device_cores = 2;
    c.dev_cpu_slowdown = 8.0;
    c.port_intra_ns_per_page = 3875;
    c.port_ns_per_page = 8488;
    c.h2d_host_ns_per_page = 4375;
    c.h2d_dev_ns_per_page = 33325;
    c.hil_ns_per_byte = 0.3125;
    c.host_io_ns_per_window = 6300;
    c.stream_window = 1_MiB;

    // Every seed's greedy, annealed and re-planned plan, pinned: a
    // refactor of the search must keep the exact RNG draw order.
    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t replan_digest = 1469598103934665603ull;
    std::uint64_t pinned_digest = 1469598103934665603ull;
    std::uint64_t session_digest = 1469598103934665603ull;
    std::uint32_t pinned_offloads = 0;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        Rng rng(0x91be11e0 + seed);
        const std::uint32_t drives = 1u << rng.below(3);  // 1, 2, 4

        std::vector<DriveLoadSnapshot> loads(drives);
        for (DriveLoadSnapshot &l : loads) {
            l.active_apps = rng.below(20);
            l.device_cores = 2;
            l.min_core_backlog = rng.below(500) * 1000;
            l.max_core_backlog =
                l.min_core_backlog + rng.below(100) * 1000;
            l.user_mem_free =
                rng.below(5) == 0 ? 64_KiB : Bytes{512_MiB};
            // The pipeline-era load signals: live host streams and a
            // committed channel backlog.
            l.host_streams = rng.below(4);
            l.chan_backlog = rng.below(400) * 1000;
        }

        const PipelineGraph g = randomGraph(rng, drives);

        PlacerConfig pc;
        pc.seed = 0xb15c0000 + seed;
        pc.core_budget = 2;
        pc.dram_budget = 512_MiB;

        PlacerConfig greedy_pc = pc;
        greedy_pc.anneal = false;
        PlacementPlan greedy = placePipeline(g, c, loads, greedy_pc);
        PlacementPlan annealed = placePipeline(g, c, loads, pc);
        PlacementPlan all_host =
            forcedPipelinePlan(g, c, loads, true);
        digest = foldPlan(foldPlan(digest, greedy), annealed);

        ASSERT_TRUE(greedy.valid) << "seed " << seed;
        ASSERT_TRUE(annealed.valid) << "seed " << seed;
        ASSERT_TRUE(all_host.valid) << "seed " << seed;
        ASSERT_EQ(annealed.sites.size(), g.stages.size());

        // Never worse than the greedy seed or the static comparator.
        EXPECT_LE(annealed.predicted, greedy.predicted)
            << "seed " << seed;
        EXPECT_LE(annealed.predicted, all_host.predicted)
            << "seed " << seed;

        expectWithinBudgets(g, annealed, loads, pc, seed);

        // Mid-flight re-plan of the static all-device plan against
        // drifted loads: launched stages keep their sites, and a
        // feasible result is never worse than leaving the unlaunched
        // stages where they were.
        const PlacementPlan current =
            forcedPipelinePlan(g, c, loads, false);
        std::vector<DriveLoadSnapshot> drifted = loads;
        for (DriveLoadSnapshot &l : drifted) {
            l.active_apps += rng.below(6);
            l.host_streams += rng.below(3);
        }
        std::vector<bool> launched(g.stages.size());
        for (std::size_t s = 0; s < launched.size(); ++s)
            launched[s] = rng.below(3) == 0;
        const PlacementPlan replanned =
            replanPipeline(g, c, drifted, pc, launched, current);
        replan_digest = foldPlan(replan_digest, replanned);
        if (replanned.valid) {
            for (std::size_t s = 0; s < launched.size(); ++s) {
                if (!launched[s])
                    continue;
                EXPECT_EQ(replanned.sites[s].on_host,
                          current.sites[s].on_host)
                    << "seed " << seed;
                EXPECT_EQ(replanned.sites[s].drive,
                          current.sites[s].drive)
                    << "seed " << seed;
            }
            StageDemand staying;
            stageDemand(g, current.sites, c, drifted.size(), staying);
            EXPECT_LE(replanned.predicted,
                      predictPipeline(staying, c, drifted))
                << "seed " << seed;
        }

        // The same graph as the cost-model planner builds it, every
        // re-check pinned to the host: no RNG draws, so the digests
        // above are untouched.
        PipelineGraph pinned = g;
        for (StageSpec &spec : pinned.stages) {
            if (spec.kind != StageKind::Transform)
                continue;
            spec.colocate_with = -1;
            spec.eligible_drives.clear();
        }
        PlacementPlan p_greedy =
            placePipeline(pinned, c, loads, greedy_pc);
        PlacementPlan p_annealed = placePipeline(pinned, c, loads, pc);
        PlacementPlan p_all_host =
            forcedPipelinePlan(pinned, c, loads, true);
        PlacementPlan p_all_device =
            forcedPipelinePlan(pinned, c, loads, false);
        pinned_digest =
            foldPlan(foldPlan(pinned_digest, p_greedy), p_annealed);

        ASSERT_TRUE(p_greedy.valid) << "seed " << seed;
        ASSERT_TRUE(p_annealed.valid) << "seed " << seed;
        EXPECT_LE(p_annealed.predicted, p_greedy.predicted)
            << "seed " << seed;
        EXPECT_LE(p_annealed.predicted, p_all_host.predicted)
            << "seed " << seed;
        expectWithinBudgets(pinned, p_annealed, loads, pc, seed);
        for (const PlacementPlan *plan :
             {&p_greedy, &p_annealed, &p_all_device}) {
            for (std::size_t s = 0; s < pinned.stages.size(); ++s) {
                if (pinned.stages[s].kind != StageKind::Transform)
                    continue;
                EXPECT_TRUE(plan->sites[s].on_host)
                    << "seed " << seed << " stage " << s;
            }
        }
        if (p_annealed.anyDevice())
            ++pinned_offloads;

        // The seed's graph and a second one admitted into one
        // PlacementSession over an idle array of the same drive
        // count, then refined jointly: each plan is priced against
        // the other's projected occupancy. The second graph draws
        // from its own stream, so the digests above are untouched.
        Rng second_rng(0x5e55a000 + seed);
        const PipelineGraph second = randomGraph(second_rng, drives);
        IdleArray array(drives);
        PlacementSession session(array.db);
        const int q0 = session.admit(g, pc);
        const int q1 = session.admit(second, pc);
        session.planJointly();
        ASSERT_TRUE(session.plan(q0).valid) << "seed " << seed;
        ASSERT_TRUE(session.plan(q1).valid) << "seed " << seed;
        expectWithinBudgets(g, session.plan(q0),
                            session.effectiveLoads(q0), pc, seed);
        expectWithinBudgets(second, session.plan(q1),
                            session.effectiveLoads(q1), pc, seed);
        session_digest = foldPlan(foldPlan(session_digest,
                                           session.plan(q0)),
                                  session.plan(q1));
    }
    // The pinned family still offloads scans somewhere.
    EXPECT_GT(pinned_offloads, 0u);
    EXPECT_EQ(digest, 0x72636993a420cf4full);
    EXPECT_EQ(replan_digest, 0x6168dda3e0e3627bull);
    EXPECT_EQ(pinned_digest, 0xdbed8151b5cb9c0full);
    EXPECT_EQ(session_digest, 0xcb9083c5e7d013e2ull);
}

TEST(PipelineProperty, ForcedChainClaimsEveryInstanceDram)
{
    // A forced all-device chained graph: every re-check rides in its
    // scan's application, yet the runtime allocates instance DRAM for
    // each SSDlet. Co-admitted queries must see every claim.
    constexpr std::uint32_t kDrives = 2;
    Rng rng(0xd7a3);
    const PipelineGraph g = randomGraph(rng, kDrives);
    IdleArray array(kDrives);
    PlacementSession session(array.db);
    const int qid =
        session.admit(g, PlacerConfig{}, PlaceForce::AllDevice);
    const PlacementPlan &plan = session.plan(qid);
    ASSERT_TRUE(plan.valid);

    std::vector<Bytes> claimed(kDrives, 0);
    std::uint32_t riders = 0;
    for (std::size_t s = 0; s < g.stages.size(); ++s) {
        if (plan.sites[s].on_host)
            continue;
        claimed[plan.sites[s].drive] += g.stages[s].dram;
        riders += g.stages[s].colocate_with >= 0 ? 1 : 0;
    }
    EXPECT_GT(riders, 0u);

    const std::vector<DriveLoadSnapshot> all = session.effectiveLoads(-1);
    const std::vector<DriveLoadSnapshot> others =
        session.effectiveLoads(qid);
    for (std::uint32_t d = 0; d < kDrives; ++d) {
        EXPECT_EQ(others[d].user_mem_free - all[d].user_mem_free,
                  claimed[d])
            << "drive " << d;
    }
}

TEST(PipelineGate, GateClosedLeavesTimingIdentical)
{
    auto pred = between(eventsSchema(), "day",
                        std::string("1995-03-01"),
                        std::string("1995-04-15"));

    // Gate closed: every re-check is pinned to the host, so three
    // identical systems make identical cost-model decisions, notes
    // and simulated ticks.
    PipeSystem a;
    a.db.planner.use_pipeline = false;
    a.db.planner.place_seed = 1;
    PipeSystem b;
    b.db.planner.use_pipeline = false;
    b.db.planner.place_seed = 1;
    PipeSystem legacy;
    legacy.db.planner.use_pipeline = false;
    legacy.db.planner.place_seed = 1;

    ScanRecord ra = scanOnce(a.env, a.db, pred);
    ScanRecord rb = scanOnce(b.env, b.db, pred);
    ScanRecord rl = scanOnce(legacy.env, legacy.db, pred);
    ASSERT_FALSE(ra.rows.empty());
    EXPECT_EQ(ra.rows, rb.rows);
    EXPECT_EQ(ra.note, rb.note);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.note, rl.note);
    EXPECT_EQ(ra.elapsed, rl.elapsed);
    EXPECT_NE(ra.note.find("cost model placed"), std::string::npos)
        << ra.note;

    // Gate open: same rows, now planned as a stage DAG.
    PipeSystem g;
    ScanRecord rg = scanOnce(g.env, g.db, pred);
    EXPECT_EQ(rg.rows, ra.rows);
    EXPECT_FALSE(rg.placement.empty());
    EXPECT_NE(rg.note.find("pipeline placed"), std::string::npos)
        << rg.note;
}

TEST(PipelineRows, IdenticalAcrossPlacementsAndDriveCounts)
{
    auto pred = between(eventsSchema(), "day",
                        std::string("1995-03-01"),
                        std::string("1995-04-15"));

    std::vector<Row> reference;
    bool have_reference = false;
    for (std::uint32_t drives : {1u, 2u, 4u}) {
        for (PlaceForce force :
             {PlaceForce::Auto, PlaceForce::AllHost,
              PlaceForce::AllDevice}) {
            PipeSystem s(drives);
            s.db.planner.place_force = force;
            ScanRecord r = scanOnce(s.env, s.db, pred);
            ASSERT_FALSE(r.rows.empty())
                << "drives " << drives << " force "
                << static_cast<int>(force);
            if (!have_reference) {
                reference = r.rows;
                have_reference = true;
                continue;
            }
            EXPECT_EQ(r.rows, reference)
                << "drives " << drives << " force "
                << static_cast<int>(force);
        }
    }
}

TEST(PipelineLane, ForkedLaneReproducesPipelinePlacement)
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
    db.planner.use_pipeline = true;
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
    ASSERT_NE(primary.note.find("pipeline placed"),
              std::string::npos)
        << primary.note;

    // Two lanes on real threads (the TSan target): each forks the
    // frozen image, adopts the primary's statistics, and must make
    // the identical pipeline decision on the identical clock.
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
