#include "db/lane_suite.h"

#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "db/executor.h"
#include "db/stats.h"
#include "host/lane_runner.h"
#include "obs/obs.h"

namespace bisc::db {

Catalog
captureCatalog(MiniDb &db)
{
    Catalog cat;
    cat.planner = db.planner;
    cat.host = db.host().config();
    for (const auto &name : db.tableNames()) {
        Table &t = db.table(name);
        cat.tables.push_back(
            {name, t.schema(), t.rowCount(), t.shardCount()});
    }
    return cat;
}

Fork::Fork(const sim::DeviceImage &image, const Catalog &cat)
    : env(image), host(env.array, cat.host), db(env, host)
{
    db.planner = cat.planner;
    for (const auto &t : cat.tables)
        db.attachShardedTable(t.name, t.schema, t.rows, t.shards);
    // Table statistics are frozen with the image (attach constructors
    // never rebuild them).
    adoptTableStats(db, image);
}

namespace {

/** Shared-state view a lane starts from (see header). */
struct LaneSetup
{
    /** Load the minidb module before the job's measurement window. */
    bool preload_module = true;

    /** Statistics entries the serial run would already have. */
    std::map<std::string, double> preseed_stats;
};

/**
 * Run one job on a fresh lane forked from @p image; returns the
 * statistics entries the run created beyond the preseed.
 */
std::map<std::string, double>
runLane(const sim::DeviceImage &image, const Catalog &cat,
        const LaneSuiteJob &job, const LaneSetup &setup,
        const std::string &lane_label)
{
    // The lane's trace stream is keyed by job identity, not by which
    // worker thread happened to pick it up — that keeps multi-lane
    // trace exports deterministic run to run.
    obs::LaneLabelGuard label_guard(lane_label);
    Fork lane(image, cat);
    MiniDb &ldb = lane.db;
    ldb.selectivity_stats = setup.preseed_stats;

    lane.env.run([&] {
        // Warm-up happens before the job opens its measurement
        // window; translation invariance makes the measured deltas
        // independent of the clock time spent here.
        if (job.planner_coupled && setup.preload_module)
            warmMinidbModule(ldb);
        job.body(ldb);
    });

    std::map<std::string, double> inserted;
    for (const auto &[key, value] : ldb.selectivity_stats) {
        if (setup.preseed_stats.count(key) == 0)
            inserted.emplace(key, value);
    }
    return inserted;
}

}  // namespace

void
runLaneSuite(sisc::Env &env, MiniDb &db,
             const std::vector<LaneSuiteJob> &jobs, unsigned lanes)
{
    if (lanes <= 1) {
        env.run([&] {
            for (const auto &job : jobs)
                job.body(db);
        });
        return;
    }

    const Catalog cat = captureCatalog(db);
    sim::DeviceImage image = sisc::freezeDeviceImage(env);
    exportTableStats(db, image);
    const std::size_t njobs = jobs.size();

    // Wave 1: every job warm-loaded over an empty statistics cache,
    // recording what it sampled.
    std::vector<std::map<std::string, double>> inserted(njobs);
    host::LaneRunner runner(lanes);
    runner.run(njobs, [&](std::size_t j) {
        inserted[j] = runLane(image, cat, jobs[j], LaneSetup{},
                              "job" + std::to_string(j));
    });

    // Audit against the serial prefix. `seen` accumulates the
    // statistics entries jobs before j would have published (first
    // canonical inserter's value wins; values are image-deterministic
    // so duplicate samplers agree). A job needs a re-run if it is the
    // first sampler (serially it pays the module load, which wave 1
    // hoisted out of its measurement) or if it sampled a key an
    // earlier job owns (serially it would hit the cache instead).
    std::map<std::string, double> seen;
    bool module_loaded = false;
    std::vector<std::pair<std::size_t, LaneSetup>> reruns;
    for (std::size_t j = 0; j < njobs; ++j) {
        const auto &ins = inserted[j];
        bool shares = false;
        for (const auto &[key, value] : ins) {
            if (seen.count(key) != 0) {
                shares = true;
                break;
            }
        }
        if (!ins.empty() && !module_loaded) {
            module_loaded = true;
            LaneSetup cold;
            cold.preload_module = false;
            reruns.emplace_back(j, std::move(cold));
        } else if (shares) {
            LaneSetup warm;
            warm.preseed_stats = seen;
            reruns.emplace_back(j, std::move(warm));
        }
        for (const auto &entry : ins)
            seen.emplace(entry);
    }

    // Wave 2: the handful of history-coupled jobs, re-run with the
    // serial run's exact view of the shared state.
    runner.run(reruns.size(), [&](std::size_t r) {
        const auto &[j, setup] = reruns[r];
        runLane(image, cat, jobs[j], setup,
                "job" + std::to_string(j) + ".rerun");
    });
}

}  // namespace bisc::db
