/**
 * @file
 * Deterministic parallel execution of a MiniDB benchmark suite.
 *
 * A suite is an ordered list of jobs, each an independent simulation
 * over the same populated, read-mostly database (e.g. one (query,
 * mode) pair of Fig. 10, or one repetition of a Fig. 8 filter). Run
 * serially, the jobs share exactly two pieces of mutable engine
 * state: the sampled-selectivity statistics cache (one timed sampling
 * per (table, key-set), then cached) and the lazily loaded "minidb"
 * SSDlet module (one timed load, then resident). runLaneSuite()
 * executes the jobs on parallel lanes — each a fresh Env forked from
 * a frozen device image — while reproducing, per job, the view of
 * that shared state the serial run would have had, so every recorded
 * result is bit-identical to the serial run's.
 *
 * The protocol: a first wave runs all
 * jobs warm-loaded over an empty cache and records what each job
 * sampled; an audit against the canonical order finds the few
 * history-coupled jobs (the first sampler, which serially pays the
 * module load, and any job re-sampling a key an earlier job owns); a
 * second wave re-runs just those with the serial run's exact state
 * preseeded. Correctness rests on timing translation-invariance:
 * simulated work is scheduled at max(now, resource busy time), so a
 * job's measured kernel-clock delta is independent of warm-up work
 * done before its measurement window opens.
 */

#ifndef BISCUIT_DB_LANE_SUITE_H_
#define BISCUIT_DB_LANE_SUITE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "host/host_system.h"
#include "sisc/device_image.h"
#include "sisc/env.h"

namespace bisc::db {

/**
 * Everything a fork needs to rebuild a MiniDb over a frozen device
 * image: the planner and host configs and the table bookkeeping
 * (schemas, row counts, shard counts); the data pages are in the
 * image.
 */
struct Catalog
{
    PlannerConfig planner;
    host::HostConfig host;

    struct TableMeta
    {
        std::string name;
        Schema schema;
        std::uint64_t rows = 0;
        std::uint32_t shards = 1;
    };

    std::vector<TableMeta> tables;
};

/** The catalog of @p db as it stands now. */
Catalog captureCatalog(MiniDb &db);

/**
 * A MiniDb forked from a frozen device image: a fresh Env over the
 * image, a HostSystem with the primary's HostConfig, and a MiniDb with
 * the primary's planner, every catalog table attached and the table
 * statistics frozen with the image (exportTableStats) adopted, so the
 * fork prunes, estimates and times exactly like the primary.
 */
struct Fork
{
    Fork(const sim::DeviceImage &image, const Catalog &cat);

    sisc::Env env;
    host::HostSystem host;
    MiniDb db;
};

/** One independent simulation of the suite. */
struct LaneSuiteJob
{
    /**
     * The job body, called from the host fiber of either the primary
     * environment (serial path) or a forked lane. It must be
     * re-runnable (a re-run overwrites any result slots it writes)
     * and must do its own elapsed-time measurement as kernel-clock
     * deltas. It must not print.
     */
    std::function<void(MiniDb &)> body;

    /**
     * True for jobs that may consult the offload planner (Biscuit
     * engine mode): they read/advance the shared statistics cache and
     * module state, and lanes warm-load the module for them. Jobs
     * that only ever run the conventional path leave this false.
     */
    bool planner_coupled = false;
};

/**
 * Execute @p jobs over @p db's populated data. With @p lanes <= 1
 * they run in @p db itself, serially in canonical (index) order — the
 * exact legacy path. With more lanes, @p env's device is frozen into
 * an image and the jobs run concurrently on forked lanes, with
 * results bit-identical to the serial path.
 */
void runLaneSuite(sisc::Env &env, MiniDb &db,
                  const std::vector<LaneSuiteJob> &jobs,
                  unsigned lanes);

}  // namespace bisc::db

#endif  // BISCUIT_DB_LANE_SUITE_H_
