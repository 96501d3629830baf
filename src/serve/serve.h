/**
 * @file
 * The open-loop multi-client serving tier (ROADMAP: "open-loop
 * multi-client workload driver with admission control").
 *
 * N simulated clients submit an interleaved mix of TPC-H queries
 * (NDP offload spanning every drive), point lookups (host pread of
 * one page), grep offloads (resident SSDlet on one drive) and
 * host-side word counts against one shared sisc::DriveArray. Arrivals
 * are *open loop*: each client draws inter-arrival gaps from its own
 * seeded integer RNG stream on the sim clock and submits on schedule
 * whether or not earlier jobs finished — the service discipline the
 * tail-latency literature measures, as opposed to closed-loop drivers
 * whose arrival process secretly adapts to the system under test.
 *
 * Offloads pass through serve::AdmissionController (weighted-fair
 * tenant queues over device core/DRAM budgets, typed rejects); host
 * path jobs contend only for the host CPU. Every job's exact
 * submit-to-completion latency is sampled per tenant, reported as
 * nearest-rank p50/p99/p999 (integer math, no libm), and mirrored
 * into obs::MetricsRegistry under "serve.tenant<k>." names
 * (OBSERVABILITY.md).
 *
 * Determinism is load-bearing: for a fixed (seed, clients, drives)
 * tuple the event log, metric snapshot and every latency figure are
 * byte-identical run to run, across simulation lanes forked from a
 * frozen device image, and — for the drive-count-invariant aggregates
 * (result rows, grep matches, word counts) — across drive counts.
 * tests/serve_test.cc enforces all three.
 */

#ifndef BISCUIT_SERVE_SERVE_H_
#define BISCUIT_SERVE_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/minidb.h"
#include "db/types.h"
#include "serve/admission.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "util/common.h"

namespace bisc::serve {

struct ServeConfig
{
    /** Simulated clients; client c belongs to tenant c % tenants. */
    std::uint32_t clients = 8;

    /** Jobs each client submits before going quiet. */
    std::uint32_t jobs_per_client = 6;

    /** Master seed: arrival and job-mix streams derive from it. */
    std::uint64_t seed = 20160618;

    /**
     * Mean inter-arrival gap per client, ns. Gaps are drawn uniformly
     * from [mean/2, 3*mean/2) in integer ticks.
     */
    Tick mean_interarrival = 2 * kMsec;

    /** Tenants (weights drive the fair queues); defaultTenants() if
     *  empty. */
    std::vector<TenantConfig> tenants;

    /**
     * Serving keeps the per-tenant queue short by default: beyond 3
     * waiting offloads a tenant's next request is turned away with a
     * typed reject rather than left to blow through its SLO in queue.
     */
    AdmissionConfig admission{.max_queue_depth = 3};

    /** TPC-H queries the analytics jobs draw from. */
    std::vector<int> tpch_queries = {1, 6, 14};

    /** TPC-H scale factor of the served dataset. */
    double tpch_scale = 0.005;

    /** Web-log corpus size per drive (grep/wordcount target). */
    Bytes weblog_bytes = 2_MiB;

    /** Needle planted in the web logs (grep pattern). */
    std::string grep_needle = "heisenbug";

    /**
     * Route point lookups through the keyed path
     * (db::pointLookupByKey on o_orderkey) instead of the row-index
     * pread: zone maps skip the page runs that cannot hold the key.
     * Off by default — the fig_serve golden predates statistics.
     */
    bool keyed_lookups = false;

    /**
     * Placement-aware grep routing: send each grep job to the least
     * loaded drive (db::leastLoadedDrive over the array's core
     * busy-until horizons) instead of the job's pre-drawn drive.
     * Result-safe because every drive carries an identical corpus.
     * Off by default — the fig_serve golden predates placement.
     */
    bool placed_greps = false;

    /**
     * Route tenant TPC-H scans through multi-stage pipeline
     * placement (db::PlannerConfig::use_pipeline plus its
     * use_stats / use_cost_model prerequisites): the planner prices
     * the scan -> re-check -> merge DAG against live drive loads and
     * may chain both scan stages in-drive. Result-safe — the placed
     * row output is byte-identical to every other path. Off by
     * default — the fig_serve golden predates pipeline placement.
     */
    bool pipelined_scans = false;

    /**
     * Unified workload pipelines (implies pipelined_scans and its
     * prerequisites): grep and word-count jobs run as placeable stage
     * DAGs (db/workloads.h) instead of hard-wired device/host calls,
     * all four job kinds plan through one shared db::PlacementSession
     * (TPC-H scans and joins admit their DAGs, point lookups admit a
     * degenerate host-only stage so their host work is priced), and
     * in-flight plans may re-place unlaunched stages when co-tenant
     * load drifts. Result aggregates stay byte-identical — both grep
     * sites and both word-count sites delegate to the legacy leaf
     * scanners. Off by default — the fig_serve golden predates
     * unification.
     */
    bool unified_pipelines = false;
};

/** The default 4-tenant mix: weights 4/2/2/1. */
std::vector<TenantConfig> defaultTenants();

/**
 * ServeConfig from the environment: BISCUIT_CLIENTS overrides
 * clients, BISCUIT_SERVE_SEED overrides seed (decimal). Invalid or
 * unset values keep the defaults.
 */
ServeConfig serveConfigFromEnv();

/**
 * Everything a forked lane needs to rebuild the served MiniDb over a
 * frozen device image: table bookkeeping (the pages are in the
 * image), planner/host configs and the web-log location.
 */
struct ServeCatalog
{
    db::PlannerConfig planner;
    host::HostConfig host;

    struct TableMeta
    {
        std::string name;
        db::Schema schema;
        std::uint64_t rows = 0;
        std::uint32_t shards = 1;
    };

    std::vector<TableMeta> tables;
    std::string log_path;
    std::uint64_t log_matches = 0;  ///< planted needles, per drive
};

/** Per-tenant serving outcome (exact-sample percentiles, sim ns). */
struct TenantReport
{
    std::string name;
    std::uint32_t weight = 1;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;  ///< typed admission rejects
    Tick p50 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max = 0;
};

struct ServeReport
{
    std::vector<TenantReport> tenants;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;

    // Drive-count-invariant workload aggregates (cross-topology
    // identity checks): TPC-H result rows, sum of looked-up order
    // keys, grep match and word counts.
    std::uint64_t tpch_rows = 0;
    std::uint64_t lookup_sum = 0;
    std::uint64_t grep_matches = 0;
    std::uint64_t wordcount_words = 0;

    Tick makespan = 0;       ///< first submit to last completion
    double fairness = 1.0;   ///< Jain index over completed/weight

    std::string event_log;        ///< one line per serving event
    std::uint64_t event_hash = 0; ///< FNV-1a of event_log
    std::string metrics_snapshot; ///< snapshotString(reg, "serve.")
};

/**
 * Lay the served dataset out at simulated tick zero (offline, like
 * every other population step): first map @p cfg's planner flags onto
 * db.planner, then TPC-H tables at cfg.tpch_scale
 * (sharded across the array), one identical web-log corpus per drive
 * (same generation seed, so grep/wordcount results are
 * drive-placement-invariant) and the grep .slet file. Returns the
 * catalog a forked lane rebuilds from.
 */
ServeCatalog populateServeData(host::HostSystem &host, db::MiniDb &db,
                               const ServeConfig &cfg);

/**
 * The serving run proper; call from the host fiber of a populated
 * system. Warms the offload modules (minidb + per-drive grep), spawns
 * the client fibers and blocks until every job completed or was
 * rejected. Which paths the jobs take follows db.planner, as
 * populateServeData (or the catalog of a fork) left it.
 */
ServeReport serveMain(db::MiniDb &db, const ServeConfig &cfg,
                      const ServeCatalog &cat);

/** Populate + run on a fresh system (the one-call benchmark shape). */
ServeReport runServe(sisc::Env &env, const ServeConfig &cfg);

/**
 * Run the identical serving workload on a lane forked from @p image
 * (frozen at tick zero, before any module load — the fork starts as
 * cold as the primary, so reports are byte-identical).
 */
ServeReport runServeForked(const sim::DeviceImage &image,
                           const ServeCatalog &cat,
                           const ServeConfig &cfg);

/** FNV-1a 64-bit hash (event-log fingerprinting). */
std::uint64_t fnv1a(const std::string &s);

}  // namespace bisc::serve

#endif  // BISCUIT_SERVE_SERVE_H_
