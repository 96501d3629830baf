/**
 * @file
 * MiniDB: the DB engine substrate standing in for MariaDB/XtraDB
 * (paper §V-C, "DB Scan and Filtering").
 *
 * MiniDB owns the catalog and the planner configuration. The planner
 * (planner.h) is a policy: it decides where each stage of a scan
 * runs, with the paper's heuristic (derive keys, check the table
 * size, sample pages to estimate selectivity, compare against a
 * threshold) or, when enabled, the cost model and placer. One
 * executor (executor.h) then runs the scan as sited: the
 * conventional scan (stream the table to the host, evaluate there),
 * the Biscuit scan (offload a page filter to the SSD's pattern
 * matchers, ship only matching pages) or any per-shard mix of the
 * two, with the exact re-check optionally chained in-drive.
 *
 * MiniDb also holds what every placed workload shares: the SSDlet
 * modules, loaded once per drive by one loader (driveModules() in
 * executor.h) and kept resident, and the attached placement session
 * that the one plan lifecycle (PlannedQuery, session.h) admits to.
 */

#ifndef BISCUIT_DB_MINIDB_H_
#define BISCUIT_DB_MINIDB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/table.h"
#include "host/host_system.h"
#include "sisc/env.h"
#include "util/common.h"

namespace bisc::db {

/**
 * Placement override for cost-model scans: Auto searches (greedy +
 * annealing), AllHost/AllDevice price and execute the static plans a
 * placement-oblivious system would run (the fig_place comparators).
 */
enum class PlaceForce { Auto, AllHost, AllDevice };

struct PlannerConfig
{
    /**
     * Offload only when the sampled fraction of matching pages is at
     * most this (paper: "determine whether the candidate table is
     * indeed a good target based on a selectivity threshold").
     */
    double page_selectivity_threshold = 0.35;

    /** Pages probed by the quick sampling check. */
    std::uint32_t sample_pages = 24;

    /**
     * Use the statistics layer (db/stats.h): zone-map scan pruning on
     * both datapaths, and histogram selectivity estimates in place of
     * the timed sampling probe (which stays the fallback for columns
     * without histograms). Off by default — the paper-figure benches
     * model the paper's sampling-based planner.
     */
    bool use_stats = false;

    /**
     * Cost-model-driven placement (db/costmodel.h + db/placer.h):
     * the planner generalizes its boolean offload call to a placed
     * stage DAG — per-shard matcher scans feeding exact re-checks
     * feeding a host merge — searched over the analytic cost model
     * under the current drive loads. Off by default — every
     * pre-placement golden stays tick-identical.
     */
    bool use_cost_model = false;

    /**
     * Re-checks may chain in-drive (requires use_cost_model): each
     * exact re-check of the placed stage DAG may run on its shard's
     * drive behind the scan, through the typed FBP port, instead of
     * being pinned to the host. Off by default — cost-model scans
     * keep their re-checks on the host.
     */
    bool use_pipeline = false;

    /**
     * Unified workload pipelines (requires use_pipeline): grep, word
     * count and the join prefilter are modeled as the same placeable
     * stage DAGs as cost-model scans (db/workloads.h), multi-query
     * plans share one load snapshot through a db::PlacementSession,
     * and in-flight plans may re-place unlaunched stages when the
     * co-tenant load drifts. Off by default — every legacy driver and
     * every pre-unification golden stays tick-identical.
     */
    bool use_unified_pipelines = false;

    /**
     * Seed of the placement annealer's xoshiro stream; 0 defers to
     * the BISCUIT_PLACE_SEED environment variable (falling back to
     * the PlacerConfig default). Fixed seed -> identical plans.
     */
    std::uint64_t place_seed = 0;

    /** Placement override (benchmarking static comparators). */
    PlaceForce place_force = PlaceForce::Auto;

    /** Tables smaller than this are not worth offloading. */
    Bytes min_table_bytes = 1_MiB;
};

/** Host CPU cost per row of join/aggregation bookkeeping. */
constexpr Tick kRowCpu = Tick{60};  // 60 ns

/** Aggregate counters a query run accumulates. */
struct DbStats
{
    std::uint64_t pages_to_host = 0;       ///< crossed the interface
    std::uint64_t pages_scanned_device = 0;
    std::uint64_t sample_pages = 0;
    std::uint64_t rows_examined = 0;
    /**
     * Rows a scan copied into its result after its shards returned
     * (its assembly); none when a lone device or chained shard's rows,
     * projected as they arrived, are moved into the result as is.
     */
    std::uint64_t rows_assembled = 0;
    std::uint64_t ndp_scans = 0;
    std::uint64_t conv_scans = 0;

    // Zone-map pruning (populated only when PlannerConfig::use_stats
    // routes a scan or keyed lookup through the statistics layer).
    std::uint64_t prune_chunks_considered = 0;
    std::uint64_t prune_chunks_skipped = 0;
    std::uint64_t prune_pages_skipped = 0;
    Tick elapsed = 0;

    /**
     * Sim-time attributed to each relational operator ("conv_scan",
     * "ndp_scan", "placed_scan", "pipelined_scan", "bnl_join",
     * "group_by", "filter", "sample"), in ns.
     * Operators that overlap (an NDP scan's device work under the
     * host-side drain) are charged wall-to-wall, so per-operator
     * ticks can exceed elapsed in aggregate.
     */
    std::map<std::string, Tick> op_ticks;

    void
    clear()
    {
        *this = DbStats{};
    }
};

class MiniDb
{
  public:
    MiniDb(sisc::Env &env, host::HostSystem &host)
        : env_(env), host_(host)
    {}

    // Not copyable or movable: grep_drive_modules aliases modules.
    MiniDb(const MiniDb &) = delete;
    MiniDb &operator=(const MiniDb &) = delete;

    sisc::Env &env() { return env_; }
    host::HostSystem &host() { return host_; }

    Table &
    createTable(const std::string &name, Schema schema)
    {
        BISC_ASSERT(tables_.count(name) == 0, "duplicate table ",
                    name);
        auto t = std::make_unique<Table>(env_.fs, name,
                                         std::move(schema));
        Table &ref = *t;
        tables_.emplace(name, std::move(t));
        return ref;
    }

    /**
     * Create a table sharded round-robin across every drive the host
     * can reach (one drive: identical to createTable). The big TPC-H
     * tables use this so a multi-drive array splits the scan work.
     */
    Table &
    createShardedTable(const std::string &name, Schema schema)
    {
        BISC_ASSERT(tables_.count(name) == 0, "duplicate table ",
                    name);
        auto t = std::make_unique<Table>(shardSet(host_.driveCount()),
                                         name, std::move(schema));
        Table &ref = *t;
        tables_.emplace(name, std::move(t));
        return ref;
    }

    Table &
    table(const std::string &name)
    {
        auto it = tables_.find(name);
        BISC_ASSERT(it != tables_.end(), "no such table: ", name);
        return *it->second;
    }

    /** All table names, sorted (catalog capture for lane forks). */
    std::vector<std::string>
    tableNames() const
    {
        std::vector<std::string> names;
        names.reserve(tables_.size());
        for (const auto &[name, t] : tables_)
            names.push_back(name);
        return names;
    }

    /**
     * Register a table whose pages already live in this instance's
     * file system (a forked device image): bookkeeping only, no data
     * movement. See the Table attach constructor.
     */
    Table &
    attachTable(const std::string &name, Schema schema,
                std::uint64_t row_count)
    {
        BISC_ASSERT(tables_.count(name) == 0, "duplicate table ",
                    name);
        auto t = std::make_unique<Table>(env_.fs, name,
                                         std::move(schema), row_count);
        Table &ref = *t;
        tables_.emplace(name, std::move(t));
        return ref;
    }

    /** Sharded attach (lane forks of multi-drive catalogs). */
    Table &
    attachShardedTable(const std::string &name, Schema schema,
                       std::uint64_t row_count, std::uint32_t shards)
    {
        BISC_ASSERT(tables_.count(name) == 0, "duplicate table ",
                    name);
        BISC_ASSERT(shards >= 1 && shards <= host_.driveCount(),
                    "attach of ", shards, "-shard table ", name,
                    " to a ", host_.driveCount(), "-drive host");
        auto t = std::make_unique<Table>(shardSet(shards), name,
                                         std::move(schema), row_count);
        Table &ref = *t;
        tables_.emplace(name, std::move(t));
        return ref;
    }

    PlannerConfig planner;

    /**
     * Lazy-load state of one per-drive SSDlet module and, once
     * loaded, its per-drive module ids (index = drive). A module load
     * takes simulated time, so fibers can race to the same loader;
     * loadModulesOnce() lets the first caller load and parks the rest
     * until the ids are published.
     */
    struct ModuleLoad
    {
        bool loaded = false;
        bool loading = false;
        std::unique_ptr<sim::Waiter> ready;  ///< made by the first waiter
        std::vector<std::uint64_t> drive_ids;
    };

    /**
     * Run @p load, which fills one module's per-drive ids, unless
     * @p state shows it has run. While one fiber loads, later callers
     * wait for it instead of loading (and publishing) a second time.
     */
    void
    loadModulesOnce(ModuleLoad &state, const std::function<void()> &load)
    {
        if (state.loaded)
            return;
        if (state.loading) {
            if (!state.ready)
                state.ready = std::make_unique<sim::Waiter>(env_.kernel);
            while (!state.loaded)
                state.ready->wait();
            return;
        }
        state.loading = true;
        load();
        state.loading = false;
        state.loaded = true;
        if (state.ready)
            state.ready->notifyAll();
    }

    /**
     * Every SSDlet module this engine has loaded ("minidb", which holds
     * every DB SSDlet, and the resident "grep"), keyed by registered
     * module name, each loaded on every drive and kept resident —
     * dynamic loading once, many instantiations (driveModules() loads
     * them lazily).
     */
    std::map<std::string, ModuleLoad> modules;

    /** The resident grep module's per-drive ids, read directly by
     *  drivers that instantiate grep co-tenants; empty until the
     *  module is loaded. */
    const std::vector<std::uint64_t> &grep_drive_modules =
        modules["grep"].drive_ids;

    /**
     * Multi-query placement session (db/session.h) every PlannedQuery
     * admits to when use_unified_pipelines is on: concurrent queries'
     * plans are priced against each other's projected occupancy
     * instead of a stale empty-array snapshot. Null, or the gate
     * closed, keeps each plan on its single-query snapshot. Not
     * owned.
     */
    class PlacementSession *place_session = nullptr;

    /**
     * Sampled page-selectivity statistics, keyed by table + key set.
     * Like a real engine's persistent statistics, the quick check
     * runs once per (table, predicate-keys) pair.
     */
    std::map<std::string, double> selectivity_stats;

    /**
     * Measured matched-page fraction (pages holding at least one
     * exact match / table pages), keyed like selectivity_stats.
     * Written only by scans that carry a placer plan, read only by the
     * placer: feedback from a prior identical scan beats any a-priori
     * estimate for clustered data, where the histogram row estimate
     * wildly overstates how many pages actually ship. Placement-
     * independent by construction — the exact re-check decides, not
     * the matcher — so every placement of the same scan records the
     * same value.
     */
    std::map<std::string, double> matched_page_frac;

  private:
    /** File systems of the first @p shards drives, in drive order. */
    std::vector<fs::FileSystem *>
    shardSet(std::uint32_t shards)
    {
        std::vector<fs::FileSystem *> set;
        set.reserve(shards);
        for (std::uint32_t k = 0; k < shards; ++k)
            set.push_back(&host_.fsOf(k));
        return set;
    }

    sisc::Env &env_;
    host::HostSystem &host_;
    std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_MINIDB_H_
