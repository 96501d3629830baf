/**
 * @file
 * Deterministic soak tests of the serving tier (ISSUE: the test
 * archetype's tentpole gate). The claims under test:
 *
 *  1. Run-to-run identity: the same (seed, clients, drives) tuple
 *     produces byte-identical event logs, metric snapshots and
 *     latency figures on two independently constructed systems.
 *  2. Lane identity: the same serving workload run on lanes forked
 *     from a frozen device image — including two lanes on concurrent
 *     OS threads via host::LaneRunner, the TSan-covered path —
 *     reproduces the primary run byte-for-byte.
 *  3. Aggregate drive-count invariance: result rows, lookup keys,
 *     grep matches and word counts are identical on a 1-drive and a
 *     4-drive array (per-job latencies legitimately differ).
 *  4. Saturation never crashes: a burst far beyond the admission
 *     budgets completes with typed rejects only.
 *  5. Populating the data and calling serveMain with unified
 *     pipelines on reproduces runServe's report.
 *  6. plannerConfigFromEnv maps BISCUIT_PIPELINE_PLACE and
 *     BISCUIT_UNIFIED_PIPELINES onto the PlannerConfig gate chain.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "db/lane_suite.h"
#include "db/minidb.h"
#include "host/host_system.h"
#include "host/lane_runner.h"
#include "serve/serve.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"

namespace bisc {
namespace {

/** Every PlannerConfig gate on: the unified serving path. */
db::PlannerConfig
unifiedPlanner()
{
    db::PlannerConfig p;
    p.use_stats = true;
    p.use_cost_model = true;
    p.use_pipeline = true;
    p.use_unified_pipelines = true;
    return p;
}

serve::ServeConfig
soakConfig()
{
    serve::ServeConfig cfg;
    cfg.clients = 8;
    cfg.jobs_per_client = 4;
    return cfg;
}

/** Field-by-field identity check with readable failure output. */
void
expectSameReport(const serve::ServeReport &a,
                 const serve::ServeReport &b)
{
    EXPECT_EQ(a.event_log, b.event_log);
    EXPECT_EQ(a.event_hash, b.event_hash);
    EXPECT_EQ(a.metrics_snapshot, b.metrics_snapshot);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t k = 0; k < a.tenants.size(); ++k) {
        EXPECT_EQ(a.tenants[k].p50, b.tenants[k].p50) << "tenant " << k;
        EXPECT_EQ(a.tenants[k].p99, b.tenants[k].p99) << "tenant " << k;
        EXPECT_EQ(a.tenants[k].p999, b.tenants[k].p999)
            << "tenant " << k;
    }
}

TEST(ServeSoak, TwoFreshRunsAreByteIdentical)
{
    const serve::ServeConfig cfg = soakConfig();

    sisc::Env env1(ssd::defaultConfig(), 4);
    serve::ServeReport r1 = serve::runServe(env1, cfg);

    sisc::Env env2(ssd::defaultConfig(), 4);
    serve::ServeReport r2 = serve::runServe(env2, cfg);

    ASSERT_FALSE(r1.event_log.empty());
    EXPECT_GT(r1.completed, 0u);
    expectSameReport(r1, r2);
}

TEST(ServeSoak, ForkedLanesReproduceThePrimaryRun)
{
    const serve::ServeConfig cfg = soakConfig();

    // Freeze the populated-but-cold system: the image holds the
    // tables, web logs and .slet files, but no module has loaded yet,
    // so a forked lane pays the warm-up exactly where the primary
    // does.
    sisc::Env env(ssd::defaultConfig(), 4);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    const serve::ServeCatalog cat =
        serve::populateServeData(host, db, cfg);
    const sim::DeviceImage image = sisc::freezeDeviceImage(env);

    serve::ServeReport primary;
    env.run([&] { primary = serve::serveMain(db, cfg, cat); });

    // Two lanes on concurrent OS threads (the TSan-covered shape),
    // regardless of BISCUIT_LANES; each forks its own system.
    const unsigned lanes =
        host::lanesFromEnv() > 2 ? host::lanesFromEnv() : 2;
    std::vector<serve::ServeReport> lane_reports(lanes);
    host::LaneRunner runner(lanes);
    runner.run(lanes, [&](std::size_t i) {
        db::Fork lane(image, cat);
        lane.env.run([&] {
            lane_reports[i] = serve::serveMain(lane.db, cfg, cat);
        });
    });

    for (unsigned i = 0; i < lanes; ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectSameReport(primary, lane_reports[i]);
    }
}

TEST(ServeSoak, AggregatesAreDriveCountInvariant)
{
    serve::ServeConfig cfg = soakConfig();
    // Deep queues: every offload is admitted on both topologies, so
    // the offload aggregates are workload properties, not timing
    // properties. (Reject *decisions* depend on queue occupancy at
    // submit time, which legitimately differs with drive count.)
    cfg.admission.max_queue_depth = 64;

    sisc::Env one(ssd::defaultConfig(), 1);
    serve::ServeReport r1 = serve::runServe(one, cfg);

    sisc::Env four(ssd::defaultConfig(), 4);
    serve::ServeReport r4 = serve::runServe(four, cfg);

    EXPECT_EQ(r1.submitted, r4.submitted);
    EXPECT_EQ(r1.lookup_sum, r4.lookup_sum);
    EXPECT_EQ(r1.wordcount_words, r4.wordcount_words);
    EXPECT_EQ(r1.rejected, 0u);
    EXPECT_EQ(r4.rejected, 0u);
    EXPECT_EQ(r1.tpch_rows, r4.tpch_rows);
    EXPECT_EQ(r1.grep_matches, r4.grep_matches);
}

TEST(ServeSoak, SaturationRejectsTypedAndNeverCrashes)
{
    serve::ServeConfig cfg = soakConfig();
    cfg.clients = 12;
    cfg.jobs_per_client = 6;
    cfg.mean_interarrival = 200 * kUsec;  // 10x the default rate
    cfg.admission.max_queue_depth = 1;

    sisc::Env env(ssd::defaultConfig(), 2);
    serve::ServeReport rep = serve::runServe(env, cfg);

    EXPECT_EQ(rep.submitted,
              static_cast<std::uint64_t>(cfg.clients) *
                  cfg.jobs_per_client);
    EXPECT_EQ(rep.completed + rep.rejected, rep.submitted);
    EXPECT_GT(rep.rejected, 0u);
    // Typed rejects surface in the event log with the status name.
    EXPECT_NE(rep.event_log.find("admission-reject"),
              std::string::npos);
    // Rejects never leak admission reservations: the run drained, so
    // every completed offload released its slots (a leak would have
    // deadlocked the run before this point).
}

TEST(ServeSoak, ConcurrentLazyModuleLoadsComplete)
{
    // Unified pipelines load their device modules lazily, on first
    // use, and a module load yields in simulated time: with four
    // clients arriving together, several fibers reach the same loader
    // at once. Every one of them must come back with the published
    // ids (this configuration used to abort with "unknown module
    // id").
    serve::ServeConfig cfg;
    cfg.clients = 4;
    cfg.jobs_per_client = 20;
    cfg.mean_interarrival = 2 * kMsec;

    sisc::Env env(ssd::defaultConfig(), 4);
    serve::ServeReport rep = serve::runServe(env, cfg, unifiedPlanner());

    EXPECT_EQ(rep.submitted,
              static_cast<std::uint64_t>(cfg.clients) *
                  cfg.jobs_per_client);
    EXPECT_EQ(rep.completed + rep.rejected, rep.submitted);
    EXPECT_GT(rep.completed, 0u);
}

TEST(ServeSoak, PopulatedUnifiedRunMatchesRunServe)
{
    // The populate-then-serveMain shape of the forked-lane test and
    // the benchmark harness, with unified pipelines on: the caller's
    // planner is the one runServe installs, so this run takes the
    // same paths.
    const serve::ServeConfig cfg = soakConfig();

    sisc::Env env(ssd::defaultConfig(), 4);
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    db.planner = unifiedPlanner();
    const serve::ServeCatalog cat =
        serve::populateServeData(host, db, cfg);
    serve::ServeReport populated;
    env.run([&] { populated = serve::serveMain(db, cfg, cat); });

    sisc::Env fresh(ssd::defaultConfig(), 4);
    const serve::ServeReport reference =
        serve::runServe(fresh, cfg, unifiedPlanner());

    EXPECT_GT(populated.completed, 0u);
    expectSameReport(populated, reference);
}

TEST(ServeSoak, ConfigFromEnvironment)
{
    if (std::getenv("BISCUIT_CLIENTS") != nullptr ||
        std::getenv("BISCUIT_SERVE_SEED") != nullptr)
        GTEST_SKIP() << "serve env overrides set in this environment";
    serve::ServeConfig def = serve::serveConfigFromEnv();
    EXPECT_EQ(def.clients, serve::ServeConfig{}.clients);
    EXPECT_EQ(def.seed, serve::ServeConfig{}.seed);
}

/** Sets (or, for null, unsets) one environment variable for a scope
 *  and restores its old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_old_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_ = false;
    std::string old_;
};

/** The four PlannerConfig gates as "stats/cost/pipeline/unified". */
std::string
gates(const db::PlannerConfig &p)
{
    return std::to_string(p.use_stats) + std::to_string(p.use_cost_model) +
           std::to_string(p.use_pipeline) +
           std::to_string(p.use_unified_pipelines);
}

std::string
gatesFromEnv(const char *pipeline, const char *unified)
{
    ScopedEnv p("BISCUIT_PIPELINE_PLACE", pipeline);
    ScopedEnv u("BISCUIT_UNIFIED_PIPELINES", unified);
    return gates(serve::plannerConfigFromEnv());
}

TEST(ServeSoak, PlannerConfigFromEnvironment)
{
    // Unset or empty: every gate off, i.e. the default planner.
    EXPECT_EQ(gatesFromEnv(nullptr, nullptr), "0000");
    EXPECT_EQ(gatesFromEnv("", ""), "0000");
    EXPECT_EQ(gates(db::PlannerConfig{}), "0000");

    // Pipeline placement brings the statistics and cost-model layers
    // it requires; unified pipelines bring all four gates.
    EXPECT_EQ(gatesFromEnv("1", nullptr), "1110");
    EXPECT_EQ(gatesFromEnv(nullptr, "1"), "1111");
    EXPECT_EQ(gatesFromEnv("yes", "on"), "1111");
    EXPECT_EQ(gatesFromEnv("0", "1"), "1111");

    // "0", "false" and "off" turn a gate off.
    for (const char *off : {"0", "false", "off"}) {
        SCOPED_TRACE(off);
        EXPECT_EQ(gatesFromEnv(off, nullptr), "0000");
        EXPECT_EQ(gatesFromEnv(nullptr, off), "0000");
        EXPECT_EQ(gatesFromEnv(off, off), "0000");
        EXPECT_EQ(gatesFromEnv("1", off), "1110");
    }

    // Only the gates move: every other field keeps its default.
    const db::PlannerConfig def;
    ScopedEnv u("BISCUIT_UNIFIED_PIPELINES", "1");
    const db::PlannerConfig p = serve::plannerConfigFromEnv();
    EXPECT_EQ(p.enable_ndp, def.enable_ndp);
    EXPECT_EQ(p.page_selectivity_threshold,
              def.page_selectivity_threshold);
    EXPECT_EQ(p.place_seed, def.place_seed);
    EXPECT_EQ(p.min_table_bytes, def.min_table_bytes);
}

}  // namespace
}  // namespace bisc
