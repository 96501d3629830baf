#include "serve/serve.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>

#include "db/costmodel.h"
#include "db/executor.h"
#include "db/session.h"
#include "db/workloads.h"
#include "host/grep.h"
#include "host/load_gen.h"
#include "obs/metrics.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace bisc::serve {

namespace {

constexpr const char *kLogPath = "/data/serve/web.log";
constexpr std::uint32_t kNeedlePeriod = 97;

/** Salted sub-seed: independent streams from one master seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    return seed + salt * 0x9E3779B97F4A7C15ull;
}

/**
 * Boolean env flag @p name: "0"/"false"/"off", empty or unset are
 * off, anything else is on. Never writes to stderr — read inside
 * golden-checked benches.
 */
bool
envFlagOn(const char *name)
{
    const char *env = std::getenv(name);
    return env != nullptr && env[0] != '\0' &&
           std::strcmp(env, "0") != 0 &&
           std::strcmp(env, "false") != 0 &&
           std::strcmp(env, "off") != 0;
}

enum class JobKind { TpchQuery, PointLookup, Grep, WordCount };

/**
 * One job, fully determined at draw time (client RNG stream), so the
 * submitted workload is independent of how long earlier jobs took.
 */
struct JobSpec
{
    JobKind kind = JobKind::PointLookup;
    int query = 0;            ///< TpchQuery
    std::uint64_t row = 0;    ///< PointLookup
    std::uint32_t drive = 0;  ///< Grep / WordCount
    std::uint32_t client = 0;
    std::uint32_t tenant = 0;
    std::uint64_t id = 0;     ///< global job id
};

/** Nearest-rank percentile over a sorted sample set, integer math. */
Tick
percentileOf(const std::vector<Tick> &sorted, std::uint64_t num,
             std::uint64_t den)
{
    if (sorted.empty())
        return 0;
    const std::uint64_t n = sorted.size();
    std::uint64_t rank = (n * num + den - 1) / den;  // ceil(n*q)
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

/** Shared mutable state of one serving run. */
struct ServeState
{
    ServeState(db::MiniDb &db, const ServeConfig &cfg,
               const ServeCatalog &cat)
        : db(db), cfg(cfg), cat(cat),
          kernel(db.env().kernel),
          adm(kernel, cfg.admission,
              cfg.tenants.empty() ? defaultTenants() : cfg.tenants,
              db.host().driveCount()),
          all_done(kernel)
    {
        const auto &tenants =
            cfg.tenants.empty() ? defaultTenants() : cfg.tenants;
        auto &reg = kernel.obs().metrics();
        per_tenant.resize(tenants.size());
        for (std::size_t k = 0; k < tenants.size(); ++k) {
            auto &t = per_tenant[k];
            t.cfg = tenants[k];
            const std::string base =
                "serve.tenant" + std::to_string(k) + ".";
            t.submitted_ctr = &reg.counter(base + "submitted", "jobs");
            t.completed_ctr = &reg.counter(base + "completed", "jobs");
            t.latency_hist = &reg.histogram(base + "latency", "ns");
        }
    }

    struct PerTenant
    {
        TenantConfig cfg;
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0;
        std::vector<Tick> latencies;
        obs::Counter *submitted_ctr = nullptr;
        obs::Counter *completed_ctr = nullptr;
        obs::Histogram *latency_hist = nullptr;
    };

    void
    logEvent(const JobSpec &job, const char *verb,
             const std::string &detail)
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "[%12llu] %-11s c%02u j%03u %-7s %s\n",
                      static_cast<unsigned long long>(kernel.now()),
                      per_tenant[job.tenant].cfg.name.c_str(),
                      job.client,
                      static_cast<unsigned>(job.id), verb,
                      detail.c_str());
        report.event_log += buf;
    }

    db::MiniDb &db;
    const ServeConfig &cfg;
    const ServeCatalog &cat;
    sim::Kernel &kernel;
    AdmissionController adm;
    sim::Waiter all_done;
    std::vector<PerTenant> per_tenant;
    std::vector<rt::ModuleId> grep_modules;  ///< resident, per drive

    /** Shared multi-query planning session (use_unified_pipelines
     *  only); attaches itself as db.place_session while alive. */
    std::unique_ptr<db::PlacementSession> session;
    std::uint64_t jobs_finished = 0;
    std::uint64_t jobs_total = 0;
    ServeReport report;
};

/** Short label of a job for the event log. */
std::string
jobLabel(const JobSpec &job)
{
    switch (job.kind) {
      case JobKind::TpchQuery:
        return "tpch_q" + std::to_string(job.query);
      case JobKind::PointLookup:
        return "lookup orders:" + std::to_string(job.row);
      case JobKind::Grep:
        return "grep drive" + std::to_string(job.drive);
      case JobKind::WordCount:
        return "wordcount drive" + std::to_string(job.drive);
    }
    return "?";
}

/** Execute one job end to end (runs on its own fiber). */
void
runJob(ServeState &st, const JobSpec &job)
{
    auto &t = st.per_tenant[job.tenant];
    const Tick submit = st.kernel.now();
    ++t.submitted;
    t.submitted_ctr->add();
    st.logEvent(job, "submit", jobLabel(job));

    const std::uint32_t drives = st.db.host().driveCount();
    bool completed = true;
    std::uint64_t rows = 0;

    switch (job.kind) {
      case JobKind::TpchQuery: {
        Demand demand;
        demand.cores = 1;
        demand.dram = 256_KiB;
        demand.first_drive = 0;
        demand.drive_span = drives;
        Status s = st.adm.acquire(job.tenant, demand);
        if (!s.ok()) {
            completed = false;
            ++t.rejected;
            st.logEvent(job, "reject",
                        jobLabel(job) + " (" + s.toString() + ")");
            break;
        }
        st.logEvent(job, "admit", jobLabel(job));
        auto outcome = tpch::runQuery(job.query, st.db,
                                      db::EngineMode::Biscuit);
        st.adm.release(job.tenant, demand);
        rows = outcome.rows.size();
        st.report.tpch_rows += rows;
        break;
      }
      case JobKind::PointLookup: {
        // Unified planning: a pread has no placeable device stage,
        // but admitting its (degenerate, host-only) stage prices the
        // lookup's host work into the shared session so co-tenant
        // plans see it.
        std::optional<db::PlannedQuery> planned;
        if (st.db.planner.use_unified_pipelines &&
            st.db.place_session != nullptr) {
            db::PipelineGraph g;
            db::StageSpec s;
            s.label = "lookup.orders";
            s.kind = db::StageKind::Scan;
            s.pages = 1;
            s.page_bytes = st.db.table("orders").pageSize();
            s.cpu_ns_per_byte =
                st.db.host().config().db_scan_ns_per_byte;
            s.eligible_drives.clear();
            g.stages.push_back(std::move(s));
            planned.emplace(st.db, g, db::PlaceForce::Auto);
            planned->launch();
        }
        db::DbStats stats;
        const db::Row row =
            db::pointLookup(st.db, st.db.table("orders"), job.row, stats);
        rows = 1;
        // o_orderkey (column 0) sums drive-count-invariantly.
        st.report.lookup_sum += static_cast<std::uint64_t>(
            std::get<std::int64_t>(row.at(0)));
        break;
      }
      case JobKind::Grep: {
        Demand demand;
        demand.cores = 1;
        demand.dram = 128_KiB;
        demand.first_drive = job.drive;
        demand.drive_span = 1;
        Status s = st.adm.acquire(job.tenant, demand);
        if (!s.ok()) {
            completed = false;
            ++t.rejected;
            st.logEvent(job, "reject",
                        jobLabel(job) + " (" + s.toString() + ")");
            break;
        }
        st.logEvent(job, "admit", jobLabel(job));
        std::uint64_t matches = 0;
        if (st.db.planner.use_unified_pipelines) {
            // Unified path: the grep runs as a placeable stage DAG —
            // the session's annealer picks its site; both sites
            // delegate to the legacy leaf scanners.
            db::WorkloadSpec spec;
            spec.kind = db::WorkloadKind::Grep;
            spec.drive = job.drive;
            spec.path = st.cat.log_path;
            spec.pattern = st.cfg.grep_needle;
            matches = db::runWorkload(st.db, spec).grep.matches;
        } else {
            matches = host::grepBiscuitResident(
                          st.db.env().array.drive(job.drive).runtime,
                          st.grep_modules[job.drive], st.cat.log_path,
                          st.cfg.grep_needle)
                          .matches;
        }
        st.adm.release(job.tenant, demand);
        rows = matches;
        st.report.grep_matches += matches;
        break;
      }
      case JobKind::WordCount: {
        host::WordCountResult wc;
        if (st.db.planner.use_unified_pipelines) {
            db::WorkloadSpec spec;
            spec.kind = db::WorkloadKind::WordCount;
            spec.drive = job.drive;
            spec.path = st.cat.log_path;
            wc = db::runWorkload(st.db, spec).wc;
        } else {
            wc = host::wordCount(st.db.host(), job.drive,
                                 st.cat.log_path);
        }
        rows = wc.words;
        st.report.wordcount_words += wc.words;
        break;
      }
    }

    if (completed) {
        const Tick lat = st.kernel.now() - submit;
        ++t.completed;
        t.completed_ctr->add();
        t.latencies.push_back(lat);
        t.latency_hist->record(lat);
        st.logEvent(job, "done",
                    jobLabel(job) + " rows=" + std::to_string(rows) +
                        " lat=" + std::to_string(lat));
    }

    ++st.jobs_finished;
    if (st.jobs_finished == st.jobs_total)
        st.all_done.notifyAll();
}

/** One client: draw arrivals, spawn job fibers, never look back. */
void
runClient(ServeState &st, std::uint32_t c)
{
    const std::uint32_t tenants =
        static_cast<std::uint32_t>(st.per_tenant.size());
    Rng arrivals(subSeed(st.cfg.seed, 0xA221ull * (c + 1)));
    Rng mix(subSeed(st.cfg.seed, 0x30B5ull * (c + 1)));
    const std::uint64_t order_rows =
        st.db.table("orders").rowCount();
    const std::uint32_t drives = st.db.host().driveCount();

    for (std::uint32_t j = 0; j < st.cfg.jobs_per_client; ++j) {
        const Tick mean = st.cfg.mean_interarrival;
        st.kernel.sleep(mean / 2 + arrivals.below(mean));

        // shared_ptr: the fiber entry point is a std::function, which
        // requires a copyable callable.
        auto spec = std::make_shared<JobSpec>();
        spec->client = c;
        spec->tenant = c % tenants;
        spec->id = c * st.cfg.jobs_per_client + j;
        const std::uint64_t roll = mix.below(100);
        if (roll < 35) {
            spec->kind = JobKind::TpchQuery;
            spec->query = st.cfg.tpch_queries[mix.below(
                st.cfg.tpch_queries.size())];
        } else if (roll < 60) {
            spec->kind = JobKind::PointLookup;
            spec->row = mix.below(order_rows);
        } else if (roll < 85) {
            spec->kind = JobKind::Grep;
            spec->drive = static_cast<std::uint32_t>(
                mix.below(drives));
        } else {
            spec->kind = JobKind::WordCount;
            spec->drive = static_cast<std::uint32_t>(
                mix.below(drives));
        }

        st.kernel.spawn("serve.job" + std::to_string(spec->id),
                        [&st, spec] { runJob(st, *spec); });
    }
}

}  // namespace

std::vector<TenantConfig>
defaultTenants()
{
    return {{"interactive", 4},
            {"analytics", 2},
            {"search", 2},
            {"batch", 1}};
}

ServeConfig
serveConfigFromEnv()
{
    ServeConfig cfg;
    if (const char *env = std::getenv("BISCUIT_CLIENTS")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1 && v <= 4096)
            cfg.clients = static_cast<std::uint32_t>(v);
    }
    if (const char *env = std::getenv("BISCUIT_SERVE_SEED")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0')
            cfg.seed = v;
    }
    return cfg;
}

db::PlannerConfig
plannerConfigFromEnv()
{
    db::PlannerConfig p;
    p.use_unified_pipelines = envFlagOn("BISCUIT_UNIFIED_PIPELINES");
    p.use_pipeline =
        p.use_unified_pipelines || envFlagOn("BISCUIT_PIPELINE_PLACE");
    p.use_cost_model = p.use_pipeline;
    p.use_stats = p.use_pipeline;
    return p;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

ServeCatalog
populateServeData(host::HostSystem &host, db::MiniDb &db,
                  const ServeConfig &cfg)
{
    tpch::TpchConfig tcfg;
    tcfg.scale_factor = cfg.tpch_scale;
    tpch::buildTpch(db, tcfg);

    std::uint64_t log_matches = 0;
    for (std::uint32_t d = 0; d < host.driveCount(); ++d) {
        host::installGrepModule(host.fsOf(d));
        // Same generation seed on every drive: identical corpora, so
        // grep/wordcount results do not depend on which drive a job
        // lands on — the aggregate drive-count-invariance the serve
        // tests assert.
        log_matches = host::generateWebLog(
            host.fsOf(d), kLogPath, cfg.weblog_bytes, cfg.grep_needle,
            kNeedlePeriod, subSeed(cfg.seed, 0x10));
    }
    return {db::captureCatalog(db), kLogPath, log_matches};
}

ServeReport
serveMain(db::MiniDb &db, const ServeConfig &cfg,
          const ServeCatalog &cat)
{
    ServeState st(db, cfg, cat);
    auto &kernel = st.kernel;
    const Tick t0 = kernel.now();

    // Warm-up, before any client is live: the minidb module on every
    // drive (so no job's latency includes the one-time load) and a
    // resident grep module per drive (a served drive keeps offload
    // modules hot instead of paying load/relocate per request).
    db::warmMinidbModule(db);
    if (db.planner.use_unified_pipelines) {
        // All four job kinds plan through one shared session; it
        // attaches itself as db.place_session and detaches when the
        // run tears down ServeState. Unified greps instantiate the
        // engine's resident grep module.
        st.session = std::make_unique<db::PlacementSession>(db);
        db::warmGrepModules(db);
    } else {
        const std::uint32_t drives = db.host().driveCount();
        st.grep_modules.reserve(drives);
        for (std::uint32_t d = 0; d < drives; ++d) {
            auto &runtime = db.env().array.drive(d).runtime;
            st.grep_modules.push_back(
                runtime.loadModule("/var/isc/slets/grep.slet"));
        }
    }

    st.jobs_total =
        static_cast<std::uint64_t>(cfg.clients) * cfg.jobs_per_client;
    for (std::uint32_t c = 0; c < cfg.clients; ++c) {
        st.kernel.spawn("serve.client" + std::to_string(c),
                        [&st, c] { runClient(st, c); });
    }
    while (st.jobs_finished < st.jobs_total)
        st.all_done.wait();

    ServeReport &rep = st.report;
    rep.makespan = kernel.now() - t0;

    double sum = 0.0, sum_sq = 0.0;
    for (auto &t : st.per_tenant) {
        TenantReport tr;
        tr.name = t.cfg.name;
        tr.weight = t.cfg.weight;
        tr.submitted = t.submitted;
        tr.completed = t.completed;
        tr.rejected = t.rejected;
        std::sort(t.latencies.begin(), t.latencies.end());
        tr.p50 = percentileOf(t.latencies, 50, 100);
        tr.p99 = percentileOf(t.latencies, 99, 100);
        tr.p999 = percentileOf(t.latencies, 999, 1000);
        tr.max = t.latencies.empty() ? 0 : t.latencies.back();
        rep.tenants.push_back(tr);
        rep.submitted += t.submitted;
        rep.completed += t.completed;
        rep.rejected += t.rejected;

        const double share =
            t.cfg.weight == 0
                ? 0.0
                : static_cast<double>(t.completed) /
                      static_cast<double>(t.cfg.weight);
        sum += share;
        sum_sq += share * share;
    }
    const double n = static_cast<double>(st.per_tenant.size());
    rep.fairness = sum_sq == 0.0 ? 1.0 : (sum * sum) / (n * sum_sq);

    rep.event_hash = fnv1a(rep.event_log);
    rep.metrics_snapshot =
        obs::snapshotString(kernel.obs().metrics(), "serve.");
    return rep;
}

ServeReport
runServe(sisc::Env &env, const ServeConfig &cfg,
         const db::PlannerConfig &planner)
{
    host::HostSystem host(env.array);
    db::MiniDb db(env, host);
    db.planner = planner;
    ServeCatalog cat = populateServeData(host, db, cfg);
    ServeReport rep;
    env.run([&] { rep = serveMain(db, cfg, cat); });
    return rep;
}

}  // namespace bisc::serve
