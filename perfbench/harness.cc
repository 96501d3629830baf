/**
 * @file
 * Benchmark harness: runs one named workload through the simulator's
 * public API for a fixed wall-clock budget, checks every answer, and
 * prints one JSON line of raw samples for perfbench/run.py to reduce.
 *
 *   perfbench_harness --workload tpch_suite|placed_batch|serve_mix
 *                     --seed N --seconds S --trace 0|1
 *                     [--trace-out FILE]
 *
 * A *pass* is one self-contained unit of work on freshly built
 * systems (the simulation is deterministic, so every pass repeats the
 * same simulated work exactly). Passes repeat until --seconds of wall
 * time have elapsed; run.py reports medians over them. With --trace 1
 * passes alternate untraced/traced: untraced passes give the
 * end-to-end wall times, traced passes record wall-clock spans around
 * every call this file makes into a module's public functions, count
 * heap allocations, and read the modules' public counters after each
 * system finishes. Nothing inside src/ is instrumented for this.
 *
 * The whole process is single-threaded: simulated clients and device
 * cores are fibers on one OS thread.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "db/executor.h"
#include "db/expr.h"
#include "db/minidb.h"
#include "db/session.h"
#include "db/stats.h"
#include "db/workloads.h"
#include "host/grep.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "serve/serve.h"
#include "sim/stats.h"
#include "sisc/device_image.h"
#include "sisc/env.h"
#include "ssd/config.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/common.h"

// ----- heap allocation counting (traced passes only) -----------------

namespace {
bool g_count_allocs = false;
std::uint64_t g_allocs = 0;
}  // namespace

// Every other allocating operator new (array, nothrow) forwards to
// this one in libstdc++, and the default operator delete frees with
// free(), so replacing this single function counts them all.
void *
operator new(std::size_t n)
{
    if (g_count_allocs)
        ++g_allocs;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

namespace {

using namespace bisc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
wallNow()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ----- spans ---------------------------------------------------------

struct SpanRec
{
    std::string name;  ///< "<layer>.<what>"
    double start = 0;
    double end = 0;
    int parent = -1;
    int op = 0;  ///< operation id shared by a span and its children
};

/**
 * In-memory span log. Spans on the host fiber nest through a stack;
 * spans opened on concurrently running fibers name their parent
 * explicitly and stay off the stack (FiberSpan).
 */
class Tracer
{
  public:
    bool on = false;
    std::vector<SpanRec> spans;

    int
    open(const char *name, int parent, bool new_op)
    {
        if (!on)
            return -1;
        SpanRec r;
        r.name = name;
        r.parent = parent;
        r.op = new_op || parent < 0 ? next_op_++ : spans[parent].op;
        r.start = wallNow();
        spans.push_back(std::move(r));
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[id].end = wallNow();
    }

    int top() const { return stack_.empty() ? -1 : stack_.back(); }
    void push(int id) { stack_.push_back(id); }
    void pop() { stack_.pop_back(); }

  private:
    std::vector<int> stack_;
    int next_op_ = 1;
};

Tracer g_tracer;

/** A span on the host fiber's call stack. */
class Span
{
  public:
    explicit Span(const char *name, bool new_op = false)
        : id_(g_tracer.open(name, g_tracer.top(), new_op))
    {
        if (id_ >= 0)
            g_tracer.push(id_);
    }

    ~Span()
    {
        if (id_ >= 0) {
            g_tracer.pop();
            g_tracer.close(id_);
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    int id_;
};

/** A span on a fiber that runs concurrently with others. */
class FiberSpan
{
  public:
    FiberSpan(const char *name, int parent)
        : id_(g_tracer.open(name, parent, true))
    {}

    ~FiberSpan() { g_tracer.close(id_); }

    FiberSpan(const FiberSpan &) = delete;
    FiberSpan &operator=(const FiberSpan &) = delete;

  private:
    int id_;
};

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

using Interval = std::pair<double, double>;

/** Sorted, merged copy of @p v. */
std::vector<Interval>
merged(std::vector<Interval> v)
{
    std::sort(v.begin(), v.end());
    std::vector<Interval> out;
    for (const Interval &i : v) {
        if (!out.empty() && i.first <= out.back().second)
            out.back().second = std::max(out.back().second, i.second);
        else
            out.push_back(i);
    }
    return out;
}

/**
 * Wall self time per layer: each span's interval minus the part its
 * children cover, unioned per layer so concurrently open spans of one
 * layer are not counted twice.
 */
std::map<std::string, double>
layerSelfTimes(const std::vector<SpanRec> &spans)
{
    std::vector<std::vector<Interval>> kids(spans.size());
    for (const SpanRec &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({s.start, s.end});
    std::map<std::string, std::vector<Interval>> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double cur = spans[i].start;
        auto &out = self[layerOf(spans[i].name)];
        for (const Interval &k : merged(kids[i])) {
            if (k.first > cur)
                out.push_back({cur, std::min(k.first, spans[i].end)});
            cur = std::max(cur, k.second);
        }
        if (cur < spans[i].end)
            out.push_back({cur, spans[i].end});
    }
    std::map<std::string, double> total;
    for (auto &[layer, v] : self) {
        double sum = 0;
        for (const Interval &i : merged(v))
            sum += i.second - i.first;
        total[layer] = sum;
    }
    return total;
}

void
writeChromeTrace(const std::string &path)
{
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
        const SpanRec &s = g_tracer.spans[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"op\":%d}}",
                      i ? "," : "", s.name.c_str(),
                      layerOf(s.name).c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent, s.op);
        f << buf;
    }
    f << "]}\n";
}

// ----- module counters -------------------------------------------------

/** Per-pass counts and simulated per-layer values, summed by name. */
using Counts = std::map<std::string, double>;

/** Histograms merged across drives (same name, same bounds). */
struct MergedHist
{
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;

    /** Nearest-rank quantile, bucket upper bound (Histogram rule). */
    std::uint64_t
    quantile(double q) const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : counts)
            n += c;
        if (n == 0)
            return 0;
        std::uint64_t target = static_cast<std::uint64_t>(
            q * static_cast<double>(n) + 0.9999999999);
        target = std::max<std::uint64_t>(target, 1);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            cum += counts[i];
            if (cum >= target)
                return i < bounds.size() ? bounds[i] : bounds.back();
        }
        return bounds.back();
    }
};

/** "drive2.ftl.map_lookups" -> "ftl.map_lookups"; "serve.tenant3.x"
 *  -> "serve.tenant.x" (summed over drives and tenants). */
std::string
canonicalName(std::string name)
{
    if (name.rfind("drive", 0) == 0) {
        std::size_t dot = name.find('.');
        if (dot != std::string::npos)
            name = name.substr(dot + 1);
    }
    const std::string tenant = "serve.tenant";
    if (name.rfind(tenant, 0) == 0) {
        std::size_t dot = name.find('.', tenant.size());
        if (dot != std::string::npos)
            name = tenant + name.substr(dot);
    }
    return name;
}

/**
 * Read one finished system's public counters: the kernel's
 * obs::MetricsRegistry (shared by all drives, names drive-scoped) and
 * each drive's SsdDevice::exportStats model counters.
 */
void
readSystem(sisc::Env &env, Counts &c,
           std::map<std::string, MergedHist> &hists)
{
    const auto &reg = env.kernel.obs().metrics();
    for (const auto &[name, ctr] : reg.counters())
        c[canonicalName(name)] += static_cast<double>(ctr->value());
    for (const auto &[name, h] : reg.histograms()) {
        MergedHist &m = hists[canonicalName(name)];
        if (m.bounds.empty()) {
            m.bounds = h->bounds();
            m.counts.assign(h->buckets().size(), 0);
        }
        for (std::size_t i = 0;
             i < h->buckets().size() && i < m.counts.size(); ++i)
            m.counts[i] += h->buckets()[i];
    }
    const Bytes page = ssd::defaultConfig().geometry.page_size;
    for (std::uint32_t d = 0; d < env.array.driveCount(); ++d) {
        sim::Stats st;
        env.array.drive(d).device.exportStats(st);
        const std::string scope =
            env.array.driveCount() > 1 ? "drive" + std::to_string(d) + "."
                                 : "";
        c["nand.bytes_read"] +=
            st.get(scope + "nand.page_reads") * static_cast<double>(page);
        c["nand.channel_busy_ms"] +=
            st.get(scope + "nand.channel_busy_ticks") / 1e6;
        c["pm.bytes_scanned"] += st.get(scope + "pm.bytes_scanned");
    }
}

void
addDbStats(Counts &c, const db::DbStats &s)
{
    c["db.rows_examined"] += static_cast<double>(s.rows_examined);
    c["db.pages_to_host"] += static_cast<double>(s.pages_to_host);
    c["db.pages_scanned_device"] +=
        static_cast<double>(s.pages_scanned_device);
    for (const auto &[op, ticks] : s.op_ticks)
        c["db.op." + op + "_ms"] += static_cast<double>(ticks) / 1e6;
}

// ----- answers ---------------------------------------------------------

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of a row set; doubles at 9 significant digits so a change
 *  of summation order alone does not read as a wrong answer. */
std::string
rowsDigest(const std::vector<db::Row> &rows)
{
    std::string s;
    char buf[64];
    for (const db::Row &r : rows) {
        for (const db::Value &v : r) {
            if (const auto *i = std::get_if<std::int64_t>(&v))
                std::snprintf(buf, sizeof(buf), "%lld|",
                              static_cast<long long>(*i));
            else if (const auto *d = std::get_if<double>(&v))
                std::snprintf(buf, sizeof(buf), "%.9g|", *d);
            else
                buf[0] = '\0';
            s += buf;
            if (const auto *str = std::get_if<std::string>(&v))
                s += *str + "|";
        }
        s += '\n';
    }
    return hex64(serve::fnv1a(s)) + ":" + std::to_string(rows.size());
}

/** Nearest-rank percentile of a sorted sample (p in (0, 100]). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    k = std::clamp<std::size_t>(k, 1, sorted.size());
    return sorted[k - 1];
}

// ----- one pass --------------------------------------------------------

struct PassResult
{
    std::vector<double> setups;  ///< wall s, one per system built
    double run_s = 0;            ///< wall s of the timed operations
    std::map<std::string, double> sim;  ///< end-to-end simulated
    Counts counts;                      ///< per-layer, deterministic
    std::map<std::string, MergedHist> hists;  ///< merged over systems
    std::map<std::string, std::string> answers;  ///< reference answers
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count this system's counters and histograms into the pass. */
    void read(sisc::Env &env) { readSystem(env, counts, hists); }

    /** Tail quantiles of the merged histograms, as per-layer values. */
    void
    finish()
    {
        auto p99 = [&](const char *name, double scale) {
            return static_cast<double>(hists[name].quantile(0.99)) /
                   scale;
        };
        counts["serve.admission_wait_p99_ms"] =
            p99("serve.tenant.admission_wait", 1e6);
        counts["serve.queue_depth_p99"] =
            p99("serve.tenant.queue_depth", 1);
        counts["sisc.port_recv_wait_p99_us"] =
            p99("sisc.port_recv_wait", 1e3);
        counts["slet.port_send_wait_p99_us"] =
            p99("slet.port_send_wait", 1e3);
    }

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failures.size() < 16)
            failures.push_back(what);
    }
};

/** A freshly built system: environment, host and database. */
struct System
{
    std::unique_ptr<sisc::Env> env;
    std::unique_ptr<host::HostSystem> host;
    std::unique_ptr<db::MiniDb> db;

    explicit System(std::uint32_t drives)
    {
        Span s("sisc.env");
        env = std::make_unique<sisc::Env>(ssd::defaultConfig(), drives);
        host = std::make_unique<host::HostSystem>(env->array);
        db = std::make_unique<db::MiniDb>(*env, *host);
    }

    /** Fork from a frozen image and re-attach the catalog of @p src. */
    System(const sim::DeviceImage &image, const System &src)
    {
        Span s("sisc.env");
        env = std::make_unique<sisc::Env>(image);
        host = std::make_unique<host::HostSystem>(env->array,
                                                  src.host->config());
        db = std::make_unique<db::MiniDb>(*env, *host);
        db->planner = src.db->planner;
        for (const std::string &name : src.db->tableNames()) {
            db::Table &t = src.db->table(name);
            db->attachShardedTable(name, t.schema(), t.rowCount(),
                                   t.shardCount());
        }
        db::adoptTableStats(*db, image);
    }

    /** env.run() under a sim-layer span (the kernel's event loop). */
    void
    run(const std::function<void()> &fn)
    {
        Span s("sim.run");
        env->run(fn);
    }
};

// ----- tpch_suite ----------------------------------------------------

/** |speedup - 3.6| / 3.6: distance from the paper's suite speed-up. */
double
paperErrPct(double speedup)
{
    constexpr double kPaperSuiteSpeedup = 3.6;
    return 100.0 * std::abs(speedup - kPaperSuiteSpeedup) /
           kPaperSuiteSpeedup;
}

/**
 * paper_err_pct of a workload the paper has no figure for: a fixed
 * value, so the metric is reported (every workload reports every
 * metric) but can never move. Only tpch_suite's value is validated.
 */
constexpr double kUnvalidatedErrPct = 100.0;

/** sim_speedup of a workload with no baseline plan (serve_mix): fixed. */
constexpr double kNoBaselineSpeedup = 1.0;

/** 0..n-1 shuffled by @p seed: the order a pass runs its systems in. */
std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 g(seed);
    std::shuffle(order.begin(), order.end(), g);
    return order;
}

std::unique_ptr<System>
buildTpchSuite()
{
    auto sys = std::make_unique<System>(1);
    sys->db->planner.min_table_bytes = 512_KiB;
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.05;
    Span s("tpch.build");
    tpch::buildTpch(*sys->db, cfg);
    return sys;
}

/** fig10's configuration: 22 queries x {Conv, Biscuit}, serially, in
 *  one system, through the paper's sampling planner. */
PassResult
tpchPass()
{
    PassResult r;
    double t0 = wallNow();
    std::unique_ptr<System> sys;
    {
        Span s("bench.setup");
        sys = buildTpchSuite();
    }
    r.setups.push_back(wallNow() - t0);

    std::vector<tpch::QueryRun> runs;
    t0 = wallNow();
    {
        Span s("bench.run");
        sys->run([&] {
            for (int q : tpch::allQueries()) {
                tpch::QueryRun qr;
                qr.number = q;
                {
                    Span qs("tpch.conv", true);
                    qr.conv = tpch::runQuery(q, *sys->db,
                                             db::EngineMode::Conv);
                }
                {
                    Span qs("tpch.biscuit", true);
                    qr.biscuit = tpch::runQuery(q, *sys->db,
                                                db::EngineMode::Biscuit);
                }
                runs.push_back(std::move(qr));
            }
        });
    }
    r.run_s = wallNow() - t0;

    double conv = 0, bisc = 0;
    std::vector<double> lat;
    for (const tpch::QueryRun &q : runs) {
        const std::string tag = "Q" + std::to_string(q.number);
        conv += static_cast<double>(q.conv.elapsed);
        bisc += static_cast<double>(q.biscuit.elapsed);
        lat.push_back(static_cast<double>(q.biscuit.elapsed) / 1e6);
        r.answers[tag] = rowsDigest(q.conv.rows);
        r.attempted += 2;
        if (!q.resultsMatch())
            r.fail(tag + ": Biscuit rows differ from Conv rows");
        addDbStats(r.counts, q.conv.stats);
        addDbStats(r.counts, q.biscuit.stats);
    }
    std::sort(lat.begin(), lat.end());
    const double speedup = conv / bisc;
    r.sim["sim_ms"] = bisc / 1e6;
    r.sim["sim_conv_ms"] = conv / 1e6;
    r.sim["sim_speedup"] = speedup;
    r.sim["paper_err_pct"] = paperErrPct(speedup);
    r.sim["sim_p50_ms"] = percentile(lat, 50);
    r.sim["sim_p99_ms"] = percentile(lat, 99);
    r.sim["max_rate_jps"] =
        static_cast<double>(runs.size()) / (bisc / 1e9);
    r.read(*sys->env);
    return r;
}

// ----- placed_batch --------------------------------------------------

constexpr std::uint32_t kPlacedDrives = 4;
constexpr std::uint32_t kHotDrive = 3;         ///< resident-grep co-tenants
constexpr std::uint32_t kStreamDrive = 1;      ///< word-count streamers
constexpr int kSaturators = 16;
constexpr int kStreamers = 4;
constexpr int kLateSaturators = 24;
constexpr Bytes kLogBytes = 4_MiB;
constexpr Bytes kCoLogBytes = 2_MiB;
constexpr std::uint64_t kCorpusSeed = 20160618;
constexpr std::uint64_t kPlaceSeed = 0x4e7e20f1ull;
constexpr const char *kLogPath = "/data/tenant/web.log";
constexpr const char *kCoLogPath = "/data/tenant/cotenant.log";
constexpr const char *kNeedle = "heisenbug";

/** The built, frozen array every plan mode forks from. */
struct PlacedImage
{
    std::unique_ptr<System> primary;
    sim::DeviceImage image;
    std::uint64_t planted = 0;  ///< needles planted per corpus
};

PlacedImage
buildPlacedImage()
{
    PlacedImage p;
    p.primary = std::make_unique<System>(kPlacedDrives);
    db::MiniDb &mdb = *p.primary->db;
    mdb.planner.min_table_bytes = 512_KiB;
    mdb.planner.use_stats = true;
    mdb.planner.use_cost_model = true;
    mdb.planner.use_pipeline = true;
    mdb.planner.use_unified_pipelines = true;
    mdb.planner.place_seed = kPlaceSeed;
    {
        tpch::TpchConfig cfg;
        cfg.scale_factor = 0.2;
        Span s("tpch.build");
        tpch::buildTpch(mdb, cfg);
    }
    {
        Span s("db.stats");
        for (const std::string &name : mdb.tableNames())
            mdb.table(name).stats();
    }
    {
        // One identical corpus per drive, so a grep or word count has
        // one right answer wherever it runs.
        Span s("host.corpus");
        host::HostSystem &host = *p.primary->host;
        for (std::uint32_t d = 0; d < kPlacedDrives; ++d) {
            host::installGrepModule(host.fsOf(d));
            p.planted = host::generateWebLog(host.fsOf(d), kLogPath,
                                             kLogBytes, kNeedle, 97,
                                             kCorpusSeed);
        }
        host::generateWebLog(host.fsOf(0), kCoLogPath, kCoLogBytes,
                             kNeedle, 97, kCorpusSeed);
    }
    {
        Span s("sisc.freeze");
        p.image = sisc::freezeDeviceImage(*p.primary->env);
        db::exportTableStats(mdb, p.image);
    }
    return p;
}

struct BatchJob
{
    enum Kind { Grep, WordCount, Scan };

    BatchJob(std::string label, Kind kind, std::uint32_t drive,
             db::ExprPtr pred, bool late)
        : label(std::move(label)), kind(kind), drive(drive),
          pred(std::move(pred)), late(late)
    {}

    std::string label;
    Kind kind;
    std::uint32_t drive;  ///< corpus drive (greps, word counts)
    db::ExprPtr pred;     ///< scan predicate on orders
    bool late;            ///< launches after the drive-0 fleet lands
    // Outcome.
    std::string answer;
    Tick done = 0;
    bool plan_valid = true;
};

struct BatchOutcome
{
    std::vector<BatchJob> jobs;
    Tick makespan = 0;
    db::DbStats stats;
};

/**
 * One plan mode on its own fork: warm modules and statistics
 * feedback, load drive 3 with resident-grep co-tenants and drive 1
 * with host word-count streamers, then run the batch (greps, word
 * counts, a selective and an unselective scan), all admitted to one
 * PlacementSession and planned jointly. A second co-tenant fleet lands
 * on drive 0 before the late wave launches, so launch checkpoints may
 * re-plan.
 */
BatchOutcome
runBatch(System &sys, db::PlaceForce force)
{
    db::MiniDb &mdb = *sys.db;
    mdb.planner.place_force = force;
    sim::Kernel &kernel = sys.env->kernel;

    const db::Schema &orders = mdb.table("orders").schema();
    BatchOutcome out;
    out.jobs = {
        {"grep.d0", BatchJob::Grep, 0, nullptr, true},
        {"grep.d1", BatchJob::Grep, 1, nullptr, false},
        {"grep.d2", BatchJob::Grep, 2, nullptr, false},
        {"grep.d3", BatchJob::Grep, kHotDrive, nullptr, false},
        {"wc.d1", BatchJob::WordCount, 1, nullptr, false},
        {"wc.d2", BatchJob::WordCount, 2, nullptr, true},
        {"scan.selective", BatchJob::Scan, 0,
         db::cmp(orders, "o_orderdate", db::CmpOp::Eq,
                 std::string("1994-07-01")),
         false},
        {"scan.unselective", BatchJob::Scan, 0,
         db::cmp(orders, "o_orderpriority", db::CmpOp::Eq,
                 std::string("1-URGENT")),
         false},
    };

    const char *scan_span =
        force == db::PlaceForce::Auto ? "db.scan_auto" : "db.scan_forced";

    sys.run([&] {
        {
            Span s("db.warm");
            db::warmMinidbModule(mdb);
            db::warmGrepModules(mdb);
            db::warmHeteroModules(mdb);
            for (BatchJob &j : out.jobs) {
                if (j.kind != BatchJob::Scan)
                    continue;
                db::DbStats warm;
                db::scanTable(mdb, mdb.table("orders"), j.pred,
                              db::EngineMode::Biscuit, warm);
            }
        }

        std::vector<sim::FiberId> tenants;
        auto &hot_rt = sys.env->array.drive(kHotDrive).runtime;
        const rt::ModuleId hot_mid = mdb.grep_drive_modules[kHotDrive];
        for (int i = 0; i < kSaturators; ++i) {
            tenants.push_back(kernel.spawn(
                "tenant.grep" + std::to_string(i), [&] {
                    host::grepBiscuitResident(hot_rt, hot_mid,
                                              kLogPath, kNeedle);
                }));
        }
        for (int i = 0; i < kStreamers; ++i) {
            tenants.push_back(kernel.spawn(
                "tenant.wc" + std::to_string(i), [&] {
                    host::wordCount(*sys.host, kStreamDrive, kLogPath);
                }));
        }
        // Let the co-tenants commit device and host work before the
        // planner snapshots the array's load.
        kernel.sleep(Tick{2000000});

        Span batch_span("bench.batch");
        const int parent = batch_span.id();
        std::vector<int> qids(out.jobs.size(), -1);
        std::unique_ptr<db::PlacementSession> session;
        {
            Span s("placer.session");
            session = std::make_unique<db::PlacementSession>(mdb);
        }
        auto specOf = [&](const BatchJob &j) {
            db::WorkloadSpec spec;
            spec.kind = j.kind == BatchJob::Grep
                            ? db::WorkloadKind::Grep
                            : db::WorkloadKind::WordCount;
            spec.drive = j.drive;
            spec.path = kLogPath;
            spec.pattern = j.kind == BatchJob::Grep ? kNeedle : "";
            spec.force = force;
            return spec;
        };
        {
            Span s("placer.plan");
            for (std::size_t i = 0; i < out.jobs.size(); ++i)
                if (out.jobs[i].kind != BatchJob::Scan)
                    qids[i] = db::admitWorkload(mdb, specOf(out.jobs[i]));
            session->planJointly();
        }

        const Tick t0 = kernel.now();
        std::vector<sim::FiberId> batch;
        auto launch = [&](std::size_t i) {
            batch.push_back(kernel.spawn(
                "batch." + out.jobs[i].label, [&, i] {
                    BatchJob &j = out.jobs[i];
                    if (j.kind == BatchJob::Scan) {
                        FiberSpan fs(scan_span, parent);
                        db::DbStats st;
                        db::ScanOutcome so =
                            db::scanTable(mdb, mdb.table("orders"),
                                          j.pred, db::EngineMode::Biscuit,
                                          st);
                        j.answer = rowsDigest(so.rows);
                        out.stats.rows_examined += st.rows_examined;
                        out.stats.pages_to_host += st.pages_to_host;
                        out.stats.pages_scanned_device +=
                            st.pages_scanned_device;
                        for (const auto &[op, t] : st.op_ticks)
                            out.stats.op_ticks[op] += t;
                    } else {
                        FiberSpan fs("db.workload", parent);
                        db::WorkloadOutcome wo = db::runPlannedWorkload(
                            mdb, specOf(j), qids[i]);
                        j.plan_valid = wo.plan.valid;
                        j.answer =
                            j.kind == BatchJob::Grep
                                ? std::to_string(wo.grep.matches)
                                : std::to_string(wo.wc.words) + "/" +
                                      std::to_string(wo.wc.lines);
                    }
                    j.done = kernel.now() - t0;
                }));
        };
        for (std::size_t i = 0; i < out.jobs.size(); ++i)
            if (!out.jobs[i].late)
                launch(i);

        // Mid-flight drift: a co-tenant fleet lands on drive 0, then
        // the late wave launches and its checkpoints see the shift.
        kernel.sleep(Tick{500000});
        auto &d0_rt = sys.env->array.drive(0).runtime;
        const rt::ModuleId d0_mid = mdb.grep_drive_modules[0];
        for (int i = 0; i < kLateSaturators; ++i) {
            tenants.push_back(kernel.spawn(
                "tenant.late" + std::to_string(i), [&] {
                    host::grepBiscuitResident(d0_rt, d0_mid, kCoLogPath,
                                              kNeedle);
                }));
        }
        kernel.sleep(Tick{2000000});
        for (std::size_t i = 0; i < out.jobs.size(); ++i)
            if (out.jobs[i].late)
                launch(i);

        for (sim::FiberId f : batch)
            kernel.join(f);
        out.makespan = kernel.now() - t0;
        for (sim::FiberId f : tenants)
            kernel.join(f);
    });
    return out;
}

/**
 * Build and freeze the array once, fork one system per plan mode
 * (identical starting state), run the batch auto-placed and forced
 * all-host / all-device. The seed only permutes the mode order.
 */
PassResult
placedPass(std::uint64_t seed)
{
    PassResult r;
    double t0 = wallNow();
    PlacedImage img;
    std::vector<std::unique_ptr<System>> forks;
    {
        Span s("bench.setup");
        img = buildPlacedImage();
        for (int m = 0; m < 3; ++m)
            forks.push_back(
                std::make_unique<System>(img.image, *img.primary));
    }
    r.setups.push_back(wallNow() - t0);

    const db::PlaceForce modes[3] = {db::PlaceForce::Auto,
                                     db::PlaceForce::AllHost,
                                     db::PlaceForce::AllDevice};
    BatchOutcome res[3];
    t0 = wallNow();
    {
        Span s("bench.run");
        for (std::size_t k : seededOrder(3, seed)) {
            Span m("bench.mode", true);
            res[k] = runBatch(*forks[k], modes[k]);
        }
    }
    r.run_s = wallNow() - t0;

    static const char *const mode_name[3] = {"auto", "all_host",
                                             "all_device"};
    const BatchOutcome &ref = res[1];
    for (const BatchJob &j : ref.jobs)
        r.answers[j.label] = j.answer;
    r.answers["corpus.planted"] = std::to_string(img.planted);
    for (int m = 0; m < 3; ++m) {
        for (std::size_t i = 0; i < res[m].jobs.size(); ++i) {
            const BatchJob &j = res[m].jobs[i];
            ++r.attempted;
            if (!j.plan_valid)
                r.fail(std::string(mode_name[m]) + " " + j.label +
                       ": no valid plan");
            else if (j.answer != ref.jobs[i].answer)
                r.fail(std::string(mode_name[m]) + " " + j.label +
                       ": answer " + j.answer + " != all-host " +
                       ref.jobs[i].answer);
        }
        addDbStats(r.counts, res[m].stats);
        r.read(*forks[m]->env);
    }

    const BatchOutcome &a = res[0];
    std::vector<double> lat;
    for (const BatchJob &j : a.jobs)
        lat.push_back(static_cast<double>(j.done) / 1e6);
    std::sort(lat.begin(), lat.end());
    r.sim["sim_ms"] = static_cast<double>(a.makespan) / 1e6;
    r.sim["sim_host_ms"] = static_cast<double>(res[1].makespan) / 1e6;
    r.sim["sim_device_ms"] = static_cast<double>(res[2].makespan) / 1e6;
    r.sim["sim_speedup"] = static_cast<double>(res[1].makespan) /
                           static_cast<double>(a.makespan);
    r.sim["paper_err_pct"] = kUnvalidatedErrPct;
    r.sim["sim_p50_ms"] = percentile(lat, 50);
    r.sim["sim_p99_ms"] = percentile(lat, 99);
    r.sim["max_rate_jps"] = static_cast<double>(a.jobs.size()) /
                            (static_cast<double>(a.makespan) / 1e9);
    return r;
}

// ----- serve_mix -----------------------------------------------------

constexpr std::uint32_t kServeDrives = 4;
constexpr std::uint32_t kServeClients = 8;
constexpr std::uint32_t kServeJobsPerClient = 125;
constexpr std::uint64_t kServeSeed = 20160618;
/** Mean inter-arrival gap per client (ms) of each ladder rung. */
constexpr int kLadderGapMs[] = {28, 32, 40, 48};
/** The rung the latency metrics come from; it is also run on 1 drive. */
constexpr int kReferenceGapMs = 48;
/** Set-up-only samples taken after each rung (see servePass). */
constexpr int kServeExtraSetups = 3;
/** Tail-latency SLO on each rung's p99, refusals included (sim ms). */
constexpr double kSloP99Ms = 60.0;

serve::ServeConfig
serveConfig(int gap_ms)
{
    serve::ServeConfig cfg;  // default serving path: every gate off
    cfg.clients = kServeClients;
    cfg.jobs_per_client = kServeJobsPerClient;
    cfg.seed = kServeSeed;
    cfg.mean_interarrival = static_cast<Tick>(gap_ms) * kMsec;
    return cfg;
}

struct ServeSystem
{
    std::unique_ptr<System> sys;
    serve::ServeCatalog cat;
};

ServeSystem
buildServe(const serve::ServeConfig &cfg, std::uint32_t drives)
{
    ServeSystem s;
    s.sys = std::make_unique<System>(drives);
    Span sp("serve.populate");
    s.cat = serve::populateServeData(*s.sys->host, *s.sys->db, cfg);
    return s;
}

struct Rung
{
    int gap_ms = 0;
    std::uint32_t drives = 0;
    serve::ServeReport rep;
    std::vector<double> lat_ms;  ///< completed jobs, sorted
    double p50 = 0;
    double p99 = 0;  ///< +inf when refusals reach the p99 rank
};

void
summarize(Rung &r)
{
    // The event log carries every completed job's exact latency.
    const std::string &log = r.rep.event_log;
    for (std::size_t pos = log.find(" lat="); pos != std::string::npos;
         pos = log.find(" lat=", pos + 5))
        r.lat_ms.push_back(
            static_cast<double>(
                std::strtoull(log.c_str() + pos + 5, nullptr, 10)) /
            1e6);
    std::sort(r.lat_ms.begin(), r.lat_ms.end());
    // A refused job misses any limit: it sorts after every completion.
    std::vector<double> all = r.lat_ms;
    all.resize(r.rep.submitted, std::numeric_limits<double>::infinity());
    r.p50 = percentile(all, 50);
    r.p99 = percentile(all, 99);
}

/** Aggregates that must not depend on the drive count. */
std::string
serveAggregates(const serve::ServeReport &rep)
{
    return "tpch_rows=" + std::to_string(rep.tpch_rows) +
           " lookup_sum=" + std::to_string(rep.lookup_sum) +
           " grep_matches=" + std::to_string(rep.grep_matches) +
           " words=" + std::to_string(rep.wordcount_words);
}

/**
 * The open-loop ladder on 4 drives plus the reference rung on 1 drive
 * (the drive-count-invariance check), each on a fresh system. The
 * seed only permutes the rung order.
 */
PassResult
servePass(std::uint64_t seed)
{
    PassResult r;
    std::vector<Rung> rungs;
    for (int gap : kLadderGapMs)
        rungs.push_back(Rung{gap, kServeDrives, {}, {}, 0, 0});
    rungs.push_back(Rung{kReferenceGapMs, 1, {}, {}, 0, 0});

    Rung *ref = nullptr;
    Rung *ref_one = nullptr;
    for (std::size_t k : seededOrder(rungs.size(), seed)) {
        Rung &rung = rungs[k];
        const bool is_ref = rung.gap_ms == kReferenceGapMs;
        if (is_ref)
            (rung.drives == 1 ? ref_one : ref) = &rung;
        Span rs("bench.rung", true);
        const serve::ServeConfig cfg = serveConfig(rung.gap_ms);
        double t0 = wallNow();
        ServeSystem s;
        {
            Span sp("bench.setup");
            s = buildServe(cfg, rung.drives);
        }
        if (rung.drives == kServeDrives)
            r.setups.push_back(wallNow() - t0);
        t0 = wallNow();
        {
            Span sp("bench.run");
            s.sys->run([&] {
                Span m("serve.main");
                rung.rep = serve::serveMain(*s.sys->db, cfg, s.cat);
            });
        }
        r.run_s += wallNow() - t0;
        r.read(*s.sys->env);
        summarize(rung);
        // More set-up samples, spread over the pass rather than bunched
        // at its end: a 4-drive set-up takes well under 0.1 s.
        for (int e = 0; e < kServeExtraSetups; ++e) {
            t0 = wallNow();
            buildServe(serveConfig(kReferenceGapMs), kServeDrives);
            r.setups.push_back(wallNow() - t0);
        }
    }

    double best_rate = 0;
    for (const Rung &rung : rungs) {
        const serve::ServeReport &rep = rung.rep;
        const std::string tag = "gap" + std::to_string(rung.gap_ms) +
                                "ms/" + std::to_string(rung.drives) +
                                "d";
        r.attempted += rep.submitted;
        for (std::uint64_t i = 0; i < rep.rejected; ++i)
            r.fail(tag + ": job refused by admission control");
        if (rep.completed + rep.rejected != rep.submitted ||
            rep.submitted != kServeClients * kServeJobsPerClient)
            r.fail(tag + ": jobs lost (submitted " +
                   std::to_string(rep.submitted) + ")");
        r.counts["serve.completed"] += static_cast<double>(rep.completed);
        r.counts["serve.rejected"] += static_cast<double>(rep.rejected);
        if (rung.drives != kServeDrives)
            continue;
        const std::string rk = "rung" + std::to_string(rung.gap_ms) + "ms";
        r.sim[rk + ".p99_ms"] = std::isinf(rung.p99) ? -1.0 : rung.p99;
        r.sim[rk + ".completed_p99_ms"] = percentile(rung.lat_ms, 99);
        r.sim[rk + ".refused"] = static_cast<double>(rep.rejected);
        if (rung.p99 <= kSloP99Ms)
            best_rate = std::max(best_rate,
                                 kServeClients * 1000.0 / rung.gap_ms);
    }

    r.answers["reference_aggregates"] = serveAggregates(ref->rep);
    if (serveAggregates(ref_one->rep) != serveAggregates(ref->rep))
        r.fail("aggregates differ across drive counts: 1 drive " +
               serveAggregates(ref_one->rep));
    r.sim["sim_ms"] = static_cast<double>(ref->rep.makespan) / 1e6;
    r.sim["sim_p50_ms"] = ref->p50;
    r.sim["sim_p99_ms"] = ref->p99;
    r.sim["max_rate_jps"] = best_rate;
    r.sim["sim_speedup"] = kNoBaselineSpeedup;
    r.sim["paper_err_pct"] = kUnvalidatedErrPct;
    r.counts["serve.fairness"] = ref->rep.fairness;
    return r;
}

// ----- main ----------------------------------------------------------

/**
 * Pin every input the simulator would otherwise read from the
 * environment. Drive counts, lanes, serving and placement settings
 * are also passed explicitly in code above; clearing the variables
 * keeps a stray shell export from changing what is measured.
 */
void
pinEnvironment()
{
    static const char *const kCleared[] = {
        "BISCUIT_DRIVES",         "BISCUIT_CLIENTS",
        "BISCUIT_SERVE_SEED",     "BISCUIT_PLACE_SEED",
        "BISCUIT_PIPELINE_PLACE", "BISCUIT_UNIFIED_PIPELINES",
        "BISCUIT_TRACE",          "BISCUIT_TRACE_CAP",
        "BISCUIT_SEED",           "BISCUIT_OP_BREAKDOWN"};
    for (const char *name : kCleared)
        unsetenv(name);
    setenv("BISCUIT_LANES", "1", 1);
    setenv("BISCUIT_OBS", "1", 1);
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(' ', c + 1));
        }
    }
    return "unknown";
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

/** Shortest of %.15g / %.17g that reads back as exactly @p v. */
std::string
jsonNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.15g", v);
    if (std::strtod(buf, nullptr) != v)
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + jsonNum(v[i]);
    return s + "]";
}

template <typename Map, typename Fmt>
std::string
jsonMap(const Map &m, Fmt fmt)
{
    std::string s = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        s += (first ? "" : ",") + jsonStr(k) + ":" + fmt(v);
        first = false;
    }
    return s + "}";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const bool has_val = i + 1 < argc;
        if (a == "--workload" && has_val)
            o.workload = argv[++i];
        else if (a == "--seed" && has_val)
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_val)
            o.seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && has_val)
            o.trace = std::strcmp(argv[++i], "0") != 0;
        else if (a == "--trace-out" && has_val)
            o.trace_out = argv[++i];
        else
            return false;
    }
    return o.workload == "tpch_suite" || o.workload == "placed_batch" ||
           o.workload == "serve_mix";
}

/** Extra set-ups (no timed operations) so set_up has enough samples. */
double
setupOnly(const Options &o)
{
    const double t0 = wallNow();
    if (o.workload == "tpch_suite") {
        buildTpchSuite();
    } else if (o.workload == "placed_batch") {
        PlacedImage img = buildPlacedImage();
        std::vector<std::unique_ptr<System>> forks;
        for (int m = 0; m < 3; ++m)
            forks.push_back(
                std::make_unique<System>(img.image, *img.primary));
    } else {
        buildServe(serveConfig(kReferenceGapMs), kServeDrives);
    }
    return wallNow() - t0;
}

/** Equal simulated results, counts and answers (a pass repeats). */
bool
samePass(const PassResult &a, const PassResult &b)
{
    return a.sim == b.sim && a.answers == b.answers &&
           a.failed == b.failed;
}

/**
 * Set-up-only samples taken after each pass of tpch_suite, so its
 * sub-second set-up is sampled all through the run. serve_mix takes
 * its extra samples between rungs; placed_batch's 2-4 s set-up is
 * sampled once per pass.
 */
int
extraSetupsPerPass(const std::string &workload)
{
    return workload == "tpch_suite" ? 2 : 0;
}

/**
 * Set-ups per run, at least, so set-up is never timed once: sub-second
 * set-ups (tpch_suite 0.3-0.5 s, serve_mix 0.08 s) get more samples
 * than placed_batch's 2-4 s one.
 */
std::size_t
minSetups(const std::string &workload)
{
    if (workload == "serve_mix")
        return 16;
    return workload == "tpch_suite" ? 7 : 5;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: %s --workload tpch_suite|placed_batch|"
                     "serve_mix --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }
    pinEnvironment();

    auto runPass = [&]() {
        if (o.workload == "tpch_suite")
            return tpchPass();
        if (o.workload == "placed_batch")
            return placedPass(o.seed);
        return servePass(o.seed);
    };

    std::vector<double> setups, run_s, traced_run_s;
    std::size_t npasses = 0;
    PassResult first, first_traced;
    bool have_traced = false;
    std::uint64_t allocs = 0, alloc_ops = 0;
    bool consistent = true;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;

    const double start = wallNow();
    for (int i = 0;; ++i) {
        const bool traced = o.trace && i % 2 == 1;
        g_tracer.on = traced;
        g_count_allocs = traced;
        const std::uint64_t a0 = g_allocs;
        PassResult p;
        {
            Span pass_span("bench.pass", true);
            p = runPass();
        }
        p.finish();
        g_count_allocs = false;
        g_tracer.on = false;

        for (int e = 0; e < extraSetupsPerPass(o.workload); ++e)
            p.setups.push_back(setupOnly(o));
        setups.insert(setups.end(), p.setups.begin(), p.setups.end());
        (traced ? traced_run_s : run_s).push_back(p.run_s);
        attempted += p.attempted;
        failed += p.failed;
        for (const std::string &f : p.failures)
            if (failures.size() < 16)
                failures.push_back(f);
        if (npasses > 0 && !samePass(first, p))
            consistent = false;
        if (traced) {
            allocs += g_allocs - a0;
            alloc_ops += p.attempted;
            if (!have_traced) {
                first_traced = p;
                have_traced = true;
            } else if (first_traced.counts != p.counts) {
                consistent = false;
            }
        }
        if (npasses++ == 0)
            first = std::move(p);

        const bool enough_kinds = !o.trace || traced_run_s.size() >= 1;
        if (wallNow() - start >= o.seconds && enough_kinds)
            break;
    }
    while (setups.size() < minSetups(o.workload) && o.seconds > 0)
        setups.push_back(setupOnly(o));

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::map<std::string, double> layer;
    if (o.trace) {
        const double n = static_cast<double>(traced_run_s.size());
        layer = first_traced.counts;
        layer["alloc.count"] = static_cast<double>(allocs) / n;
        layer["alloc.per_op"] =
            alloc_ops ? static_cast<double>(allocs) /
                            static_cast<double>(alloc_ops)
                      : 0.0;
        // Wall time per traced pass, by span name (union of the
        // name's spans, so concurrent fibers count once) and by layer.
        std::map<std::string, std::vector<Interval>> by_name;
        for (const SpanRec &s : g_tracer.spans)
            by_name[s.name].push_back({s.start, s.end});
        for (const auto &[name, v] : by_name) {
            double secs = 0;
            for (const Interval &i : merged(v))
                secs += i.second - i.first;
            layer[name + "_s"] = secs / n;
        }
        for (const auto &[l, secs] : layerSelfTimes(g_tracer.spans))
            layer["self." + l + "_s"] = secs / n;
        if (!o.trace_out.empty())
            writeChromeTrace(o.trace_out);
    }

    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"passes\":%zu,"
        "\"setup_s\":%s,\"run_s\":%s,\"traced_run_s\":%s,"
        "\"rss_mb\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"consistent\":%s,\"failures\":[",
        jsonStr(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed), npasses,
        jsonList(setups).c_str(), jsonList(run_s).c_str(),
        jsonList(traced_run_s).c_str(), jsonNum(rss_mb).c_str(),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        consistent ? "true" : "false");
    for (std::size_t i = 0; i < failures.size(); ++i)
        std::printf("%s%s", i ? "," : "", jsonStr(failures[i]).c_str());
    std::printf(
        "],\"sim\":%s,\"answers\":%s,\"layer\":%s,"
        "\"fingerprint\":{\"cpu\":%s,\"nproc\":%ld,\"compiler\":%s,"
        "\"build_type\":%s}}\n",
        jsonMap(first.sim, jsonNum).c_str(),
        jsonMap(first.answers, jsonStr).c_str(),
        jsonMap(layer, jsonNum).c_str(), jsonStr(cpuModel()).c_str(),
        sysconf(_SC_NPROCESSORS_ONLN), jsonStr(PERFBENCH_CXX_ID).c_str(),
        jsonStr(PERFBENCH_BUILD_TYPE).c_str());
    return 0;
}
