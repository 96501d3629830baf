#include "db/workloads.h"

#include <algorithm>

#include "db/executor.h"
#include "db/session.h"
#include "runtime/module.h"
#include "sisc/application.h"
#include "sisc/file.h"
#include "sisc/port.h"
#include "sisc/ssd.h"
#include "slet/file.h"
#include "slet/ssdlet.h"

namespace bisc::db {

namespace {

/**
 * A-priori matched-byte fraction of a grep scan (the share of the
 * stream the device tally CPU actually touches); superseded by
 * feedback from a prior identical grep (MiniDb::matched_page_frac).
 */
constexpr double kGrepTallyPrior = 0.05;

std::string
workloadStatKey(const WorkloadSpec &spec)
{
    return spec.kind == WorkloadKind::Grep
               ? "wk:grep:" + spec.path + ":" + spec.pattern
               : "wk:wc:" + spec.path;
}

// ----- device word count / join semi-scan ("minidb" module) -----

/**
 * A minidb SSDlet that streams its file (argument 0) off the NAND in
 * 32 KiB chunks, charging the (pre-slowdown-scaled) ns per byte of
 * argument 1 for each chunk on the device core.
 */
class FileStreamLet
    : public slet::SSDLet<slet::In<>, slet::Out<std::uint64_t>,
                          slet::Arg<slet::File, double>>
{
  protected:
    /** Stream the file, handing each chunk to @p visit(data, n). */
    template <class Visit>
    void
    streamFile(const Visit &visit)
    {
        auto &file = arg<0>();
        const double cpu_ns_per_byte = arg<1>();
        const Bytes size = file.size();
        std::vector<std::uint8_t> chunk(32_KiB);
        for (Bytes off = 0; off < size;) {
            const Bytes want =
                std::min<Bytes>(chunk.size(), size - off);
            const Bytes n = file.read(off, chunk.data(), want);
            if (n == 0)
                break;
            consumeCpu(static_cast<Tick>(
                static_cast<double>(n) * cpu_ns_per_byte));
            visit(chunk.data(), n);
            off += n;
        }
    }
};

/**
 * Device word count: the file through the same tally host::wordCount
 * runs (host::WordTally). Emits two counters — words, then lines.
 */
class WordCountLet : public FileStreamLet
{
  public:
    void
    run() override
    {
        host::WordTally tally;
        streamFile([&](const std::uint8_t *data, Bytes n) {
            tally.scan(data, n);
        });
        out<0>().put(tally.words);
        out<0>().put(tally.lines);
    }
};

/**
 * Join prefilter semi-scan: one timed streaming pass over the inner
 * shard on its drive, charged at the scan cost per byte. The
 * functional join already knows the matched rows (the prefilter is
 * exact); this SSDlet models the device-side pass that replaces the
 * host's per-block inner re-reads. Emits the bytes scanned.
 */
class SemiScanLet : public FileStreamLet
{
  public:
    void
    run() override
    {
        Bytes scanned = 0;
        streamFile([&](const std::uint8_t *, Bytes n) { scanned += n; });
        out<0>().put(scanned);
    }
};

RegisterSSDLet("minidb", "idWordCount", WordCountLet);
RegisterSSDLet("minidb", "idSemiScan", SemiScanLet);

/** Run the device word-count SSDlet against @p drive's file. */
host::WordCountResult
deviceWordCount(MiniDb &db, std::uint32_t drive,
                const std::string &path)
{
    const std::vector<std::uint64_t> &minidb =
        driveModules(db, "minidb");
    auto &runtime = db.env().array.drive(drive).runtime;
    auto &kernel = runtime.kernel();
    host::WordCountResult result;
    const Tick t0 = kernel.now();

    sisc::SSD ssd(runtime);
    sisc::Application app(ssd);
    const double cpu =
        db.host().config().grep_ns_per_byte *
        db.env().device.config().device_core_slowdown;
    sisc::SSDLet wc(app, minidb[drive], "idWordCount",
                    std::make_tuple(slet::File(path), cpu));
    auto port = app.connectTo<std::uint64_t>(wc.out(0));
    app.start();
    std::vector<std::uint64_t> counters;
    std::uint64_t v = 0;
    while (port.get(v))
        counters.push_back(v);
    app.wait();
    BISC_ASSERT(counters.size() == 2, "word-count SSDlet emitted ",
                counters.size(), " counters");
    result.words = counters[0];
    result.lines = counters[1];
    result.bytes_scanned = runtime.fs().size(path);
    result.elapsed = kernel.now() - t0;
    return result;
}

}  // namespace

PipelineGraph
buildWorkloadGraph(MiniDb &db, const WorkloadSpec &spec)
{
    auto &host = db.host();
    fs::FileSystem &fs = host.fsOf(spec.drive);
    const Bytes size = fs.size(spec.path);
    const Bytes page = fs.pageSize();
    const bool grep = spec.kind == WorkloadKind::Grep;

    PipelineGraph g;
    StageSpec scan;
    scan.label = (grep ? "grep" : "wc") + std::string(".scan.d") +
                 std::to_string(spec.drive);
    scan.shard = spec.drive;
    scan.kind = StageKind::Scan;
    scan.pages = divCeil<Bytes>(size, page);
    scan.page_bytes = page;
    scan.cpu_ns_per_byte = host.config().grep_ns_per_byte;
    scan.eligible_drives = {spec.drive};
    scan.dram = db.env().device.config().instance_user_mem;
    if (grep) {
        // Device site: the matcher hardware filters the stream and
        // the core only tallies near-hit bytes — the selectivity.
        // Feedback from a prior identical grep beats the prior.
        double frac = kGrepTallyPrior;
        auto it = db.matched_page_frac.find(workloadStatKey(spec));
        if (it != db.matched_page_frac.end())
            frac = it->second;
        scan.selectivity = frac;
    } else {
        // Every byte feeds the tokenizer state machine, wherever the
        // stage runs.
        scan.selectivity = 1.0;
    }
    g.stages.push_back(std::move(scan));

    StageSpec merge;
    merge.label = (grep ? "grep" : "wc") + std::string(".merge");
    merge.kind = StageKind::Merge;
    merge.page_bytes = page;
    merge.eligible_drives.clear();
    g.stages.push_back(std::move(merge));

    // Counters-only edge: one u64 (grep) or two (word count) cross,
    // whichever site the scan landed on.
    PipelineEdge e;
    e.from = 0;
    e.to = 1;
    e.bytes = grep ? 8 : 16;
    e.bytes_host = e.bytes;
    g.edges.push_back(e);
    return g;
}

int
admitWorkload(MiniDb &db, const WorkloadSpec &spec)
{
    BISC_ASSERT(db.place_session != nullptr,
                "admitWorkload without a placement session");
    return PlannedQuery(db, buildWorkloadGraph(db, spec), spec.force)
        .detach();
}

WorkloadOutcome
runPlannedWorkload(MiniDb &db, const WorkloadSpec &spec,
                   int session_query)
{
    BISC_ASSERT(db.planner.use_unified_pipelines,
                "unified workload run with the gate closed");
    auto &host = db.host();
    PlannedQuery query =
        session_query >= 0 && db.place_session != nullptr
            ? PlannedQuery(*db.place_session, session_query)
            : PlannedQuery(db, buildWorkloadGraph(db, spec),
                           spec.force);

    WorkloadOutcome out;
    out.plan = query.launch();
    const bool on_host = !out.plan.valid || out.plan.sites.empty() ||
                         out.plan.sites[0].on_host;
    if (spec.kind == WorkloadKind::Grep) {
        if (on_host) {
            out.grep = host::grepConv(host, spec.drive, spec.path,
                                      spec.pattern);
        } else {
            out.grep = host::grepBiscuitResident(
                db.env().array.drive(spec.drive).runtime,
                driveModules(db, "grep")[spec.drive], spec.path,
                spec.pattern);
        }
        // Matched-byte-fraction feedback for the device tally
        // pricing: ~64 bytes of tally context per hit.
        const Bytes size = host.fsOf(spec.drive).size(spec.path);
        if (size > 0) {
            db.matched_page_frac[workloadStatKey(spec)] = std::min(
                1.0, static_cast<double>(out.grep.matches) * 64.0 /
                         static_cast<double>(size));
        }
    } else {
        out.wc = on_host
                     ? host::wordCount(host, spec.drive, spec.path)
                     : deviceWordCount(db, spec.drive, spec.path);
    }
    out.note = out.plan.note(query.inSession() ? "session workload"
                                               : "workload");
    return out;
}

WorkloadOutcome
runWorkload(MiniDb &db, const WorkloadSpec &spec)
{
    return runPlannedWorkload(db, spec, -1);
}

void
warmGrepModules(MiniDb &db)
{
    driveModules(db, "grep");
}

void
warmHeteroModules(MiniDb &db)
{
    warmMinidbModule(db);
}

}  // namespace bisc::db
