#include "db/planner.h"

#include <algorithm>
#include <cstdio>

#include "db/executor.h"
#include "db/stats.h"

namespace bisc::db {

std::vector<StageSpec>
buildScanStages(MiniDb &db, Table &table, const ExprPtr &pred,
                double sel)
{
    PrunePlan plan;
    if (db.planner.use_stats && pred && table.stats())
        plan = planPrune(table, *pred);

    // The planner's selectivity estimate is a fraction of the whole
    // table's pages; a pruned stage streams only the surviving band,
    // most of which matches. Re-normalize so StageSpec::selectivity
    // is the shipped fraction of *streamed* pages.
    double streamed_sel = std::min(1.0, std::max(0.0, sel));
    if (plan.usable && plan.pages_selected > 0) {
        const double matched =
            streamed_sel * static_cast<double>(plan.pages_total);
        streamed_sel = std::min(
            1.0, matched / static_cast<double>(plan.pages_selected));
    }

    std::vector<StageSpec> stages;
    stages.reserve(table.shardCount());
    for (std::uint32_t s = 0; s < table.shardCount(); ++s) {
        StageSpec st;
        st.label = "scan." + table.name() + ".s" + std::to_string(s);
        st.shard = s;
        if (plan.usable) {
            std::uint64_t pages = 0;
            for (const auto &[first, count] :
                 shardPruneRuns(table, plan, s))
                pages += count;
            st.pages = pages;
        } else {
            st.pages = table.shardPageCount(s);
        }
        st.page_bytes = table.pageSize();
        st.selectivity = streamed_sel;
        st.eligible_drives = {s};
        st.dram = db.env().device.config().instance_user_mem;
        stages.push_back(std::move(st));
    }
    return stages;
}

PipelineGraph
buildPipelineGraph(MiniDb &db, Table &table,
                   const std::vector<StageSpec> &scans, double out_frac)
{
    PipelineGraph g;
    const std::uint32_t n =
        static_cast<std::uint32_t>(scans.size());
    g.stages = scans;
    for (std::uint32_t s = 0; s < n; ++s) {
        const StageSpec &scan = g.stages[s];
        StageSpec re;
        re.label =
            "recheck." + table.name() + ".s" + std::to_string(s);
        re.shard = s;
        re.kind = StageKind::Transform;
        re.page_bytes = scan.page_bytes;
        re.cpu_ns_per_byte =
            db.host().config().db_scan_ns_per_byte;
        if (db.planner.use_pipeline) {
            // The re-check may chain in-drive behind its scan;
            // otherwise it stays on the host.
            re.colocate_with = static_cast<int>(s);
            re.eligible_drives = {s};
        }
        re.dram = db.env().device.config().instance_user_mem;
        g.stages.push_back(std::move(re));
    }
    StageSpec merge;
    merge.label = "merge." + table.name();
    merge.kind = StageKind::Merge;
    merge.page_bytes = table.pageSize();
    merge.eligible_drives.clear();
    // Merge bookkeeping is per-row (kRowCpu), expressed per byte of
    // matched-row payload.
    merge.cpu_ns_per_byte =
        static_cast<double>(kRowCpu) /
        std::max<double>(1.0, static_cast<double>(
                                  table.schema().rowWidth()));
    g.stages.push_back(std::move(merge));

    const std::uint32_t merge_ix = 2 * n;
    for (std::uint32_t s = 0; s < n; ++s) {
        const StageSpec &scan = g.stages[s];
        const Bytes streamed = scan.pages * scan.page_bytes;
        const Bytes selected = static_cast<Bytes>(
            static_cast<double>(streamed) *
            std::min(1.0, std::max(0.0, scan.selectivity)));
        PipelineEdge to_recheck;
        to_recheck.from = s;
        to_recheck.to = n + s;
        to_recheck.bytes = selected;       // device scan filters
        to_recheck.bytes_host = streamed;  // host scan does not
        g.edges.push_back(to_recheck);

        const Bytes matched = static_cast<Bytes>(
            static_cast<double>(streamed) * out_frac);
        PipelineEdge to_merge;
        to_merge.from = n + s;
        to_merge.to = merge_ix;
        to_merge.bytes = matched;       // exact rows either way
        to_merge.bytes_host = matched;
        g.edges.push_back(to_merge);
    }
    return g;
}

namespace {

/**
 * Cost-model generalization of the boolean offload call: plan the
 * scan's stage DAG (scan -> re-check -> merge, every edge priced by
 * its placement pair) and write the winning plan (plus its static
 * comparators) into @p d. The re-checks chain in-drive only with
 * PlannerConfig::use_pipeline; otherwise they are pinned to the host.
 * @p est_ship_frac is the a-priori estimate of the matched-page
 * fraction of the whole table; a measured value from a prior
 * identical scan (MiniDb::matched_page_frac) supersedes it — the
 * histogram row estimate assumes rows scatter uniformly and badly
 * overstates shipping for date-clustered data. Returns false —
 * leaving the legacy threshold decision to run — only if no stage
 * could be placed anywhere.
 */
bool
placeWithCostModel(MiniDb &db, Table &table, const ExprPtr &pred,
                   PlanDecision &d, double est_ship_frac)
{
    const PlannerConfig &cfg = db.planner;
    double sel = std::min(1.0, std::max(0.0, est_ship_frac));
    auto measured =
        db.matched_page_frac.find(scanStatKey(table, d.keys));
    if (measured != db.matched_page_frac.end())
        sel = measured->second;

    // Planned through the shared session when one is attached, which
    // prices the DAG against the co-admitted queries' projected
    // occupancy instead of a fresh snapshot. The re-check emits about
    // one row per selected page (sel/rows_per_page of the streamed
    // bytes), the right order for the selective scans that reach the
    // placer.
    const double row_frac = std::min(
        1.0, sel / std::max<double>(
                       1.0, static_cast<double>(table.rowsPerPage())));
    PlannedQuery query(
        db,
        buildPipelineGraph(db, table,
                           buildScanStages(db, table, pred, sel),
                           row_frac),
        cfg.place_force);
    if (!query.plan().valid)
        return false;
    const char *how = "cost model";
    if (cfg.use_pipeline)
        how = query.inSession() ? "session pipeline" : "pipeline";
    d.query = std::move(query);
    // Host-stream contention the prediction priced in, per drive
    // (x100: 100 = alone). BISCUIT_OBS-gated, never read back.
    auto &obs = db.env().kernel.obs();
    for (const DriveLoadSnapshot &load : snapshotDriveLoads(db)) {
        OBS_HIST(obs.metrics().histogram(
                     "db.place.pipeline.contention_factor", "pctx",
                     {100, 150, 200, 300, 500, 1000}),
                 static_cast<std::uint64_t>(
                     streamContention(load) * 100.0));
    }
    d.offload = d.query.plan().anyDevice();
    d.note = d.query.plan().note(how);
    if (d.offload) {
        OBS_INSTANT(db.env().kernel.obs(), "db", "offload",
                    static_cast<std::int64_t>(sel * 100.0));
    }
    return true;
}

}  // namespace

PlanDecision
decideOffload(MiniDb &db, Table &table, const ExprPtr &pred,
              DbStats &stats)
{
    PlanDecision d;
    const PlannerConfig &cfg = db.planner;

    if (!pred) {
        d.note = "no filter predicate";
        return d;
    }
    if (table.sizeBytes() < cfg.min_table_bytes) {
        d.note = "target table too small (" +
                 std::to_string(table.sizeBytes() >> 10) + " KiB)";
        return d;
    }

    KeyDerivation kd = deriveKeys(*pred, table.schema());
    if (!kd.offloadable) {
        d.note = kd.reason;
        return d;
    }
    d.keys = kd.keys;

    // Statistics-first estimate: histograms give the row selectivity,
    // zone maps bound the fraction of pages any row can live on; a
    // page matches when any of its rows does, so the page selectivity
    // is at most min(zone page fraction, row selectivity x rows per
    // page). No simulated time is spent — the statistics were built
    // at load. Predicates without histogram coverage fall through to
    // the paper's timed sampling probe.
    // stats() is only fetched under the gate: the lazy build must
    // not run for legacy-mode plans.
    std::shared_ptr<const TableStats> ts =
        cfg.use_stats ? table.stats() : nullptr;
    if (cfg.use_stats && ts) {
        SelEstimate est =
            estimateRowSelectivity(*pred, table.schema(), *ts);
        if (est.known) {
            PrunePlan plan = planPrune(table, *pred);
            const double zone_frac =
                plan.pages_total == 0
                    ? 1.0
                    : static_cast<double>(plan.pages_selected) /
                          static_cast<double>(plan.pages_total);
            const double row_pages = std::min(
                1.0, est.sel * static_cast<double>(
                                   table.rowsPerPage()));
            d.est_selectivity = std::min(zone_frac, row_pages);
            d.from_stats = true;

            // The cost model supersedes the threshold rule: the
            // row-based estimate (not the zone-clipped page bound —
            // the stage specs already stream only the pruned band)
            // feeds the stage specs, and the placer decides where
            // (and whether) to offload.
            if (cfg.use_cost_model &&
                placeWithCostModel(db, table, pred, d, row_pages))
                return d;

            char sbuf[128];
            if (d.est_selectivity > cfg.page_selectivity_threshold) {
                std::snprintf(sbuf, sizeof(sbuf),
                              "stats advise against offload (est "
                              "page selectivity %.2f > %.2f, row "
                              "selectivity %.4f)",
                              d.est_selectivity,
                              cfg.page_selectivity_threshold,
                              est.sel);
                d.note = sbuf;
                return d;
            }
            std::snprintf(sbuf, sizeof(sbuf),
                          "offloaded (histogram est page "
                          "selectivity %.2f, row selectivity %.4f, "
                          "zones keep %llu/%llu chunks)",
                          d.est_selectivity, est.sel,
                          static_cast<unsigned long long>(
                              plan.chunks_considered -
                              plan.chunks_skipped),
                          static_cast<unsigned long long>(
                              plan.chunks_considered));
            d.note = sbuf;
            d.offload = true;
            OBS_INSTANT(db.env().kernel.obs(), "db", "offload",
                        static_cast<std::int64_t>(
                            d.est_selectivity * 100.0));
            return d;
        }
    }

    // Quick check: probe evenly spread pages through the matchers.
    // Results are cached per (table, key set), like persistent
    // engine statistics.
    std::string stat_key = scanStatKey(table, d.keys);
    auto cached = db.selectivity_stats.find(stat_key);
    if (cached != db.selectivity_stats.end()) {
        d.sampled_selectivity = cached->second;
    } else {
        std::uint64_t total = table.pageCount();
        std::uint64_t samples =
            std::min<std::uint64_t>(cfg.sample_pages, total);
        std::vector<std::uint64_t> pages;
        pages.reserve(samples);
        for (std::uint64_t i = 0; i < samples; ++i)
            pages.push_back(i * total / samples);

        std::uint64_t matched =
            ndpSamplePages(db, table, d.keys, pages, stats);
        d.sampled_selectivity = static_cast<double>(matched) /
                                static_cast<double>(samples);
        db.selectivity_stats.emplace(stat_key,
                                     d.sampled_selectivity);
    }

    // Sampled estimate in hand: same generalization as above for
    // predicates no histogram covers.
    if (cfg.use_cost_model &&
        placeWithCostModel(db, table, pred, d,
                           d.sampled_selectivity >= 0.0
                               ? d.sampled_selectivity
                               : 1.0))
        return d;

    char buf[96];
    if (d.sampled_selectivity > cfg.page_selectivity_threshold) {
        std::snprintf(buf, sizeof(buf),
                      "sampling advises against offload "
                      "(page selectivity %.2f > %.2f)",
                      d.sampled_selectivity,
                      cfg.page_selectivity_threshold);
        d.note = buf;
        return d;
    }
    std::snprintf(buf, sizeof(buf),
                  "offloaded (sampled page selectivity %.2f)",
                  d.sampled_selectivity);
    d.note = buf;
    d.offload = true;
    OBS_INSTANT(db.env().kernel.obs(), "db", "offload",
                static_cast<std::int64_t>(
                    d.sampled_selectivity * 100.0));
    return d;
}

}  // namespace bisc::db
