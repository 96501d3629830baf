/**
 * @file
 * The NDP offload decision (paper §V-C): the four-step heuristic the
 * authors implanted into MariaDB's query planner — (1) identify a
 * candidate table with filter predicates amenable to offloading,
 * (2) estimate selectivity with a sampling quick-check, (3) compare
 * against a threshold, (4) offload when it pays.
 */

#ifndef BISCUIT_DB_PLANNER_H_
#define BISCUIT_DB_PLANNER_H_

#include <string>

#include "db/expr.h"
#include "db/minidb.h"
#include "db/placer.h"
#include "db/session.h"
#include "db/table.h"
#include "pm/pattern_matcher.h"

namespace bisc::db {

struct PlanDecision
{
    bool offload = false;
    pm::KeySet keys;
    double sampled_selectivity = -1.0;  ///< -1: sampling not reached

    /** Histogram-estimated page selectivity; -1 when not derived. */
    double est_selectivity = -1.0;

    /** True when the decision came from statistics, not sampling. */
    bool from_stats = false;

    /**
     * The placed plan (PlannerConfig::use_cost_model): the scan's
     * stage DAG — per-shard scans [0, n), per-shard exact re-checks
     * [n, 2n), one host merge (2n) — with its sites, admitted to
     * MiniDb::place_session when one is attached. The executor
     * launches it; dropping the decision releases it. An invalid
     * plan — always the case gate-closed — leaves the boolean offload
     * call in charge, tick for tick.
     */
    PlannedQuery query;

    std::string note;  ///< human-readable decision trace
};

/**
 * One Scan stage per shard of @p table, @p sel of its streamed pages
 * selected: pages from the zone-map prune when statistics are on and
 * @p pred (may be null) prunes, the whole shard otherwise. Shard k's
 * pages live on drive k, so that is each stage's only device site.
 */
std::vector<StageSpec> buildScanStages(MiniDb &db, Table &table,
                                       const ExprPtr &pred, double sel);

/**
 * @p scans as the stage DAG of a placed scan and of a join's inner
 * side: the per-shard Scan stages [0, n) feed per-shard exact row
 * checks ([n, 2n), Transforms) feeding one host Merge (2n). With
 * PlannerConfig::use_pipeline each check may colocate in-drive with
 * its scan; otherwise it is pinned to the host. A device scan ships
 * its selected bytes onward, a host scan every streamed byte;
 * @p out_frac of the streamed bytes reaches the merge either way.
 */
PipelineGraph buildPipelineGraph(MiniDb &db, Table &table,
                                 const std::vector<StageSpec> &scans,
                                 double out_frac);

/**
 * Decide whether the scan of @p table with @p pred should be pushed
 * down to the SSD. With PlannerConfig::use_stats and table
 * statistics present, selectivity is estimated from the histograms
 * (untimed — the statistics already exist); the timed sampling probe
 * remains the fallback for predicates no histogram covers.
 */
PlanDecision decideOffload(MiniDb &db, Table &table,
                           const ExprPtr &pred, DbStats &stats);

}  // namespace bisc::db

#endif  // BISCUIT_DB_PLANNER_H_
