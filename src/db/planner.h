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
     * Per-shard placement (PlannerConfig::use_cost_model): valid=true
     * hands the executor the plan's stage sites, with offload
     * generalized to "any stage on a drive". valid=false — always the
     * case gate-closed — leaves the boolean offload call in charge,
     * tick for tick.
     */
    PlacementPlan plan;

    /**
     * Stage DAG behind the plan (PlannerConfig::use_pipeline): scan
     * stages feeding per-shard exact re-check transforms feeding a
     * host merge, with plan.sites indexed by graph stage. Empty —
     * always the case with the pipeline gate closed — means plan
     * sites map one-to-one onto shards (the PR 8 per-shard path).
     */
    PipelineGraph graph;

    /**
     * Query id inside MiniDb::place_session when the plan was admitted
     * to a multi-query PlacementSession (use_unified_pipelines with a
     * session attached); -1 otherwise. The executor marks stages
     * launched, checks maybeReplan() before late launches, and
     * releases the id when the scan drains.
     */
    int session_query = -1;

    std::string note;  ///< human-readable decision trace
};

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
