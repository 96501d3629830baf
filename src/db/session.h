/**
 * @file
 * Multi-query placement session (ROADMAP: "multi-query plans sharing
 * one snapshot, and re-planning mid-flight").
 *
 * The single-query planner prices each plan against a point-in-time
 * DriveLoadSnapshot; when K queries plan concurrently, each sees an
 * array that the other K-1 are about to load — the classic stale-
 * snapshot stampede (every plan dodges the same busy drive onto the
 * same idle one). A PlacementSession shares ONE base snapshot across
 * the admitted queries and charges each plan the *projected
 * occupancy* of the others: each plan's StageDemand (the one
 * predictPipeline folds), its device app slots, core work, DRAM
 * claims and host streams folded into per-drive load copies and its
 * host CPU work into the calibration's host backlog. A
 * block-coordinate refinement (planJointly) then re-anneals each
 * query against the others until no plan moves — deterministic,
 * since queries are visited in admission order with seeded walks.
 *
 * Mid-flight re-planning: a query planned at admission may launch
 * later (it waited on admission control, or staggers its stage
 * launches). maybeReplan() takes a fresh snapshot and, only when the
 * load drifted past the PlannerConfig hysteresis (a co-tenant
 * arrived or drained), re-places the plan's unlaunched stages via
 * db::replanPipeline — launched stages are pinned. `db.place.replans`
 * and `db.place.session.*` count what happened.
 *
 * Everything reads sim-side state only (never obs mirrors) and every
 * RNG draw comes from seeded xoshiro streams, so sessions reproduce
 * across runs, lanes and platforms.
 *
 * Every placed workload — pipeline scans, grep and word count, the
 * join prefilter, the serving tier's lookups — goes through one plan
 * lifecycle, PlannedQuery: admitted to the attached session or placed
 * alone, checkpointed at launch, released at drain. A plan made alone
 * at tick t equals a one-query session plan at t, and a launch
 * checkpoint at the admit tick never re-plans.
 */

#ifndef BISCUIT_DB_SESSION_H_
#define BISCUIT_DB_SESSION_H_

#include <cstdint>
#include <vector>

#include "db/placer.h"

namespace bisc::db {

class PlacementSession
{
  public:
    /** Calibrate + snapshot @p db's array as the session base and
     *  attach as MiniDb::place_session. */
    explicit PlacementSession(MiniDb &db);

    /** Detaches from MiniDb::place_session (if still attached). */
    ~PlacementSession();

    PlacementSession(const PlacementSession &) = delete;
    PlacementSession &operator=(const PlacementSession &) = delete;

    /** Admit one query's stage DAG: plans it against the base
     *  snapshot plus every other live query's projected occupancy.
     *  Returns the query id used by the other calls. */
    int admit(const PipelineGraph &graph, const PlacerConfig &cfg,
              PlaceForce force = PlaceForce::Auto);

    /**
     * Block-coordinate joint refinement: revisit the live queries in
     * admission order, re-placing each against the others' current
     * occupancy, until a full round moves nothing (at most @p rounds
     * rounds). The K plans converge on a joint assignment instead of
     * each dodging into the same idle drive.
     */
    void planJointly(std::uint32_t rounds = 2);

    const PlacementPlan &plan(int qid) const;
    const PipelineGraph &graph(int qid) const;

    /** Pin stage @p stage (or all stages) of @p qid: its work is
     *  committed to its site and re-planning may not move it. */
    void markLaunched(int qid, std::size_t stage);
    void markLaunched(int qid);

    /**
     * Hysteresis-guarded mid-flight re-plan: take a fresh array
     * snapshot; when a drive's resident-app/host-stream population
     * shifted by >= kReplanMinDelta or a core backlog drifted past
     * kReplanHysteresis relative to plan time (session.cc), re-place
     * @p qid's unlaunched stages (launched pinned, seed mixed with
     * the replan ordinal). Returns true when any site moved.
     */
    bool maybeReplan(int qid);

    /** Drop @p qid's occupancy from the session (query finished). */
    void release(int qid);

    std::uint32_t replans() const { return replans_; }
    std::uint32_t admitted() const { return admitted_; }

    /** Admitted queries not yet released. */
    std::uint32_t live() const;

    /**
     * The base snapshot with every live query's occupancy folded in,
     * @p excluding's own excluded (pass -1 to fold all): apps, core
     * horizons, DRAM claims, host streams per drive. What a
     * co-admitted query's planner prices against.
     */
    std::vector<DriveLoadSnapshot> effectiveLoads(int excluding) const;

    /** The base calibration with the other queries' host CPU work
     *  added to the host backlog. */
    CostCalibration effectiveCalib(int excluding) const;

  private:
    struct Query
    {
        bool live = false;
        PipelineGraph graph;
        PlacerConfig cfg;
        PlaceForce force = PlaceForce::Auto;
        PlacementPlan plan;
        std::vector<bool> launched;
        StageDemand demand;  ///< what the current plan claims
        /** Loads the current plan was priced against (drift ref). */
        std::vector<DriveLoadSnapshot> planned_loads;
        std::uint32_t replan_ordinal = 0;
    };

    StageDemand demandOf(const Query &q) const;
    void planOne(Query &q, int qid);

    MiniDb &db_;
    CostCalibration calib_;
    std::vector<DriveLoadSnapshot> base_;
    std::vector<Query> queries_;
    std::uint32_t replans_ = 0;
    std::uint32_t admitted_ = 0;
};

/**
 * The PlacerConfig of every placed query: the planner's annealer seed
 * (BISCUIT_PLACE_SEED when PlannerConfig::place_seed is 0) and the
 * device's per-drive core and DRAM budgets.
 */
PlacerConfig placerConfig(MiniDb &db);

/**
 * One placed query's plan, from planning to drain. With
 * MiniDb::place_session attached (and use_unified_pipelines on) the
 * graph is admitted there and priced against the other live queries;
 * otherwise it is placed alone (planPipeline) against a fresh
 * snapshot. launch() is the launch checkpoint, and the session
 * query is released when the PlannedQuery goes away — on every exit
 * path.
 */
class PlannedQuery
{
  public:
    /** No query: an invalid plan and nothing to release. */
    PlannedQuery() = default;

    /** Plan @p graph, searched (Auto) or forced per @p force. */
    PlannedQuery(MiniDb &db, const PipelineGraph &graph,
                 PlaceForce force);

    /** Take over @p qid, admitted to @p session earlier. */
    PlannedQuery(PlacementSession &session, int qid);

    PlannedQuery(PlannedQuery &&other) noexcept;
    PlannedQuery &operator=(PlannedQuery &&other) noexcept;
    ~PlannedQuery();

    const PlacementPlan &plan() const { return plan_; }
    bool inSession() const { return session_ != nullptr; }

    /**
     * Launch checkpoint: in a session, re-price the still-unlaunched
     * stages against a fresh snapshot (PlacementSession::maybeReplan)
     * and pin every stage. Returns the plan to run.
     */
    const PlacementPlan &launch();

    /** Give up the session query without releasing it; returns its
     *  id (-1 when planned alone). The caller now owns the release. */
    int detach();

  private:
    void release();

    PlacementSession *session_ = nullptr;
    int qid_ = -1;
    PlacementPlan plan_;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_SESSION_H_
