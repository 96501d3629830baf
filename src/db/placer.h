/**
 * @file
 * Seeded placement optimizer over the analytic cost model
 * (db/costmodel.h): greedy construction plus simulated annealing,
 * the way SET schedules layers onto tiles — a deterministic xoshiro
 * stream (`BISCUIT_PLACE_SEED`) drives the neighbor walk, so a fixed
 * seed reproduces the exact same plan on every run, lane and
 * platform.
 *
 * The search space is a stage DAG (db::PipelineGraph), each stage
 * going to one of its data drives or the host. Each visited
 * assignment is priced once (stageDemand); the objective is
 * predictPipeline() over that demand, and feasibility checks its
 * per-drive budgets: at most core_budget applications per drive (one
 * application pins one core) and the drives' free user DRAM covers
 * every device stage's instance memory. It also enforces legality:
 * Merge stays on the host, and a Transform chained in-drive must sit
 * on its upstream's drive (db::colocated), where the pair shares one
 * application and one core slot.
 * The annealer starts from the greedy plan and tracks the best
 * feasible visit, so its result is never worse than greedy.
 */

#ifndef BISCUIT_DB_PLACER_H_
#define BISCUIT_DB_PLACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/costmodel.h"

namespace bisc::db {

/** A complete stage->site assignment with its predicted cost. */
struct PlacementPlan
{
    bool valid = false;
    std::vector<Site> sites;       ///< one per stage, stage order

    Tick predicted = 0;            ///< makespan of this plan
    Tick predicted_all_host = 0;   ///< static all-host comparator
    Tick predicted_all_device = 0; ///< static all-device comparator
    bool from_anneal = false;      ///< annealing improved on greedy

    // Edge diagnostics: how many graph edges carried priced traffic
    // under this assignment and their total modeled cost across all
    // payers.
    std::uint32_t edges_priced = 0;
    Tick edge_ticks = 0;

    /** True when any stage runs on a drive. */
    bool anyDevice() const;

    /** "d0,d1,host,d3" — sites in stage order. */
    std::string describe() const;

    /** "<how> placed [sites] (annealed): predicted … ms (all-host …
     *  ms, all-device … ms)" — the planner-note form of this plan. */
    std::string note(const char *how) const;
};

struct PlacerConfig
{
    /** Seed of the annealing walk (0 is a valid seed). */
    std::uint64_t seed = 0xb15c017ull;

    /** false: greedy only (still deterministic, no RNG draws). */
    bool anneal = true;

    /** Annealing steps. */
    std::uint32_t iterations = 256;

    /** Initial temperature in ticks (accepts uphill moves of this
     *  order early on) and the geometric cooling factor per step. */
    double t0_ticks = 2.0e6;
    double cooling = 0.97;

    /** Per-drive budgets (PR 6): concurrent placed stages per drive
     *  and the device DRAM their instances may claim. */
    std::uint32_t core_budget = 2;
    Bytes dram_budget = 512_MiB;
};

/**
 * Place a full pipeline graph: greedy construction in stage order
 * (edges point forward, so that is a topological order), then the
 * same seeded annealing walk with predictPipeline() as the objective.
 * Never worse than its own greedy seed. Returns valid=false when some
 * stage has no legal site under the current assignment rules.
 */
PlacementPlan placePipeline(
    const PipelineGraph &graph, const CostCalibration &calib,
    const std::vector<DriveLoadSnapshot> &loads,
    const PlacerConfig &cfg);

/**
 * Static pipeline comparators: everything the host can run on the
 * host (@p on_host), or every device-eligible stage on its data
 * drive with colocation honored (Merge stages stay host-side).
 * Budgets are not enforced.
 */
PlacementPlan forcedPipelinePlan(
    const PipelineGraph &graph, const CostCalibration &calib,
    const std::vector<DriveLoadSnapshot> &loads, bool on_host);

/** The plan @p force asks for: placePipeline when Auto, otherwise
 *  the all-host or all-device forcedPipelinePlan. */
PlacementPlan planPipeline(
    const PipelineGraph &graph, const CostCalibration &calib,
    const std::vector<DriveLoadSnapshot> &loads,
    const PlacerConfig &cfg, PlaceForce force);

/**
 * Mid-flight re-placement of an in-flight pipeline plan: stages with
 * launched[i] true keep their site from @p current (their work is
 * already committed to a resource); every unlaunched stage is free to
 * move, searched with the same greedy sweep + seeded annealing walk
 * against @p loads (a *fresh* snapshot — the point of re-planning).
 * Never worse than keeping @p current's unlaunched sites as-is, and
 * deterministic for a fixed cfg.seed. Falls back to @p current
 * (valid=false) when the pinned prefix admits no feasible completion.
 */
PlacementPlan replanPipeline(
    const PipelineGraph &graph, const CostCalibration &calib,
    const std::vector<DriveLoadSnapshot> &loads,
    const PlacerConfig &cfg, const std::vector<bool> &launched,
    const PlacementPlan &current);

/**
 * `BISCUIT_PLACE_SEED` when set (decimal, or hex with 0x prefix),
 * @p fallback otherwise. Unlike seedFromEnv() this never writes to
 * stderr — placement decisions run inside golden-checked benches.
 */
std::uint64_t placeSeedFromEnv(std::uint64_t fallback);

}  // namespace bisc::db

#endif  // BISCUIT_DB_PLACER_H_
