/**
 * @file
 * Unified workload pipelines (PlannerConfig::use_unified_pipelines):
 * grep and word count lifted out of their ad-hoc drivers into the
 * same placeable FBP stage DAGs as cost-model scans.
 *
 * Each workload becomes a two-stage graph — a Scan stage carrying the
 * workload's per-byte compute (the Boyer-Moore tally or the tokenizer
 * state machine, via StageSpec::cpu_ns_per_byte) feeding a host-side
 * Merge over a counters-only edge — priced by predictPipeline() and
 * searched by the same seeded annealer as DB scans. Execution then
 * dispatches on the Scan stage's site alone: a host site runs the
 * legacy streaming scanner (host::grepConv / host::wordCount), a
 * device site runs the legacy resident grep SSDlet or the device
 * word-count SSDlet of the "minidb" module. Results are byte-
 * identical to the legacy drivers by construction — both sites
 * delegate to the exact same leaf primitives (host::WordTally counts
 * words on either site).
 *
 * Planning goes through the shared plan lifecycle (db::PlannedQuery,
 * db/session.h): with a db::PlacementSession attached
 * (MiniDb::place_session) a workload is admitted to the session so
 * concurrent queries price each other's projected occupancy, and
 * released when it drains. admitWorkload() exposes the admission step
 * separately so a driver can admit K workloads, run
 * PlacementSession::planJointly(), and only then launch them. Device
 * sites instantiate resident modules from the one module loader
 * (db::driveModules).
 */

#ifndef BISCUIT_DB_WORKLOADS_H_
#define BISCUIT_DB_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "db/placer.h"
#include "host/grep.h"

namespace bisc::db {

enum class WorkloadKind { Grep, WordCount };

/** One non-SQL workload instance over one drive-resident file. */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::Grep;
    std::uint32_t drive = 0;   ///< drive holding the file
    std::string path;          ///< file path on that drive's fs
    std::string pattern;       ///< Grep only
    PlaceForce force = PlaceForce::Auto;
};

struct WorkloadOutcome
{
    host::GrepResult grep;   ///< Grep workloads
    host::WordCountResult wc;  ///< WordCount workloads
    PlacementPlan plan;
    std::string note;  ///< placement trace, PlacementPlan::note() form
};

/**
 * The workload as a placeable stage DAG: Scan (per-byte compute
 * folded in; a device grep scan prices its tally over the matched
 * fraction only, the matcher hardware filters the rest) -> host
 * Merge, joined by a counters-only edge.
 */
PipelineGraph buildWorkloadGraph(MiniDb &db, const WorkloadSpec &spec);

/**
 * Admit @p spec's graph to MiniDb::place_session (which must be
 * attached) without running it; returns the session query id to pass
 * to runPlannedWorkload() after PlacementSession::planJointly().
 */
int admitWorkload(MiniDb &db, const WorkloadSpec &spec);

/**
 * Plan and run one workload. With a session attached the graph is
 * admitted there (co-tenant occupancy priced in) and released when
 * the workload drains; otherwise it is placed against a fresh
 * single-query snapshot. Requires use_unified_pipelines.
 */
WorkloadOutcome runWorkload(MiniDb &db, const WorkloadSpec &spec);

/**
 * Run a workload already admitted to the session as @p session_query
 * (-1: plan it now, exactly as runWorkload does). The launch
 * checkpoint re-prices unlaunched stages via
 * PlacementSession::maybeReplan before committing them; the query is
 * released when the workload drains.
 */
WorkloadOutcome runPlannedWorkload(MiniDb &db,
                                   const WorkloadSpec &spec,
                                   int session_query);

/** Eagerly install + load the resident grep module on every drive
 *  (lazy-loaded on first device grep otherwise). */
void warmGrepModules(MiniDb &db);

/** Eagerly install + load the "minidb" module, which holds the device
 *  word count and join semi-scan, on every drive: the same load as
 *  warmMinidbModule(). */
void warmHeteroModules(MiniDb &db);

}  // namespace bisc::db

#endif  // BISCUIT_DB_WORKLOADS_H_
