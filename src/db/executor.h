/**
 * @file
 * MiniDB execution primitives: the table scan, the block-nested-loop
 * join cost model, grouping, sorting.
 *
 * One executor runs every table scan. The planner's decision reaches
 * it as per-stage sites — each shard's matcher scan and exact
 * re-check on the host or on the shard's drive — and each shard runs
 * in the shape its sites give: a host stream, a device matcher with a
 * host re-check, or matcher and re-check chained in-drive.
 *
 * The 22 TPC-H query drivers (src/tpch/queries.cc) compose these
 * primitives; each primitive charges its own simulated time so query
 * elapsed times fall out of the composition. Rows pass between the
 * primitives as RowSets of packed slots; a Row is decoded only at the
 * output boundary (scanTable, and the query's final result).
 */

#ifndef BISCUIT_DB_EXECUTOR_H_
#define BISCUIT_DB_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/expr.h"
#include "db/minidb.h"
#include "db/table.h"
#include "pm/pattern_matcher.h"

namespace bisc::db {

/** Pages the device scan SSDlets pack into one port message. The
 *  cost model amortizes per-message port costs over the same count. */
constexpr std::uint32_t kPagesPerBatch = 8;

/** Which engine variant a query runs as (paper: Conv vs. Biscuit). */
enum class EngineMode { Conv, Biscuit };

/** What a scan reports besides its rows. */
struct ScanInfo
{
    bool used_ndp = false;
    double sampled_selectivity = -1.0;  ///< -1: sampling not run

    /** Planner's histogram estimate of page selectivity; -1 if none. */
    double est_selectivity = -1.0;

    /**
     * Measured page selectivity of this scan, as a fraction of the
     * table's pages: a device shard counts the pages it shipped (key
     * matches, what the offload threshold governs), a host shard the
     * pages holding at least one predicate-satisfying row. -1 on an
     * empty table.
     */
    double measured_selectivity = -1.0;

    /**
     * Cost-model placement trace (PlannerConfig::use_cost_model):
     * the chosen stage sites in stage order, scans then re-checks
     * then the merge ("d0,d1,host,host,host,host,host"), the model's
     * predicted makespan and the measured scan ticks. Empty / zero
     * when the decision carried no placer plan.
     */
    std::string placement;
    Tick predicted_ticks = 0;
    Tick measured_ticks = 0;

    std::string note;                   ///< planner decision trace
};

/** A scan's matching rows as packed slots (host-operator input). */
struct PackedScan : ScanInfo
{
    RowSet rows;  ///< kept columns, global row order
};

/** A scan's matching rows, decoded. */
struct ScanOutcome : ScanInfo
{
    std::vector<Row> rows;
};

/**
 * Scan @p table with predicate @p pred (may be null = full scan).
 * Conv mode streams every shard to the host. In Biscuit mode the
 * planner decides where each stage runs: nowhere on a drive, every
 * matcher on its shard's drive (the threshold offload), or wherever
 * a cost-model plan put it. op_ticks charges the scan as "conv_scan",
 * "ndp_scan", "placed_scan" or "pipelined_scan" after that decision.
 * Rows returned satisfy @p pred exactly, in global row order.
 *
 * Rows come out projected: the table columns @p columns names, in that
 * order (every column, in table order, when empty). Only the kept
 * cells of a matched row are copied; the predicate still sees the
 * whole row, and simulated time is charged in table bytes and rows
 * whatever is kept. An entry out of range or a column named twice
 * panics. A caller that needs a computed column adds it to the result
 * (RowSet::addColumn).
 */
PackedScan scanTablePacked(MiniDb &db, Table &table, const ExprPtr &pred,
                           EngineMode mode, DbStats &stats,
                           const std::vector<int> &columns = {});

/** scanTablePacked() with its rows decoded (zero simulated time). */
ScanOutcome scanTable(MiniDb &db, Table &table, const ExprPtr &pred,
                      EngineMode mode, DbStats &stats);

/**
 * Per-drive ids (index = drive) of registered SSDlet module @p name,
 * installing and loading it on every drive first (timed, in drive
 * order) when it is not yet resident. Fibers that race to a module
 * while it loads wait for that one load. The only module loader.
 */
const std::vector<std::uint64_t> &driveModules(MiniDb &db,
                                               const std::string &name);

/**
 * Load the "minidb" SSDlet module — every DB SSDlet: scan, sample,
 * in-drive re-check, word count, join semi-scan — now (timed, from
 * the host fiber) if it is not already resident. The executor loads
 * it lazily on the first offload of any kind; a parallel lane that
 * replays a mid-suite query warms it explicitly so the lane charges
 * (or skips) the one-time load cost exactly where the serial run did.
 */
void warmMinidbModule(MiniDb &db);

/**
 * Single-row point lookup: read the one page holding row
 * @p row_index (routed to the shard that owns it), decode it and
 * return the row. The OLTP-style request of the serving mix — one
 * pread against one drive, host-side decode, no offload.
 */
Row pointLookup(MiniDb &db, Table &table, std::uint64_t row_index,
                DbStats &stats);

/**
 * Keyed point lookup on an Int64 column: zone maps (when the table
 * carries statistics) route the probe to the chunks whose [min, max]
 * can contain @p key, skipping every other page run outright — for a
 * dense ascending key (o_orderkey) the in-chunk offset guess makes it
 * a single pread. Without statistics the lookup degrades to a
 * front-to-back page scan. Returns false when no row carries @p key.
 */
bool pointLookupByKey(MiniDb &db, Table &table, int key_col,
                      std::int64_t key, Row *out, DbStats &stats);

/**
 * Device-side sampling probe: stream @p pages through the channel
 * matchers configured with @p keys, returning how many matched.
 * Timed (this is the planner's "quick check").
 */
std::uint64_t ndpSamplePages(MiniDb &db, Table &table,
                             const pm::KeySet &keys,
                             const std::vector<std::uint64_t> &pages,
                             DbStats &stats);

/**
 * Statistics-cache key for a (table, predicate-keys) pair — shared by
 * the sampled-selectivity cache and the measured matched-page-fraction
 * feedback (MiniDb::selectivity_stats / matched_page_frac).
 */
std::string scanStatKey(const Table &table, const pm::KeySet &keys);

/**
 * Equi-join @p outer rows against @p inner with block-nested-loop
 * *cost* (the inner table is re-read once per join-buffer block of
 * outer rows — the effect Biscuit's filter-first join order
 * magnifies, paper §V-C) and hash-join *semantics*. @p outer_width is
 * the storage width of one outer row (join-buffer occupancy);
 * @p inner_pred filters inner rows during each pass.
 *
 * The inner side comes out projected, like a scan's rows: the inner
 * table columns @p inner_columns names, in that order (every column,
 * in table order, when empty). Each output slot is the outer slot
 * followed by the matched inner row's kept cells, under
 * Schema::concat(outer schema, kept inner schema), even for an empty
 * outer; rows come out in outer order, and an outer row's matches
 * newest (last-scanned) first. The predicate and the key still read
 * the whole inner row, and simulated time is charged in table bytes
 * and rows whatever is kept. An entry out of range or a column named
 * twice panics.
 */
RowSet bnlJoin(MiniDb &db, const RowSet &outer, Bytes outer_width,
               int outer_col, Table &inner, int inner_col,
               const ExprPtr &inner_pred, DbStats &stats,
               const std::vector<int> &inner_columns = {});

/** Aggregation spec for groupBy. */
struct AggSpec
{
    enum class Op { Sum, Avg, Count, Min, Max };
    Op op = Op::Count;
    int column = -1;  ///< -1 for Count(*)
};

/**
 * Group @p rows by @p key_cols and compute @p aggs per group. Output
 * rows are [keys..., aggregates...]: the key columns keep their input
 * type and width (values from a group's first row); Count is Int64,
 * every other aggregate Double. Group identity is the valueToString()
 * of the keys (doubles group at "%.2f"), found from the key columns'
 * slot bytes without formatting them (a key of at most 8 bytes as one
 * uint64_t), and groups come out ordered by that key text, built once
 * per group. Charges per-row host CPU.
 */
RowSet groupBy(MiniDb &db, const RowSet &rows,
               const std::vector<int> &key_cols,
               const std::vector<AggSpec> &aggs, DbStats &stats);

/**
 * In-place sort by (column, descending?) keys, compareValues()
 * semantics. Not stable: tied rows land where std::sort puts them.
 */
void sortRows(RowSet &rows, const std::vector<std::pair<int, bool>> &keys);

/** Filter @p rows by @p pred on the host (charges per-row CPU). */
RowSet filterRows(MiniDb &db, const RowSet &rows, const ExprPtr &pred,
                  DbStats &stats);

}  // namespace bisc::db

#endif  // BISCUIT_DB_EXECUTOR_H_
