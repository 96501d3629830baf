/**
 * @file
 * MiniDB table statistics: per-chunk zone maps and equal-width
 * histograms (Hyrise chunk_statistics style), built from a loaded
 * table's pages on the first Table::stats() call, immutable
 * thereafter.
 *
 * A chunk is a run of consecutive *global* pages, so chunk boundaries
 * — and therefore every prune decision and selectivity estimate — are
 * independent of how many drives the table is sharded across. The
 * executor uses zone maps to skip page runs that cannot satisfy a
 * predicate (on both the host-streaming and device-offload paths);
 * the planner uses the histograms to estimate selectivity without the
 * timed sampling probe.
 *
 * Statistics are built functionally (zero simulated time, like the
 * offline table population itself) and shared read-only: TableStats
 * derives from sim::FrozenAppStats so a frozen DeviceImage carries
 * every table's statistics into forked lanes, which therefore
 * reproduce the primary run's prune decisions exactly.
 */

#ifndef BISCUIT_DB_STATS_H_
#define BISCUIT_DB_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/expr.h"
#include "db/table.h"
#include "db/types.h"
#include "sisc/device_image.h"

namespace bisc::db {

class MiniDb;

/** Pages per statistics chunk (global page space). */
constexpr std::uint64_t kPagesPerChunk = 32;

/** Buckets per equal-width histogram. */
constexpr std::uint64_t kHistogramBuckets = 64;

/**
 * Min/max of one column over one chunk. Numeric columns (Int64,
 * Double) use the num_* bounds — Int64 values are exact in a double
 * up to 2^53, and predicate evaluation (BoundPred, like evalPred)
 * compares numerics as doubles anyway. String and Date columns use the
 * lexicographic str_* bounds; ISO dates sort chronologically, so one
 * rule covers both. Fixed-width slots cannot hold NULLs, so
 * null_count is always 0 — kept for schema parity with engines that
 * track it.
 */
struct ColumnZone
{
    double num_min = 0.0;
    double num_max = 0.0;
    std::string str_min;
    std::string str_max;
    std::uint64_t null_count = 0;
};

/** Zone maps of one chunk: a run of consecutive global pages. */
struct ChunkStats
{
    std::uint64_t first_page = 0;
    std::uint64_t page_count = 0;
    std::uint64_t row_count = 0;
    std::vector<ColumnZone> cols;  ///< one per schema column
};

/**
 * Equal-width histogram over one column's numeric domain (Int64 and
 * Double directly; Date via dateToDays). String columns carry no
 * histogram — their selectivity stays the sampling probe's job.
 */
struct EqualWidthHistogram
{
    double lo = 0.0;
    double hi = 0.0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;

    bool empty() const { return total == 0; }

    /** Estimated fraction of rows with value <= @p v. */
    double estimateLe(double v) const;

    /** Estimated fraction of rows with value == @p v. */
    double estimateEq(double v) const;

    /** Estimated fraction of rows in [@p a, @p b] (inclusive). */
    double estimateRange(double a, double b) const;
};

/**
 * Immutable per-table statistics. Built by buildTableStats() on the
 * first Table::stats() call; serialized into sim::DeviceImage::app_stats
 * by exportTableStats() so forked lanes share the same instance.
 */
struct TableStats : sim::FrozenAppStats
{
    std::uint64_t pages_per_chunk = kPagesPerChunk;
    std::uint64_t row_count = 0;
    std::uint64_t page_count = 0;
    std::vector<ChunkStats> chunks;

    /** Per schema column; empty() for String columns. */
    std::vector<EqualWidthHistogram> hists;
};

/**
 * Build statistics for @p table with two functional passes over its
 * pages (zero simulated time — statistics construction is part of the
 * offline population, like Table::Loader itself). Each pass walks a
 * page one column at a time and reads slots in place: the first folds
 * chunk zones (text bounds compared as unsigned bytes up to the first
 * NUL, copied out only when they move) and Date day domains
 * (dateToDays, memoized by the slot's ten date bytes); the second
 * fills the histograms of the columns that have one.
 *
 * Double columns must not hold NaN: zone bounds and histogram buckets
 * of a NaN are out of scope.
 */
std::shared_ptr<const TableStats> buildTableStats(const Table &table);

/**
 * Conservative satisfiability test: false only when @p chunk's zone
 * maps *prove* no row in the chunk can satisfy @p e. Unknown shapes
 * (NOT, NOT LIKE, column-column compares) return true.
 */
bool zoneCanMatch(const Expr &e, const Schema &schema,
                  const ChunkStats &chunk);

/** A histogram-based selectivity estimate, when one is derivable. */
struct SelEstimate
{
    bool known = false;
    double sel = 0.0;  ///< estimated fraction of matching rows
};

/**
 * Estimate the fraction of rows satisfying @p e from @p stats's
 * histograms. known=false when no touched column carries a histogram
 * (string predicates, LIKE, column-column compares) — the planner
 * then falls back to the timed sampling probe.
 */
SelEstimate estimateRowSelectivity(const Expr &e, const Schema &schema,
                                   const TableStats &stats);

/** The executor's pruned page set for one (table, predicate) scan. */
struct PrunePlan
{
    bool usable = false;

    /** Surviving [first, first+count) global-page runs, ascending. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;

    std::uint64_t chunks_considered = 0;
    std::uint64_t chunks_skipped = 0;
    std::uint64_t pages_total = 0;
    std::uint64_t pages_selected = 0;
};

/**
 * Zone-map prune of @p table for @p pred: keeps every chunk
 * zoneCanMatch() cannot rule out, merging adjacent survivors into
 * maximal page runs. Requires table.stats(); returns !usable without
 * them.
 */
PrunePlan planPrune(const Table &table, const Expr &pred);

/**
 * @p plan's surviving runs restricted to shard @p s, as local
 * [first, first+count) page runs in ascending order (adjacent runs
 * merged — an unpruned plan yields the single full-shard run).
 */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
shardPruneRuns(const Table &table, const PrunePlan &plan,
               std::uint32_t s);

/**
 * Publish every table's statistics into @p image (freeze side). Lane
 * forks call adoptTableStats() after attaching their catalog.
 */
void exportTableStats(MiniDb &db, sim::DeviceImage &image);

/** Adopt statistics published by exportTableStats() (fork side). */
void adoptTableStats(MiniDb &db, const sim::DeviceImage &image);

}  // namespace bisc::db

#endif  // BISCUIT_DB_STATS_H_
