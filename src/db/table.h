/**
 * @file
 * MiniDB heap tables: fixed-width row slots packed into SSD pages.
 *
 * Rows never straddle pages, so the per-channel pattern matcher's
 * page-granular verdicts map exactly onto row sets, and the paper's
 * page-level selectivity metric ("fraction of pages that satisfy the
 * filter") is directly computable.
 *
 * A table may be sharded across the drives of an array: pages are
 * placed round-robin (global page g lives on shard g % N at local
 * page g / N), so the logical page sequence — and therefore row order
 * — is independent of the drive count. A single-shard table is the
 * historical layout bit-for-bit.
 */

#ifndef BISCUIT_DB_TABLE_H_
#define BISCUIT_DB_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/types.h"
#include "fs/file_system.h"
#include "util/common.h"

namespace bisc::db {

struct TableStats;

class Table
{
  public:
    Table(fs::FileSystem &fs, std::string name, Schema schema);

    /**
     * Attach to a table whose pages already exist in @p fs (e.g. in a
     * forked device image): no data is written, only the row/page
     * bookkeeping is reconstructed from @p row_count. The layout must
     * have been produced by load() on an identical schema.
     */
    Table(fs::FileSystem &fs, std::string name, Schema schema,
          std::uint64_t row_count);

    /**
     * Sharded table: one backing file per drive, pages placed
     * round-robin across @p shards in global page order.
     */
    Table(std::vector<fs::FileSystem *> shards, std::string name,
          Schema schema);

    /** Sharded attach: bookkeeping over existing per-shard files. */
    Table(std::vector<fs::FileSystem *> shards, std::string name,
          Schema schema, std::uint64_t row_count);

    const std::string &name() const { return name_; }
    const Schema &schema() const { return schema_; }
    const std::string &file() const { return file_; }

    Bytes rowWidth() const { return schema_.rowWidth(); }
    std::uint64_t rowsPerPage() const { return rows_per_page_; }
    std::uint64_t rowCount() const { return row_count_; }
    std::uint64_t pageCount() const { return page_count_; }
    Bytes sizeBytes() const { return page_count_ * page_size_; }
    Bytes pageSize() const { return page_size_; }

    // ----- shard topology -----

    std::uint32_t
    shardCount() const
    {
        return static_cast<std::uint32_t>(shard_fs_.size());
    }

    fs::FileSystem &shardFs(std::uint32_t s) const
    {
        return *shard_fs_.at(s);
    }

    /** Shard owning global page @p g. */
    std::uint32_t
    shardOf(std::uint64_t g) const
    {
        return static_cast<std::uint32_t>(g % shard_fs_.size());
    }

    /** Local page index of global page @p g within its shard. */
    std::uint64_t
    localPage(std::uint64_t g) const
    {
        return g / shard_fs_.size();
    }

    /** Global page index of local page @p local on shard @p s. */
    std::uint64_t
    globalPage(std::uint32_t s, std::uint64_t local) const
    {
        return local * shard_fs_.size() + s;
    }

    /** Pages resident on shard @p s (the round-robin slice). */
    std::uint64_t
    shardPageCount(std::uint32_t s) const
    {
        std::uint64_t n = shard_fs_.size();
        return page_count_ > s ? (page_count_ - 1 - s) / n + 1 : 0;
    }

    class Loader;

    /** Bulk load from a materialized vector (Loader + encodeRow). */
    void loadRows(const std::vector<Row> &rows);

    /** Functional row access (zero time; verification only). */
    Row rowAt(std::uint64_t index) const;

    /** Number of valid rows in page @p page. */
    std::uint64_t rowsInPage(std::uint64_t page) const;

    /** Functional whole-table iteration (verification only). */
    void forEachRow(const std::function<void(const Row &)> &fn) const;

    /**
     * Functional whole-table iteration over packed row slots
     * (rowWidth() bytes each), valid for the callback's duration.
     * Lets callers filter with a BoundPred and decode survivors
     * only. Templated so hot loops pay no per-slot indirect call.
     * Pages visit in global order regardless of sharding.
     */
    template <class Fn>
    void forEachSlot(Fn &&fn) const
    {
        // Each page is viewed in place (a borrow of the NAND store),
        // never copied out.
        const std::size_t shards = shard_fs_.size();
        std::vector<const std::vector<ftl::Lpn> *> lpns(shards);
        for (std::size_t s = 0; s < shards; ++s)
            lpns[s] = &shard_fs_[s]->pagesOf(file_);
        for (std::uint64_t p = 0; p < page_count_; ++p) {
            const sim::BufferView page =
                shard_fs_[p % shards]->device().pageView(
                    (*lpns[p % shards])[p / shards], 0, page_size_);
            std::uint64_t n = rowsInPage(p);
            for (std::uint64_t i = 0; i < n; ++i)
                fn(page.data() + i * schema_.rowWidth());
        }
    }

    /** Drive-0 (or only) shard's file system. */
    fs::FileSystem &fs() { return *shard_fs_[0]; }

    // ----- statistics (db/stats.h) -----

    /**
     * Per-chunk zone maps + histograms, built lazily on first access
     * for a table populated by load(); null on an attached table
     * until adoptTableStats() installs the frozen image's copy.
     * Immutable once published — lanes share it. The lazy build is a
     * functional pass (zero simulated time), so deferring it off the
     * load path costs nothing in ticks and saves wall clock for
     * workloads that never consult statistics.
     */
    std::shared_ptr<const TableStats> stats() const;

    void
    setStats(std::shared_ptr<const TableStats> stats)
    {
        stats_ = std::move(stats);
    }

  private:
    std::vector<fs::FileSystem *> shard_fs_;
    std::string name_;
    std::string file_;
    Schema schema_;
    Bytes page_size_;
    std::uint64_t rows_per_page_;
    std::uint64_t row_count_ = 0;
    std::uint64_t page_count_ = 0;
    // True only after load(): attach constructors must keep stats()
    // null (lanes adopt the frozen image's copy instead of
    // rebuilding).
    bool stats_buildable_ = false;
    mutable std::shared_ptr<const TableStats> stats_;
};

/**
 * Bulk load (zero time, like the paper's offline TPC-H population),
 * replacing the table's previous contents. The caller takes one slot
 * per row and writes its cells (Schema::setCell); the loader packs the
 * slots into pages and installs each full page on its shard: global
 * page g lands on shard g % N at local page g / N, so row packing, and
 * thus the logical page sequence, is shard-count invariant. The rows
 * are the table's once the loader is destroyed.
 */
class Table::Loader
{
  public:
    explicit Loader(Table &table);
    ~Loader();

    Loader(const Loader &) = delete;
    Loader &operator=(const Loader &) = delete;

    /** The next row's slot: rowWidth() zero bytes to fill. */
    std::uint8_t *
    slot()
    {
        if (used_ + width_ > page_.size())
            flushPage();
        std::uint8_t *s = page_.data() + used_;
        used_ += width_;
        ++table_.row_count_;
        return s;
    }

  private:
    /** Install the packed page and start a zeroed one. */
    void flushPage();

    Table &table_;
    Bytes width_;
    std::vector<std::uint8_t> page_;
    Bytes used_ = 0;
    std::uint64_t page_idx_ = 0;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_TABLE_H_
