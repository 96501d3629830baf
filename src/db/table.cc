#include "db/table.h"

#include <algorithm>
#include <cstring>

#include "db/stats.h"

namespace bisc::db {

Table::Table(std::vector<fs::FileSystem *> shards, std::string name,
             Schema schema)
    : shard_fs_(std::move(shards)), name_(std::move(name)),
      file_("/db/" + name_ + ".tbl"), schema_(std::move(schema)),
      page_size_(shard_fs_.at(0)->pageSize()),
      rows_per_page_(page_size_ / schema_.rowWidth())
{
    BISC_ASSERT(rows_per_page_ > 0, "row wider than a page in table ",
                name_);
    for (const fs::FileSystem *s : shard_fs_) {
        BISC_ASSERT(s->pageSize() == page_size_,
                    "shard page sizes differ in table ", name_);
    }
}

Table::Table(std::vector<fs::FileSystem *> shards, std::string name,
             Schema schema, std::uint64_t row_count)
    : Table(std::move(shards), std::move(name), std::move(schema))
{
    row_count_ = row_count;
    page_count_ = divCeil<std::uint64_t>(row_count_, rows_per_page_);
    for (std::uint32_t s = 0; s < shardCount(); ++s) {
        if (shardPageCount(s) > 0) {
            BISC_ASSERT(shard_fs_[s]->exists(file_),
                        "attach to missing file ", file_,
                        " on shard ", s);
        }
    }
}

Table::Table(fs::FileSystem &fs, std::string name, Schema schema)
    : Table(std::vector<fs::FileSystem *>{&fs}, std::move(name),
            std::move(schema))
{}

Table::Table(fs::FileSystem &fs, std::string name, Schema schema,
             std::uint64_t row_count)
    : Table(std::vector<fs::FileSystem *>{&fs}, std::move(name),
            std::move(schema), row_count)
{}

Table::Loader::Loader(Table &table)
    : table_(table), width_(table.rowWidth()), page_(table.page_size_, 0)
{
    for (fs::FileSystem *s : table_.shard_fs_) {
        if (s->exists(table_.file_))
            s->remove(table_.file_);
        s->create(table_.file_);
    }
    table_.row_count_ = 0;
}

void
Table::Loader::flushPage()
{
    const std::size_t shards = table_.shard_fs_.size();
    fs::FileSystem &sfs = *table_.shard_fs_[page_idx_ % shards];
    std::uint64_t local = page_idx_ / shards;
    sfs.ensureSize(table_.file_, (local + 1) * page_.size());
    ftl::Lpn lpn = sfs.lpnAt(table_.file_, local * page_.size());
    sfs.device().ftl().install(lpn, page_.data(), page_.size());
    ++page_idx_;
    std::fill(page_.begin(), page_.end(), 0);
    used_ = 0;
}

Table::Loader::~Loader()
{
    if (used_ > 0)
        flushPage();
    table_.page_count_ = page_idx_;

    // Statistics ride the same offline population (two functional
    // passes, zero simulated time) but are built lazily by stats():
    // workloads that never consult them pay nothing.
    table_.stats_buildable_ = true;
    table_.stats_.reset();
}

std::shared_ptr<const TableStats>
Table::stats() const
{
    if (!stats_ && stats_buildable_)
        stats_ = buildTableStats(*this);
    return stats_;
}

void
Table::loadRows(const std::vector<Row> &rows)
{
    Loader load(*this);
    for (const Row &row : rows)
        schema_.encodeRow(row, load.slot());
}

Row
Table::rowAt(std::uint64_t index) const
{
    BISC_ASSERT(index < row_count_, "row index out of range");
    std::uint64_t page = index / rows_per_page_;
    std::uint64_t slot = index % rows_per_page_;
    std::vector<std::uint8_t> buf(schema_.rowWidth());
    shard_fs_[page % shard_fs_.size()]->peek(
        file_,
        (page / shard_fs_.size()) * page_size_ +
            slot * schema_.rowWidth(),
        buf.size(), buf.data());
    return schema_.decodeRow(buf.data());
}

std::uint64_t
Table::rowsInPage(std::uint64_t page) const
{
    if (page + 1 < page_count_)
        return rows_per_page_;
    if (page + 1 == page_count_) {
        std::uint64_t rem = row_count_ % rows_per_page_;
        return rem == 0 ? rows_per_page_ : rem;
    }
    return 0;
}

void
Table::forEachRow(const std::function<void(const Row &)> &fn) const
{
    std::vector<std::uint8_t> page(page_size_);
    for (std::uint64_t p = 0; p < page_count_; ++p) {
        shard_fs_[p % shard_fs_.size()]->peek(
            file_, (p / shard_fs_.size()) * page_size_, page_size_,
            page.data());
        std::uint64_t n = rowsInPage(p);
        for (std::uint64_t i = 0; i < n; ++i)
            fn(schema_.decodeRow(page.data() +
                                 i * schema_.rowWidth()));
    }
}

}  // namespace bisc::db
