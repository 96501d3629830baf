/**
 * @file
 * MiniDB value and schema types.
 *
 * Rows are stored in fixed-width slots so that (a) rows never straddle
 * pages — making page-granular pattern-matcher filtering exact at the
 * page level — and (b) date and string fields appear as plain text the
 * channel matcher can key on (e.g. "1995-09" hits every September-1995
 * date in a page).
 */

#ifndef BISCUIT_DB_TYPES_H_
#define BISCUIT_DB_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/common.h"
#include "util/log.h"

namespace bisc::db {

enum class Type {
    Int64,   ///< 8-byte little-endian
    Double,  ///< 8-byte IEEE754
    String,  ///< fixed width, NUL padded
    Date,    ///< "YYYY-MM-DD", 10 bytes
};

using Value = std::variant<std::int64_t, double, std::string>;

/** Build a zero-padded date string. */
std::string makeDate(int year, int month, int day);

/**
 * Days since 1970-01-01 for a date string (civil calendar). All-digit
 * "YYYY-MM-DD" parses in place; other text follows std::stoi's rules.
 */
std::int64_t dateToDays(std::string_view date);

/** Inverse of dateToDays. */
std::string daysToDate(std::int64_t days);

/** Add @p days to a date string. */
std::string dateAddDays(const std::string &date, std::int64_t days);

/** Three-way comparison; panics on mixed incomparable types. */
int compareValues(const Value &a, const Value &b);

/** Readable form for debugging and result dumps. */
std::string valueToString(const Value &v);

struct Column
{
    std::string name;
    Type type = Type::Int64;
    Bytes width = 8;  ///< storage width (8 for numerics)
};

/** Fixed-width column helper. */
inline Column
col(std::string name, Type type, Bytes width = 0)
{
    Column c;
    c.name = std::move(name);
    c.type = type;
    switch (type) {
      case Type::Int64:
      case Type::Double:
        c.width = 8;
        break;
      case Type::Date:
        c.width = 10;
        break;
      case Type::String:
        BISC_ASSERT(width > 0, "string column '", c.name,
                    "' needs a width");
        c.width = width;
        break;
    }
    return c;
}

class Schema
{
  public:
    Schema() = default;
    explicit Schema(std::vector<Column> columns);

    const std::vector<Column> &columns() const { return columns_; }
    std::size_t size() const { return columns_.size(); }
    const Column &at(std::size_t i) const { return columns_.at(i); }

    /** Column index by name; panics when absent. */
    int indexOf(const std::string &name) const;

    /** Byte offset of column @p i within a row slot. */
    Bytes offsetOf(std::size_t i) const { return offsets_.at(i); }

    /** Total fixed row width. */
    Bytes rowWidth() const { return row_width_; }

    /** Encode @p row into @p out (rowWidth() bytes). */
    void encodeRow(const std::vector<Value> &row,
                   std::uint8_t *out) const;

    /** Decode a row slot. */
    std::vector<Value> decodeRow(const std::uint8_t *slot) const;

    /** @p a's columns followed by @p b's (the joined row layout). */
    static Schema concat(const Schema &a, const Schema &b);

  private:
    std::vector<Column> columns_;
    std::vector<Bytes> offsets_;
    Bytes row_width_ = 0;
};

using Row = std::vector<Value>;

/**
 * Read-only view of one packed row slot under its schema. Accessors
 * read the slot bytes in place; nothing is decoded or allocated.
 */
class RowRef
{
  public:
    RowRef(const std::uint8_t *slot, const Schema &schema)
        : slot_(slot), schema_(&schema)
    {}

    const std::uint8_t *data() const { return slot_; }

    /** An Int64 column. */
    std::int64_t
    i64(int col) const
    {
        BISC_ASSERT(type(col) == Type::Int64,
                    "i64() of a non-Int64 column");
        std::int64_t v;
        std::memcpy(&v, at(col), 8);
        return v;
    }

    /** An Int64 or Double column as a double. */
    double
    num(int col) const
    {
        const Type t = type(col);
        BISC_ASSERT(t == Type::Int64 || t == Type::Double,
                    "num() of a text column");
        if (t == Type::Int64)
            return static_cast<double>(i64(col));
        double v;
        std::memcpy(&v, at(col), 8);
        return v;
    }

    /** A String or Date column, up to its first NUL. */
    std::string_view
    str(int col) const
    {
        const Column &c = schema_->at(static_cast<std::size_t>(col));
        BISC_ASSERT(c.type == Type::String || c.type == Type::Date,
                    "str() of a numeric column");
        const char *p = reinterpret_cast<const char *>(at(col));
        Bytes n = 0;
        while (n < c.width && p[n] != '\0')
            ++n;
        return {p, n};
    }

  private:
    Type
    type(int col) const
    {
        return schema_->at(static_cast<std::size_t>(col)).type;
    }

    const std::uint8_t *
    at(int col) const
    {
        return slot_ + schema_->offsetOf(static_cast<std::size_t>(col));
    }

    const std::uint8_t *slot_;
    const Schema *schema_;
};

/**
 * The rows that flow between host operators: a Schema plus one
 * contiguous buffer of fixed-width slots in the table layout
 * (Schema::encodeRow). Appending a row is a memcpy; a Row is decoded
 * only by toRows(), at a query's output.
 */
class RowSet
{
  public:
    RowSet() = default;
    explicit RowSet(Schema schema) : schema_(std::move(schema)) {}
    RowSet(const RowSet &other);
    RowSet(RowSet &&other) noexcept;
    RowSet &operator=(RowSet other) noexcept;
    ~RowSet() { std::free(data_); }

    const Schema &schema() const { return schema_; }
    Bytes rowWidth() const { return schema_.rowWidth(); }
    std::size_t size() const { return rows_; }
    bool empty() const { return rows_ == 0; }

    const std::uint8_t *
    slot(std::size_t i) const
    {
        return data_ + i * rowWidth();
    }

    RowRef operator[](std::size_t i) const { return {slot(i), schema_}; }

    /** Make room for @p rows rows in total. */
    void
    reserve(std::size_t rows)
    {
        if (rows * rowWidth() > cap_)
            grow(rows * rowWidth());
    }

    /**
     * Append @p n slots and return the first; the caller writes every
     * byte of them.
     */
    std::uint8_t *
    appendSlots(std::size_t n)
    {
        const std::size_t off = rows_ * rowWidth();
        const std::size_t need = off + n * rowWidth();
        if (need > cap_)
            grow(std::max(need, 2 * cap_));
        rows_ += n;
        return data_ + off;
    }

    /** Append a copy of one slot (rowWidth() bytes). */
    void
    append(const std::uint8_t *slot)
    {
        std::memcpy(appendSlots(1), slot, rowWidth());
    }

    /** Append rows [first, first + n) of @p other (same layout). */
    void append(const RowSet &other, std::size_t first, std::size_t n);

    /** Encode and append @p row. */
    void appendRow(const Row &row);

    /** Keep the first @p n rows. */
    void truncate(std::size_t n) { rows_ = std::min(rows_, n); }

    /**
     * Append column @p c, computed per row by @p fn, widening the
     * buffer in place: it grows once, then each row moves up to its
     * wider slot and gets its new cell, last row first. @p fn must be
     * pure (a function of the row it is given alone), because rows are
     * visited last to first and the set is mid-re-layout while it
     * runs. @p c is an 8-byte numeric column or a fixed-width string
     * column (longer values are cut to its width).
     */
    void addColumn(const Column &c,
                   const std::function<Value(RowRef)> &fn);

    /**
     * Write column @p col of every row, computed by @p fn, in place:
     * the slots already hold the column (a scan asked for it with
     * scanTablePacked's @p computed), so nothing moves. Each cell is
     * encoded as addColumn would encode it.
     */
    void fillColumn(int col, const std::function<Value(RowRef)> &fn);

    /** Decode every row (the query-output boundary). */
    std::vector<Row> toRows() const;

  private:
    /**
     * Set the capacity to @p bytes. realloc() grows a large buffer by
     * remapping its pages rather than copying them, and leaves the new
     * bytes unwritten (every appender fills what it appends).
     */
    void grow(std::size_t bytes);

    Schema schema_;
    std::uint8_t *data_ = nullptr;  ///< malloc'd slot buffer
    std::size_t cap_ = 0;           ///< bytes allocated at data_
    std::size_t rows_ = 0;
};

}  // namespace bisc::db

#endif  // BISCUIT_DB_TYPES_H_
