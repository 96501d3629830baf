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
#include <string>
#include <string_view>
#include <type_traits>
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

/** Append @p v's "%.2f" text (valueToString's), all of it, to @p out. */
void appendDoubleText(std::string &out, double v);

/** Whether @p t is stored as fixed-width text (String, Date). */
inline bool
isText(Type t)
{
    return t == Type::String || t == Type::Date;
}

/** A text cell of @p width bytes, up to its first NUL. */
inline std::string_view
cellText(const std::uint8_t *cell, Bytes width)
{
    const auto *p = reinterpret_cast<const char *>(cell);
    const void *nul = std::memchr(p, '\0', width);
    return {p, nul != nullptr ? static_cast<std::size_t>(
                                    static_cast<const char *>(nul) - p)
                              : width};
}

/** An Int64 (@p is_int) or Double cell as a double, as RowRef::num. */
inline double
cellNum(const std::uint8_t *cell, bool is_int)
{
    if (is_int) {
        std::int64_t v;
        std::memcpy(&v, cell, 8);
        return static_cast<double>(v);
    }
    double v;
    std::memcpy(&v, cell, 8);
    return v;
}

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

/**
 * Write one cell, every byte of it: an std::int64_t into an Int64
 * cell, a double into a Double cell, text into a String or Date cell
 * of @p width bytes (cut to the width, NUL padded). The one way a
 * value becomes cell bytes (Schema::setCell, RowSet::addColumn).
 */
inline void
writeCell(Bytes, std::int64_t v, std::uint8_t *cell)
{
    std::memcpy(cell, &v, 8);
}

inline void
writeCell(Bytes, double v, std::uint8_t *cell)
{
    std::memcpy(cell, &v, 8);
}

inline void
writeCell(Bytes width, std::string_view v, std::uint8_t *cell)
{
    const std::size_t n = std::min<std::size_t>(v.size(), width);
    std::memcpy(cell, v.data(), n);
    std::memset(cell + n, 0, width - n);
}

/** Panic unless a cell of type @p T (writeCell's) fits column @p c. */
template <class T>
void
checkCellType(const Column &c)
{
    using V = std::decay_t<T>;
    if constexpr (std::is_same_v<V, std::int64_t>) {
        BISC_ASSERT(c.type == Type::Int64, "an Int64 cell for column '",
                    c.name, "'");
    } else if constexpr (std::is_same_v<V, double>) {
        BISC_ASSERT(c.type == Type::Double, "a Double cell for column '",
                    c.name, "'");
    } else {
        static_assert(std::is_convertible_v<V, std::string_view>,
                      "a cell is std::int64_t, double or text");
        BISC_ASSERT(isText(c.type), "a text cell for column '", c.name,
                    "'");
    }
}

class Schema
{
  public:
    Schema() = default;
    explicit Schema(std::vector<Column> columns);

    const std::vector<Column> &columns() const { return columns_; }
    std::size_t size() const { return columns_.size(); }
    const Column &at(std::size_t i) const { return columns_.at(i); }

    /**
     * Column index by name; panics when absent, and when two columns
     * share the name (a joined schema of tables that both have it).
     */
    int indexOf(const std::string &name) const;

    /** Byte offset of column @p i within a row slot. */
    Bytes offsetOf(std::size_t i) const { return offsets_.at(i); }

    /** Total fixed row width. */
    Bytes rowWidth() const { return row_width_; }

    /**
     * Write @p v into column @p col of @p slot (writeCell); panics
     * unless @p v's type fits the column (checkCellType).
     */
    template <class T>
    void
    setCell(std::uint8_t *slot, std::size_t col, const T &v) const
    {
        const Column &c = columns_[col];
        checkCellType<T>(c);
        writeCell(c.width, v, slot + offsets_[col]);
    }

    /** Write every cell of @p row into @p out (setCell per column). */
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
        return cellNum(at(col), t == Type::Int64);
    }

    /** A String or Date column, up to its first NUL. */
    std::string_view
    str(int col) const
    {
        const Column &c = schema_->at(static_cast<std::size_t>(col));
        BISC_ASSERT(isText(c.type), "str() of a numeric column");
        return cellText(at(col), c.width);
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
 * One Int64 or Double column, resolved once (offset and type) and
 * read from any slot of its schema as a double (RowRef::num's value)
 * without a schema lookup.
 */
class NumColumn
{
  public:
    NumColumn(const Schema &s, int col)
        : off_(s.offsetOf(static_cast<std::size_t>(col))),
          is_int_(s.at(static_cast<std::size_t>(col)).type == Type::Int64)
    {
        BISC_ASSERT(is_int_ || s.at(static_cast<std::size_t>(col)).type ==
                                   Type::Double,
                    "NumColumn of a text column");
    }

    double
    operator()(const std::uint8_t *slot) const
    {
        return cellNum(slot + off_, is_int_);
    }

    double operator()(RowRef r) const { return (*this)(r.data()); }

  private:
    Bytes off_;
    bool is_int_;
};

/**
 * Copy @p n bytes between buffers that do not overlap, as 8-, 4-, 2-
 * and 1-byte moves of constant width, which the compiler inlines: no
 * library call per cell or row. A copy of at least 8 bytes ends with
 * one 8-byte move over its last word, which may overlap the word
 * before it.
 */
inline void
copyCells(std::uint8_t *dst, const std::uint8_t *src, Bytes n)
{
    if (n >= 8) {
        for (Bytes at = 0; at + 8 < n; at += 8)
            std::memcpy(dst + at, src + at, 8);
        std::memcpy(dst + n - 8, src + n - 8, 8);
    } else if (n >= 4) {
        std::memcpy(dst, src, 4);
        std::memcpy(dst + n - 4, src + n - 4, 4);
    } else if (n >= 2) {
        std::memcpy(dst, src, 2);
        std::memcpy(dst + n - 2, src + n - 2, 2);
    } else if (n == 1) {
        *dst = *src;
    }
}

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
     * Append column @p c, computed per row by the typed cell function
     * @p fn, widening the buffer in place: it grows once, then each
     * row moves up to its wider slot and gets its new cell, last row
     * first. A row whose old and new slots do not overlap moves with
     * copyCells(); only the first few rows, which overlap their new
     * slot, need memmove. @p fn(RowRef) returns the cell as @p c
     * stores it: an std::int64_t for Int64, a double for Double, text
     * (anything a std::string_view views; longer text is cut to the
     * width) for String and Date; writeCell() writes it. @p fn must be
     * pure (a function of the row it is given alone), because rows are
     * visited last to first and the set is mid-re-layout while it
     * runs.
     */
    template <class Fn>
    void
    addColumn(const Column &c, const Fn &fn)
    {
        checkCellType<std::invoke_result_t<const Fn &, RowRef>>(c);
        Schema wider = widenFor(c);
        const Bytes old_w = rowWidth();
        const Bytes new_w = wider.rowWidth();
        // Back to front: row i moves up to i * new_w, over bytes of
        // rows already moved, never over a row still to move. Its old
        // slot starts i * (new_w - old_w) bytes below the new one.
        for (std::size_t i = rows_; i-- > 0;) {
            std::uint8_t *dst = data_ + i * new_w;
            const std::uint8_t *src = data_ + i * old_w;
            if (i * (new_w - old_w) >= old_w)
                copyCells(dst, src, old_w);
            else
                std::memmove(dst, src, old_w);
            writeCell(c.width, fn(RowRef(dst, schema_)), dst + old_w);
        }
        schema_ = std::move(wider);
    }

    /** Decode every row (the query-output boundary). */
    std::vector<Row> toRows() const;

  private:
    /** This schema plus @p c, with the buffer grown to hold it. */
    Schema widenFor(const Column &c);

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
