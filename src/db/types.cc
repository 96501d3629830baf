#include "db/types.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

namespace bisc::db {

std::string
makeDate(int year, int month, int day)
{
    if (year < 0 || year > 9999 || month < 0 || month > 99 || day < 0 ||
        day > 99) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month,
                      day);
        return std::string(buf, 10);
    }
    // Same bytes as the "%04d-%02d-%02d" fallback, digit by digit.
    std::string s(10, '-');
    s[0] = static_cast<char>('0' + year / 1000);
    s[1] = static_cast<char>('0' + year / 100 % 10);
    s[2] = static_cast<char>('0' + year / 10 % 10);
    s[3] = static_cast<char>('0' + year % 10);
    s[5] = static_cast<char>('0' + month / 10);
    s[6] = static_cast<char>('0' + month % 10);
    s[8] = static_cast<char>('0' + day / 10);
    s[9] = static_cast<char>('0' + day % 10);
    return s;
}

namespace {

/** Howard Hinnant's civil-days algorithm. */
std::int64_t
daysFromCivil(std::int64_t y, unsigned m, unsigned d)
{
    y -= m <= 2;
    const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void
civilFromDays(std::int64_t z, std::int64_t &y, unsigned &m, unsigned &d)
{
    z += 719468;
    const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    y = static_cast<std::int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    d = doy - (153 * mp + 2) / 5 + 1;
    m = mp + (mp < 10 ? 3 : -9);
    y += (m <= 2);
}

}  // namespace

std::int64_t
dateToDays(std::string_view date)
{
    BISC_ASSERT(date.size() == 10, "bad date: '", date, "'");
    auto digits = [&](std::size_t pos, std::size_t n, int &out) {
        out = 0;
        for (std::size_t i = pos; i < pos + n; ++i) {
            if (date[i] < '0' || date[i] > '9')
                return false;
            out = out * 10 + (date[i] - '0');
        }
        return true;
    };
    int y = 0, m = 0, d = 0;
    if (!digits(0, 4, y) || !digits(5, 2, m) || !digits(8, 2, d)) {
        // Signs, blanks and the like: std::stoi's rules.
        y = std::stoi(std::string(date.substr(0, 4)));
        m = std::stoi(std::string(date.substr(5, 2)));
        d = std::stoi(std::string(date.substr(8, 2)));
    }
    return daysFromCivil(y, static_cast<unsigned>(m),
                         static_cast<unsigned>(d));
}

std::string
daysToDate(std::int64_t days)
{
    std::int64_t y;
    unsigned m, d;
    civilFromDays(days, y, m, d);
    return makeDate(static_cast<int>(y), static_cast<int>(m),
                    static_cast<int>(d));
}

std::string
dateAddDays(const std::string &date, std::int64_t days)
{
    return daysToDate(dateToDays(date) + days);
}

int
compareValues(const Value &a, const Value &b)
{
    if (std::holds_alternative<std::string>(a)) {
        BISC_ASSERT(std::holds_alternative<std::string>(b),
                    "comparing string with numeric");
        const auto &x = std::get<std::string>(a);
        const auto &y = std::get<std::string>(b);
        return x < y ? -1 : (x == y ? 0 : 1);
    }
    double x = std::holds_alternative<std::int64_t>(a)
                   ? static_cast<double>(std::get<std::int64_t>(a))
                   : std::get<double>(a);
    BISC_ASSERT(!std::holds_alternative<std::string>(b),
                "comparing numeric with string");
    double y = std::holds_alternative<std::int64_t>(b)
                   ? static_cast<double>(std::get<std::int64_t>(b))
                   : std::get<double>(b);
    return x < y ? -1 : (x == y ? 0 : 1);
}

std::string
valueToString(const Value &v)
{
    if (std::holds_alternative<std::int64_t>(v))
        return std::to_string(std::get<std::int64_t>(v));
    if (std::holds_alternative<double>(v)) {
        std::string s;
        appendDoubleText(s, std::get<double>(v));
        return s;
    }
    return std::get<std::string>(v);
}

void
appendDoubleText(std::string &out, double v)
{
    // Room for any finite double: a sign, 309 integer digits, the
    // point, two decimals and the NUL.
    char buf[std::numeric_limits<double>::max_exponent10 + 6];
    const int n = std::snprintf(buf, sizeof(buf), "%.2f", v);
    out.append(buf, static_cast<std::size_t>(n));
}

Schema::Schema(std::vector<Column> columns)
    : columns_(std::move(columns))
{
    offsets_.reserve(columns_.size());
    for (const auto &c : columns_) {
        offsets_.push_back(row_width_);
        row_width_ += c.width;
    }
    BISC_ASSERT(row_width_ > 0, "empty schema");
}

int
Schema::indexOf(const std::string &name) const
{
    int found = -1;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name != name)
            continue;
        BISC_ASSERT(found < 0, "ambiguous column: ", name, " (columns ",
                    found, " and ", i, ")");
        found = static_cast<int>(i);
    }
    if (found < 0)
        BISC_PANIC("no such column: ", name);
    return found;
}

void
Schema::encodeRow(const std::vector<Value> &row, std::uint8_t *out) const
{
    BISC_ASSERT(row.size() == columns_.size(), "row arity mismatch");
    for (std::size_t i = 0; i < columns_.size(); ++i)
        std::visit([&](const auto &v) { setCell(out, i, v); }, row[i]);
}

std::vector<Value>
Schema::decodeRow(const std::uint8_t *slot) const
{
    std::vector<Value> row;
    row.reserve(columns_.size());
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        const Column &c = columns_[i];
        const std::uint8_t *src = slot + offsets_[i];
        switch (c.type) {
          case Type::Int64: {
            std::int64_t v;
            std::memcpy(&v, src, 8);
            row.emplace_back(v);
            break;
          }
          case Type::Double: {
            double v;
            std::memcpy(&v, src, 8);
            row.emplace_back(v);
            break;
          }
          case Type::String:
          case Type::Date:
            row.emplace_back(std::in_place_type<std::string>,
                             cellText(src, c.width));
            break;
        }
    }
    return row;
}

Schema
Schema::concat(const Schema &a, const Schema &b)
{
    std::vector<Column> cols = a.columns_;
    cols.insert(cols.end(), b.columns_.begin(), b.columns_.end());
    return Schema(std::move(cols));
}

RowSet::RowSet(const RowSet &other) : schema_(other.schema_)
{
    append(other, 0, other.rows_);
}

RowSet::RowSet(RowSet &&other) noexcept
    : schema_(std::move(other.schema_)),
      data_(std::exchange(other.data_, nullptr)),
      cap_(std::exchange(other.cap_, 0)),
      rows_(std::exchange(other.rows_, 0))
{}

RowSet &
RowSet::operator=(RowSet other) noexcept
{
    std::swap(schema_, other.schema_);
    std::swap(data_, other.data_);
    std::swap(cap_, other.cap_);
    std::swap(rows_, other.rows_);
    return *this;
}

void
RowSet::grow(std::size_t bytes)
{
    auto *p = static_cast<std::uint8_t *>(std::realloc(data_, bytes));
    BISC_ASSERT(p != nullptr, "out of memory for ", bytes,
                " bytes of rows");
    data_ = p;
    cap_ = bytes;
}

void
RowSet::append(const RowSet &other, std::size_t first, std::size_t n)
{
    BISC_ASSERT(other.rowWidth() == rowWidth(), "row layout mismatch");
    if (n > 0)
        std::memcpy(appendSlots(n), other.slot(first), n * rowWidth());
}

void
RowSet::appendRow(const Row &row)
{
    schema_.encodeRow(row, appendSlots(1));
}

Schema
RowSet::widenFor(const Column &c)
{
    std::vector<Column> cols = schema_.columns();
    cols.push_back(c);
    Schema wider(std::move(cols));
    if (rows_ * wider.rowWidth() > cap_)
        grow(rows_ * wider.rowWidth());
    return wider;
}

std::vector<Row>
RowSet::toRows() const
{
    std::vector<Row> rows;
    rows.reserve(rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        rows.push_back(schema_.decodeRow(slot(i)));
    return rows;
}

}  // namespace bisc::db
