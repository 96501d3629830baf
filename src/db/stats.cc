#include "db/stats.h"

#include <algorithm>
#include <cstring>

#include "db/minidb.h"

namespace bisc::db {

namespace {

/** One column's slot layout, resolved once per statistics build. */
struct ColumnPlan
{
    Type type;
    Bytes offset;
    Bytes width;
};

bool
looksLikeDate(std::string_view t)
{
    return t.size() == 10 && t[4] == '-' && t[7] == '-';
}

/**
 * Fold rows [0, @p n) of one numeric column (slots @p stride bytes
 * apart from @p col; Int64 when @p is_int, else Double) into @p z.
 * @p fresh: the chunk has no rows yet, so its bounds start at the
 * first row.
 */
void
numericZone(const std::uint8_t *col, std::uint64_t n, Bytes stride,
            bool is_int, bool fresh, ColumnZone &z)
{
    std::uint64_t i = 0;
    double lo = z.num_min, hi = z.num_max;
    if (fresh && n > 0) {
        lo = hi = cellNum(col, is_int);
        i = 1;
    }
    for (; i < n; ++i) {
        const double v = cellNum(col + i * stride, is_int);
        if (v < lo)
            lo = v;
        if (v > hi)
            hi = v;
    }
    z.num_min = lo;
    z.num_max = hi;
}

/**
 * Three-way order of cellText(@p slot, @p width) against @p bound
 * (which holds no NUL), as unsigned bytes. A NUL in the slot sorts
 * below every bound byte, so one memcmp over the bound's length
 * decides unless the slot starts with the whole bound; then the slot
 * is greater exactly when its text goes on past it.
 */
int
compareSlot(const std::uint8_t *slot, Bytes width, const std::string &bound)
{
    const int c = std::memcmp(slot, bound.data(), bound.size());
    if (c != 0)
        return c;
    return bound.size() < width && slot[bound.size()] != '\0' ? 1 : 0;
}

/**
 * The text counterpart of numericZone: slots compare in place, and a
 * bound is copied out of a slot only when it moves.
 */
void
textZone(const std::uint8_t *col, std::uint64_t n, Bytes stride,
         Bytes width, bool fresh, ColumnZone &z)
{
    std::uint64_t i = 0;
    if (fresh && n > 0) {
        const std::string_view t = cellText(col, width);
        z.str_min.assign(t);
        z.str_max.assign(t);
        i = 1;
    }
    for (; i < n; ++i) {
        const std::uint8_t *slot = col + i * stride;
        if (compareSlot(slot, width, z.str_min) < 0)
            z.str_min.assign(cellText(slot, width));
        else if (compareSlot(slot, width, z.str_max) > 0)
            z.str_max.assign(cellText(slot, width));
    }
}

/**
 * dateToDays of Date slots, memoized by the slot's ten date bytes. A
 * column's dates repeat (TPC-H has about 2.5k distinct days), and the
 * memo is a plain cache, so every value is exactly dateToDays'.
 */
class DayMemo
{
  public:
    /** False when the slot's text is not date-shaped (looksLikeDate). */
    bool
    operator()(const std::uint8_t *slot, Bytes width, double *out)
    {
        // Any other slot's text is not ten bytes long.
        if (width < 10 || (width > 10 && slot[10] != '\0'))
            return false;
        std::uint64_t h = 0;
        std::memcpy(&h, slot + 2, 8);  // "YY-MM-DD" varies the most
        Entry &e = memo_[(h * 0x9e3779b97f4a7c15ull) >> 52];
        if (std::memcmp(e.key, slot, 10) != 0) {
            std::memcpy(e.key, slot, 10);
            const std::string_view t = cellText(slot, 10);
            e.is_date = looksLikeDate(t);
            e.days = e.is_date ? static_cast<double>(dateToDays(t)) : 0.0;
        }
        *out = e.days;
        return e.is_date;
    }

  private:
    /** A zeroed entry is already right: ten NULs are not a date. */
    struct Entry
    {
        std::uint8_t key[10] = {};
        bool is_date = false;
        double days = 0.0;
    };
    std::vector<Entry> memo_ = std::vector<Entry>(1 << 12);
};

/** Call @p fn with the day number of every date-shaped Date slot. */
template <class Fn>
void
forEachDay(DayMemo &days, const std::uint8_t *col, std::uint64_t n,
           Bytes stride, Bytes width, Fn &&fn)
{
    double d = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (days(col + i * stride, width, &d))
            fn(d);
    }
}

/** Running [lo, hi] of one column's histogram domain. */
struct Domain
{
    double lo = 0.0;
    double hi = 0.0;
    bool seen = false;

    void
    add(double v)
    {
        if (!seen || v < lo)
            lo = v;
        if (!seen || v > hi)
            hi = v;
        seen = true;
    }
};

/**
 * Counts values into one histogram's equal-width buckets; count() is
 * the number counted, for the histogram's total.
 */
class BucketFill
{
  public:
    explicit BucketFill(EqualWidthHistogram &h)
        : lo_(h.lo),
          width_((h.hi - h.lo) / static_cast<double>(h.buckets.size())),
          last_(h.buckets.size() - 1), spread_(h.hi > h.lo),
          buckets_(h.buckets.data())
    {}

    void
    operator()(double v)
    {
        std::size_t b = 0;
        if (spread_) {
            b = std::min(last_,
                         static_cast<std::size_t>((v - lo_) / width_));
        }
        ++buckets_[b];
        ++count_;
    }

    std::uint64_t count() const { return count_; }

  private:
    double lo_;
    double width_;
    std::size_t last_;
    bool spread_;
    std::uint64_t *buckets_;
    std::uint64_t count_ = 0;
};

/**
 * Numeric-domain value of predicate constant @p v against column
 * @p column (Date columns map through dateToDays). False when the
 * constant is not representable in the column's histogram domain.
 */
bool
predValueToDouble(const Schema &s, int column, const Value &v,
                  double *out)
{
    Type t = s.at(static_cast<std::size_t>(column)).type;
    if (t == Type::Date) {
        const auto *str = std::get_if<std::string>(&v);
        if (str == nullptr || !looksLikeDate(*str))
            return false;
        *out = static_cast<double>(dateToDays(*str));
        return true;
    }
    if (t == Type::Int64 || t == Type::Double) {
        if (const auto *i = std::get_if<std::int64_t>(&v)) {
            *out = static_cast<double>(*i);
            return true;
        }
        if (const auto *d = std::get_if<double>(&v)) {
            *out = *d;
            return true;
        }
    }
    return false;
}

double
clamp01(double v)
{
    return std::min(1.0, std::max(0.0, v));
}

/** Zone test of one comparison against [min, max]. */
template <class T>
bool
zoneCmpHolds(CmpOp op, const T &min, const T &max, const T &v)
{
    switch (op) {
      case CmpOp::Eq: return min <= v && v <= max;
      case CmpOp::Ne: return !(min == max && min == v);
      case CmpOp::Lt: return min < v;
      case CmpOp::Le: return min <= v;
      case CmpOp::Gt: return max > v;
      case CmpOp::Ge: return max >= v;
    }
    return true;
}

/**
 * The leading literal segment of a LIKE pattern (empty when the
 * pattern starts with '%').
 */
std::string
likePrefix(const std::string &pattern)
{
    std::string p;
    for (char c : pattern) {
        if (c == '%')
            break;
        p.push_back(c);
    }
    return p;
}

}  // namespace

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

double
EqualWidthHistogram::estimateLe(double v) const
{
    if (total == 0)
        return 0.0;
    if (hi <= lo)
        return v >= lo ? 1.0 : 0.0;
    if (v < lo)
        return 0.0;
    if (v >= hi)
        return 1.0;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    std::size_t b = std::min(
        buckets.size() - 1, static_cast<std::size_t>((v - lo) / width));
    double cum = 0.0;
    for (std::size_t i = 0; i < b; ++i)
        cum += static_cast<double>(buckets[i]);
    const double bucket_lo = lo + static_cast<double>(b) * width;
    const double frac = clamp01((v - bucket_lo) / width);
    cum += static_cast<double>(buckets[b]) * frac;
    return clamp01(cum / static_cast<double>(total));
}

double
EqualWidthHistogram::estimateEq(double v) const
{
    if (total == 0)
        return 0.0;
    if (hi <= lo)
        return v == lo ? 1.0 : 0.0;
    if (v < lo || v > hi)
        return 0.0;
    const double width =
        (hi - lo) / static_cast<double>(buckets.size());
    std::size_t b = std::min(
        buckets.size() - 1, static_cast<std::size_t>((v - lo) / width));
    // Uniform spread over the bucket's distinct values; integral
    // domains (keys, dates, quantities) have ~width of them. For
    // continuous domains this overestimates — the conservative
    // direction for an offload decision.
    const double distinct = std::max(1.0, width);
    return clamp01(static_cast<double>(buckets[b]) /
                   static_cast<double>(total) / distinct);
}

double
EqualWidthHistogram::estimateRange(double a, double b) const
{
    if (b < a)
        return 0.0;
    return clamp01(estimateLe(b) - estimateLe(a) + estimateEq(a));
}

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

std::shared_ptr<const TableStats>
buildTableStats(const Table &table)
{
    const Schema &s = table.schema();
    const std::size_t ncols = s.size();
    const Bytes page_size = table.pageSize();
    const Bytes stride = s.rowWidth();

    std::vector<ColumnPlan> plan;
    plan.reserve(ncols);
    for (std::size_t c = 0; c < ncols; ++c)
        plan.push_back({s.at(c).type, s.offsetOf(c), s.at(c).width});

    auto st = std::make_shared<TableStats>();
    st->row_count = table.rowCount();
    st->page_count = table.pageCount();
    st->hists.resize(ncols);

    std::vector<std::uint8_t> page(page_size);
    auto readPage = [&](std::uint64_t p) {
        table.shardFs(table.shardOf(p))
            .peek(table.file(), table.localPage(p) * page_size,
                  page_size, page.data());
    };

    // Pass 1: per-chunk zone maps, one column at a time within each
    // page. Date columns gather their day domain on the way; numeric
    // domains fold out of the chunk zones afterwards.
    std::vector<Domain> dom(ncols);
    DayMemo days;
    for (std::uint64_t p = 0; p < st->page_count; ++p) {
        if (p % kPagesPerChunk == 0) {
            ChunkStats chunk;
            chunk.first_page = p;
            chunk.cols.resize(ncols);
            st->chunks.push_back(std::move(chunk));
        }
        ChunkStats &chunk = st->chunks.back();
        ++chunk.page_count;
        readPage(p);
        const std::uint64_t n = table.rowsInPage(p);
        const bool fresh = chunk.row_count == 0;
        chunk.row_count += n;
        for (std::size_t c = 0; c < ncols; ++c) {
            const ColumnPlan &cp = plan[c];
            const std::uint8_t *col = page.data() + cp.offset;
            ColumnZone &z = chunk.cols[c];
            switch (cp.type) {
              case Type::Int64:
              case Type::Double:
                numericZone(col, n, stride, cp.type == Type::Int64, fresh,
                            z);
                break;
              case Type::Date:
                forEachDay(days, col, n, stride, cp.width,
                           [&d = dom[c]](double v) { d.add(v); });
                textZone(col, n, stride, cp.width, fresh, z);
                break;
              case Type::String:
                textZone(col, n, stride, cp.width, fresh, z);
                break;
            }
        }
    }
    // A column's domain is its first-seen extremes in row order, and
    // chunks are in row order, so folding chunk bounds is exact.
    for (std::size_t c = 0; c < ncols; ++c) {
        if (plan[c].type != Type::Int64 && plan[c].type != Type::Double)
            continue;
        for (const ChunkStats &chunk : st->chunks) {
            dom[c].add(chunk.cols[c].num_min);
            dom[c].add(chunk.cols[c].num_max);
        }
    }

    // Pass 2: equal-width histogram fill over the global domains,
    // visiting only the columns that carry a histogram.
    std::vector<std::size_t> hist_cols;
    for (std::size_t c = 0; c < ncols; ++c) {
        if (!dom[c].seen)
            continue;
        st->hists[c].lo = dom[c].lo;
        st->hists[c].hi = dom[c].hi;
        st->hists[c].buckets.assign(kHistogramBuckets, 0);
        hist_cols.push_back(c);
    }
    for (std::uint64_t p = 0; p < st->page_count && !hist_cols.empty();
         ++p) {
        readPage(p);
        const std::uint64_t n = table.rowsInPage(p);
        for (std::size_t c : hist_cols) {
            const ColumnPlan &cp = plan[c];
            const std::uint8_t *col = page.data() + cp.offset;
            EqualWidthHistogram &h = st->hists[c];
            BucketFill fill(h);
            switch (cp.type) {
              case Type::Int64:
              case Type::Double:
                for (std::uint64_t i = 0; i < n; ++i) {
                    fill(cellNum(col + i * stride,
                                 cp.type == Type::Int64));
                }
                break;
              case Type::Date:
                forEachDay(days, col, n, stride, cp.width, fill);
                break;
              case Type::String:
                break;
            }
            h.total += fill.count();
        }
    }
    return st;
}

// ---------------------------------------------------------------------
// Zone-map satisfiability
// ---------------------------------------------------------------------

bool
zoneCanMatch(const Expr &e, const Schema &schema,
             const ChunkStats &chunk)
{
    // Whether the predicate's column (for the kinds that name one) is
    // text.
    const bool text =
        e.column >= 0 &&
        isText(schema.at(static_cast<std::size_t>(e.column)).type);
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (text) {
            const auto *v = std::get_if<std::string>(&e.value);
            if (v == nullptr)
                return true;
            return zoneCmpHolds(e.op, z.str_min, z.str_max, *v);
        }
        double v;
        if (!predValueToDouble(schema, e.column, e.value, &v))
            return true;
        return zoneCmpHolds(e.op, z.num_min, z.num_max, v);
      }
      case Expr::Kind::Between: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (text) {
            const auto *lo = std::get_if<std::string>(&e.lo);
            const auto *hi = std::get_if<std::string>(&e.hi);
            if (lo == nullptr || hi == nullptr)
                return true;
            return z.str_min <= *hi && z.str_max >= *lo;
        }
        double lo, hi;
        if (!predValueToDouble(schema, e.column, e.lo, &lo) ||
            !predValueToDouble(schema, e.column, e.hi, &hi))
            return true;
        return z.num_min <= hi && z.num_max >= lo;
      }
      case Expr::Kind::In: {
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        for (const Value &v : e.set) {
            if (text) {
                const auto *t = std::get_if<std::string>(&v);
                if (t == nullptr ||
                    zoneCmpHolds(CmpOp::Eq, z.str_min, z.str_max, *t))
                    return true;
            } else {
                double d;
                if (!predValueToDouble(schema, e.column, v, &d) ||
                    zoneCmpHolds(CmpOp::Eq, z.num_min, z.num_max, d))
                    return true;
            }
        }
        return false;
      }
      case Expr::Kind::Like: {
        if (!text)
            return true;
        const std::string prefix = likePrefix(e.pattern);
        if (prefix.empty())
            return true;
        const ColumnZone &z =
            chunk.cols.at(static_cast<std::size_t>(e.column));
        if (z.str_max < prefix)
            return false;
        // Matching text lies in [prefix, next(prefix)); compute the
        // exclusive upper bound when a byte can be incremented
        // without leaving printable space, else stay conservative.
        std::string next = prefix;
        for (std::size_t i = next.size(); i-- > 0;) {
            if (static_cast<unsigned char>(next[i]) < 0x7e) {
                ++next[i];
                next.resize(i + 1);
                return z.str_min < next;
            }
        }
        return true;
      }
      case Expr::Kind::And:
        return std::all_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return zoneCanMatch(*k, schema, chunk);
                           });
      case Expr::Kind::Or:
        return std::any_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return zoneCanMatch(*k, schema, chunk);
                           });
      case Expr::Kind::CmpCol:
      case Expr::Kind::NotLike:
      case Expr::Kind::Not:
        return true;
    }
    return true;
}

// ---------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------

SelEstimate
estimateRowSelectivity(const Expr &e, const Schema &schema,
                       const TableStats &stats)
{
    SelEstimate out;
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        double v;
        if (h.empty() ||
            !predValueToDouble(schema, e.column, e.value, &v))
            return out;
        out.known = true;
        switch (e.op) {
          case CmpOp::Eq: out.sel = h.estimateEq(v); break;
          case CmpOp::Ne: out.sel = 1.0 - h.estimateEq(v); break;
          case CmpOp::Lt:
            out.sel = h.estimateLe(v) - h.estimateEq(v);
            break;
          case CmpOp::Le: out.sel = h.estimateLe(v); break;
          case CmpOp::Gt: out.sel = 1.0 - h.estimateLe(v); break;
          case CmpOp::Ge:
            out.sel = 1.0 - h.estimateLe(v) + h.estimateEq(v);
            break;
        }
        out.sel = clamp01(out.sel);
        return out;
      }
      case Expr::Kind::Between: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        double lo, hi;
        if (h.empty() ||
            !predValueToDouble(schema, e.column, e.lo, &lo) ||
            !predValueToDouble(schema, e.column, e.hi, &hi))
            return out;
        out.known = true;
        out.sel = h.estimateRange(lo, hi);
        return out;
      }
      case Expr::Kind::In: {
        const EqualWidthHistogram &h =
            stats.hists.at(static_cast<std::size_t>(e.column));
        if (h.empty())
            return out;
        double sum = 0.0;
        for (const Value &v : e.set) {
            double d;
            if (!predValueToDouble(schema, e.column, v, &d))
                return out;
            sum += h.estimateEq(d);
        }
        out.known = true;
        out.sel = clamp01(sum);
        return out;
      }
      case Expr::Kind::Not: {
        SelEstimate kid =
            estimateRowSelectivity(*e.kids.at(0), schema, stats);
        if (kid.known) {
            out.known = true;
            out.sel = clamp01(1.0 - kid.sel);
        }
        return out;
      }
      case Expr::Kind::And: {
        // Independence assumption; unknown conjuncts contribute 1.0
        // (they only narrow further, so the estimate is an upper
        // bound — the conservative direction for offloading).
        double sel = 1.0;
        for (const ExprPtr &k : e.kids) {
            SelEstimate kid =
                estimateRowSelectivity(*k, schema, stats);
            if (kid.known) {
                out.known = true;
                sel *= kid.sel;
            }
        }
        if (out.known)
            out.sel = clamp01(sel);
        return out;
      }
      case Expr::Kind::Or: {
        double miss = 1.0;
        for (const ExprPtr &k : e.kids) {
            SelEstimate kid =
                estimateRowSelectivity(*k, schema, stats);
            if (!kid.known)
                return out;
            miss *= 1.0 - kid.sel;
        }
        out.known = !e.kids.empty();
        out.sel = clamp01(1.0 - miss);
        return out;
      }
      case Expr::Kind::CmpCol:
      case Expr::Kind::Like:
      case Expr::Kind::NotLike:
        return out;
    }
    return out;
}

// ---------------------------------------------------------------------
// Prune planning
// ---------------------------------------------------------------------

PrunePlan
planPrune(const Table &table, const Expr &pred)
{
    PrunePlan plan;
    std::shared_ptr<const TableStats> stats = table.stats();
    if (!stats)
        return plan;
    plan.usable = true;
    plan.pages_total = table.pageCount();
    for (const ChunkStats &chunk : stats->chunks) {
        ++plan.chunks_considered;
        if (!zoneCanMatch(pred, table.schema(), chunk)) {
            ++plan.chunks_skipped;
            continue;
        }
        plan.pages_selected += chunk.page_count;
        if (!plan.runs.empty() &&
            plan.runs.back().first + plan.runs.back().second ==
                chunk.first_page) {
            plan.runs.back().second += chunk.page_count;
        } else {
            plan.runs.emplace_back(chunk.first_page,
                                   chunk.page_count);
        }
    }
    return plan;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
shardPruneRuns(const Table &table, const PrunePlan &plan,
               std::uint32_t s)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const std::uint64_t n = table.shardCount();
    for (const auto &[g0, count] : plan.runs) {
        const std::uint64_t g1 = g0 + count;
        // Local pages l with l*n + s in [g0, g1).
        const std::uint64_t l_lo = g0 <= s ? 0 : (g0 - s + n - 1) / n;
        const std::uint64_t l_hi = g1 <= s ? 0 : (g1 - s + n - 1) / n;
        if (l_hi <= l_lo)
            continue;
        if (!out.empty() &&
            out.back().first + out.back().second == l_lo) {
            out.back().second += l_hi - l_lo;
        } else {
            out.emplace_back(l_lo, l_hi - l_lo);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Freeze / fork
// ---------------------------------------------------------------------

void
exportTableStats(MiniDb &db, sim::DeviceImage &image)
{
    for (const std::string &name : db.tableNames()) {
        std::shared_ptr<const TableStats> st = db.table(name).stats();
        if (st)
            image.app_stats["db.stats." + name] = st;
    }
}

void
adoptTableStats(MiniDb &db, const sim::DeviceImage &image)
{
    for (const std::string &name : db.tableNames()) {
        auto it = image.app_stats.find("db.stats." + name);
        if (it == image.app_stats.end())
            continue;
        auto st =
            std::dynamic_pointer_cast<const TableStats>(it->second);
        if (st)
            db.table(name).setStats(std::move(st));
    }
}

}  // namespace bisc::db
