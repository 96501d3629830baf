#include "db/expr.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/log.h"

namespace bisc::db {

namespace {

ExprPtr
make(Expr e)
{
    return std::make_shared<const Expr>(std::move(e));
}

}  // namespace

ExprPtr
cmp(const Schema &s, const std::string &col, CmpOp op, Value v)
{
    Expr e;
    e.kind = Expr::Kind::Cmp;
    e.column = s.indexOf(col);
    e.op = op;
    e.value = std::move(v);
    return make(std::move(e));
}

ExprPtr
cmpCols(const Schema &s, const std::string &lhs, CmpOp op,
        const std::string &rhs)
{
    Expr e;
    e.kind = Expr::Kind::CmpCol;
    e.column = s.indexOf(lhs);
    e.column2 = s.indexOf(rhs);
    e.op = op;
    return make(std::move(e));
}

ExprPtr
between(const Schema &s, const std::string &col, Value lo, Value hi)
{
    Expr e;
    e.kind = Expr::Kind::Between;
    e.column = s.indexOf(col);
    e.lo = std::move(lo);
    e.hi = std::move(hi);
    return make(std::move(e));
}

ExprPtr
inSet(const Schema &s, const std::string &col, std::vector<Value> set)
{
    Expr e;
    e.kind = Expr::Kind::In;
    e.column = s.indexOf(col);
    e.set = std::move(set);
    return make(std::move(e));
}

ExprPtr
like(const Schema &s, const std::string &col, std::string pattern)
{
    Expr e;
    e.kind = Expr::Kind::Like;
    e.column = s.indexOf(col);
    e.pattern = std::move(pattern);
    return make(std::move(e));
}

ExprPtr
notLike(const Schema &s, const std::string &col, std::string pattern)
{
    Expr e;
    e.kind = Expr::Kind::NotLike;
    e.column = s.indexOf(col);
    e.pattern = std::move(pattern);
    return make(std::move(e));
}

ExprPtr
exprAnd(std::vector<ExprPtr> kids)
{
    Expr e;
    e.kind = Expr::Kind::And;
    e.kids = std::move(kids);
    return make(std::move(e));
}

ExprPtr
exprOr(std::vector<ExprPtr> kids)
{
    Expr e;
    e.kind = Expr::Kind::Or;
    e.kids = std::move(kids);
    return make(std::move(e));
}

ExprPtr
exprNot(ExprPtr kid)
{
    Expr e;
    e.kind = Expr::Kind::Not;
    e.kids = {std::move(kid)};
    return make(std::move(e));
}

bool
likeMatch(std::string_view text, const std::string &pattern)
{
    // Greedy two-pointer wildcard match with backtracking to the
    // last '%' (the classic linear-space algorithm).
    std::size_t t = 0, p = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() && pattern[p] != '%' &&
            pattern[p] == text[t]) {
            ++t;
            ++p;
        } else if (p < pattern.size() && pattern[p] == '%') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '%')
        ++p;
    return p == pattern.size();
}

bool
evalPred(const Expr &e, const Row &row)
{
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        int c = compareValues(row.at(e.column), e.value);
        switch (e.op) {
          case CmpOp::Eq: return c == 0;
          case CmpOp::Ne: return c != 0;
          case CmpOp::Lt: return c < 0;
          case CmpOp::Le: return c <= 0;
          case CmpOp::Gt: return c > 0;
          case CmpOp::Ge: return c >= 0;
        }
        return false;
      }
      case Expr::Kind::CmpCol: {
        int c = compareValues(row.at(e.column), row.at(e.column2));
        switch (e.op) {
          case CmpOp::Eq: return c == 0;
          case CmpOp::Ne: return c != 0;
          case CmpOp::Lt: return c < 0;
          case CmpOp::Le: return c <= 0;
          case CmpOp::Gt: return c > 0;
          case CmpOp::Ge: return c >= 0;
        }
        return false;
      }
      case Expr::Kind::Between:
        return compareValues(row.at(e.column), e.lo) >= 0 &&
               compareValues(row.at(e.column), e.hi) <= 0;
      case Expr::Kind::In:
        return std::any_of(e.set.begin(), e.set.end(),
                           [&](const Value &v) {
                               return compareValues(row.at(e.column),
                                                    v) == 0;
                           });
      case Expr::Kind::Like:
        return likeMatch(std::get<std::string>(row.at(e.column)),
                         e.pattern);
      case Expr::Kind::NotLike:
        return !likeMatch(std::get<std::string>(row.at(e.column)),
                          e.pattern);
      case Expr::Kind::And:
        return std::all_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return evalPred(*k, row);
                           });
      case Expr::Kind::Or:
        return std::any_of(e.kids.begin(), e.kids.end(),
                           [&](const ExprPtr &k) {
                               return evalPred(*k, row);
                           });
      case Expr::Kind::Not:
        return !evalPred(*e.kids.at(0), row);
    }
    return false;
}

namespace {

bool
cmpHolds(CmpOp op, int c)
{
    switch (op) {
      case CmpOp::Eq: return c == 0;
      case CmpOp::Ne: return c != 0;
      case CmpOp::Lt: return c < 0;
      case CmpOp::Le: return c <= 0;
      case CmpOp::Gt: return c > 0;
      case CmpOp::Ge: return c >= 0;
    }
    return false;
}

/** compareValues() of two doubles. */
int
compareNum(double x, double y)
{
    return x < y ? -1 : (x == y ? 0 : 1);
}

}  // namespace

BoundPred::BoundPred(const Expr &e, const Schema &schema)
{
    bind(e, schema);
}

BoundPred::BoundPred(const ExprPtr &e, const Schema &schema)
{
    if (e)
        bind(*e, schema);
}

std::uint32_t
BoundPred::bind(const Expr &e, const Schema &schema)
{
    const auto at = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    Node n;
    n.kind = e.kind;
    n.op = e.op;
    auto column = [&](int c, Bytes &off, Bytes &width, bool &is_int) {
        const Column &col = schema.at(static_cast<std::size_t>(c));
        off = schema.offsetOf(static_cast<std::size_t>(c));
        width = col.width;
        is_int = col.type == Type::Int64;
        return isText(col.type);
    };
    switch (e.kind) {
      case Expr::Kind::Cmp:
      case Expr::Kind::Between:
      case Expr::Kind::In: {
        n.text = column(e.column, n.off, n.width, n.is_int);
        n.first = static_cast<std::uint32_t>(n.text ? texts_.size()
                                                    : nums_.size());
        if (e.kind == Expr::Kind::Cmp) {
            bindConstant(e.value, n);
        } else if (e.kind == Expr::Kind::Between) {
            bindConstant(e.lo, n);
            bindConstant(e.hi, n);
        } else {
            for (const Value &v : e.set)
                bindConstant(v, n);
        }
        n.count = static_cast<std::uint32_t>(
                      n.text ? texts_.size() : nums_.size()) -
                  n.first;
        break;
      }
      case Expr::Kind::CmpCol: {
        n.text = column(e.column, n.off, n.width, n.is_int);
        const bool text2 = column(e.column2, n.off2, n.width2, n.is_int2);
        if (n.text != text2) {
            BISC_PANIC(n.text ? "comparing string with numeric"
                              : "comparing numeric with string");
        }
        break;
      }
      case Expr::Kind::Like:
      case Expr::Kind::NotLike:
        n.text = column(e.column, n.off, n.width, n.is_int);
        BISC_ASSERT(n.text, "LIKE on a numeric column");
        n.first = static_cast<std::uint32_t>(patterns_.size());
        patterns_.push_back(e.pattern);
        break;
      case Expr::Kind::And:
      case Expr::Kind::Or:
      case Expr::Kind::Not: {
        BISC_ASSERT(e.kind != Expr::Kind::Not || !e.kids.empty(),
                    "NOT without an operand");
        std::vector<std::uint32_t> kids;
        for (const ExprPtr &kid : e.kids)
            kids.push_back(bind(*kid, schema));
        n.first = static_cast<std::uint32_t>(kids_.size());
        n.count = static_cast<std::uint32_t>(kids.size());
        kids_.insert(kids_.end(), kids.begin(), kids.end());
        break;
      }
    }
    nodes_[at] = n;
    return at;
}

void
BoundPred::bindConstant(const Value &v, const Node &n)
{
    const auto *s = std::get_if<std::string>(&v);
    if (!n.text) {
        BISC_ASSERT(s == nullptr, "comparing numeric with string");
        nums_.push_back(std::holds_alternative<std::int64_t>(v)
                            ? static_cast<double>(std::get<std::int64_t>(v))
                            : std::get<double>(v));
        return;
    }
    BISC_ASSERT(s != nullptr, "comparing string with numeric");
    // Compare at most the column's width, and never past a NUL in the
    // constant: a cell's text stops at both.
    std::size_t len = std::min<std::size_t>(s->size(), n.width);
    len = std::min(len, s->find('\0'));
    Text t;
    t.pos = static_cast<std::uint32_t>(pool_.size());
    t.len = static_cast<std::uint32_t>(len);
    t.cut = len < s->size();
    for (std::size_t i = 0; i < std::min<std::size_t>(len, 8); ++i) {
        const unsigned shift = 8 * (7 - static_cast<unsigned>(i));
        t.head |= std::uint64_t{static_cast<unsigned char>((*s)[i])}
                  << shift;
        t.mask |= std::uint64_t{0xff} << shift;
    }
    texts_.push_back(t);
    pool_.append(*s, 0, len);
}

int
BoundPred::compareConstant(const Node &n, std::uint32_t k,
                           const std::uint8_t *slot) const
{
    const std::uint8_t *cell = slot + n.off;
    if (!n.text)
        return compareNum(cellNum(cell, n.is_int), nums_[k]);
    // The cell's text against the constant, byte by byte as
    // unsigned chars, without finding the cell's NUL first. The
    // constant's first len bytes hold no NUL, so a cell that stops
    // early (NUL) compares below them, as the shorter string; on a
    // tie, the byte at len decides.
    const Text &t = texts_[k];
    std::uint32_t i = 0;
    if (n.width >= 8) {
        // The first bytes at once: a big-endian word orders as its
        // bytes do (slots are little-endian, so swap).
        std::uint64_t word;
        std::memcpy(&word, cell, 8);
        word = __builtin_bswap64(word) & t.mask;
        if (word != t.head)
            return word < t.head ? -1 : 1;
        i = std::min<std::uint32_t>(t.len, 8);
    }
    const auto *key =
        reinterpret_cast<const std::uint8_t *>(pool_.data()) + t.pos;
    for (; i < t.len; ++i) {
        if (cell[i] != key[i])
            return cell[i] < key[i] ? -1 : 1;
    }
    if (t.len == n.width || cell[t.len] == 0)
        return t.cut ? -1 : 0;  // the cell's text ends here
    return 1;                   // the cell's text goes on
}

bool
BoundPred::eval(std::uint32_t node, const std::uint8_t *slot) const
{
    const Node &n = nodes_[node];
    switch (n.kind) {
      case Expr::Kind::Cmp:
        return cmpHolds(n.op, compareConstant(n, n.first, slot));
      case Expr::Kind::CmpCol: {
        if (n.text) {
            const std::string_view x = cellText(slot + n.off, n.width);
            const std::string_view y = cellText(slot + n.off2, n.width2);
            return cmpHolds(n.op, x < y ? -1 : (x == y ? 0 : 1));
        }
        return cmpHolds(n.op,
                        compareNum(cellNum(slot + n.off, n.is_int),
                                   cellNum(slot + n.off2, n.is_int2)));
      }
      case Expr::Kind::Between:
        return compareConstant(n, n.first, slot) >= 0 &&
               compareConstant(n, n.first + 1, slot) <= 0;
      case Expr::Kind::In:
        for (std::uint32_t k = n.first; k < n.first + n.count; ++k) {
            if (compareConstant(n, k, slot) == 0)
                return true;
        }
        return false;
      case Expr::Kind::Like:
      case Expr::Kind::NotLike:
        return likeMatch(cellText(slot + n.off, n.width),
                         patterns_[n.first]) ==
               (n.kind == Expr::Kind::Like);
      case Expr::Kind::And:
        for (std::uint32_t k = n.first; k < n.first + n.count; ++k) {
            if (!eval(kids_[k], slot))
                return false;
        }
        return true;
      case Expr::Kind::Or:
        for (std::uint32_t k = n.first; k < n.first + n.count; ++k) {
            if (eval(kids_[k], slot))
                return true;
        }
        return false;
      case Expr::Kind::Not:
        return !eval(kids_[n.first], slot);
    }
    return false;
}

// ----- Predicate wire format (host encode / device decode) -----
//
// The pipeline re-check SSDlet evaluates the exact predicate on the
// drive, so the host serializes the expression tree into a Packet
// argument. The format is internal and versionless (an SSDlet
// argument never outlives the application that carries it).

namespace {

void
encodeValue(Packet &p, const Value &v)
{
    if (const auto *i = std::get_if<std::int64_t>(&v)) {
        p.put<std::uint8_t>(0);
        p.put<std::int64_t>(*i);
        return;
    }
    if (const auto *d = std::get_if<double>(&v)) {
        p.put<std::uint8_t>(1);
        p.put<double>(*d);
        return;
    }
    p.put<std::uint8_t>(2);
    p.putString(std::get<std::string>(v));
}

Value
decodeValue(Packet &p)
{
    switch (p.get<std::uint8_t>()) {
      case 0:
        return p.get<std::int64_t>();
      case 1:
        return p.get<double>();
      default:
        return p.getString();
    }
}

}  // namespace

void
encodeExpr(Packet &p, const Expr &e)
{
    p.put<std::uint8_t>(static_cast<std::uint8_t>(e.kind));
    p.put<std::int32_t>(e.column);
    p.put<std::int32_t>(e.column2);
    p.put<std::uint8_t>(static_cast<std::uint8_t>(e.op));
    encodeValue(p, e.value);
    encodeValue(p, e.lo);
    encodeValue(p, e.hi);
    p.put<std::uint32_t>(static_cast<std::uint32_t>(e.set.size()));
    for (const Value &v : e.set)
        encodeValue(p, v);
    p.putString(e.pattern);
    p.put<std::uint32_t>(static_cast<std::uint32_t>(e.kids.size()));
    for (const ExprPtr &kid : e.kids)
        encodeExpr(p, *kid);
}

ExprPtr
decodeExpr(Packet &p)
{
    auto e = std::make_shared<Expr>();
    e->kind = static_cast<Expr::Kind>(p.get<std::uint8_t>());
    e->column = p.get<std::int32_t>();
    e->column2 = p.get<std::int32_t>();
    e->op = static_cast<CmpOp>(p.get<std::uint8_t>());
    e->value = decodeValue(p);
    e->lo = decodeValue(p);
    e->hi = decodeValue(p);
    const auto nset = p.get<std::uint32_t>();
    e->set.reserve(nset);
    for (std::uint32_t i = 0; i < nset; ++i)
        e->set.push_back(decodeValue(p));
    e->pattern = p.getString();
    const auto nkids = p.get<std::uint32_t>();
    e->kids.reserve(nkids);
    for (std::uint32_t i = 0; i < nkids; ++i)
        e->kids.push_back(decodeExpr(p));
    return e;
}

namespace {

constexpr std::size_t kMinKeyLen = 3;

KeyDerivation
reject(std::string reason)
{
    KeyDerivation k;
    k.reason = std::move(reason);
    return k;
}

KeyDerivation
singleKey(const std::string &key)
{
    if (key.size() < kMinKeyLen)
        return reject("key '" + key +
                      "' too short: expected low selectivity");
    KeyDerivation k;
    if (!k.keys.addKey(key))
        return reject("key '" + key + "' exceeds matcher limits");
    k.offloadable = true;
    return k;
}

/** Longest literal (non-'%') segment of a LIKE pattern. */
std::string
longestLiteral(const std::string &pattern)
{
    std::string best, cur;
    for (char c : pattern) {
        if (c == '%') {
            if (cur.size() > best.size())
                best = cur;
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (cur.size() > best.size())
        best = cur;
    return best;
}

/** Date-range keys: month prefixes if few, else year prefixes. */
KeyDerivation
dateRangeKeys(const std::string &lo, const std::string &hi)
{
    if (lo.size() != 10 || hi.size() != 10 || hi < lo)
        return reject("malformed date range");
    int ylo = std::stoi(lo.substr(0, 4));
    int mlo = std::stoi(lo.substr(5, 2));
    int yhi = std::stoi(hi.substr(0, 4));
    int mhi = std::stoi(hi.substr(5, 2));

    int months = (yhi - ylo) * 12 + (mhi - mlo) + 1;
    KeyDerivation k;
    if (months <= static_cast<int>(pm::kMaxKeys)) {
        int y = ylo, m = mlo;
        for (int i = 0; i < months; ++i) {
            char buf[9];
            std::snprintf(buf, sizeof(buf), "%04d-%02d", y, m);
            if (!k.keys.addKey(buf))
                return reject("month keys exceed matcher limits");
            if (++m > 12) {
                m = 1;
                ++y;
            }
        }
        k.offloadable = true;
        return k;
    }
    int years = yhi - ylo + 1;
    if (years <= static_cast<int>(pm::kMaxKeys)) {
        for (int y = ylo; y <= yhi; ++y) {
            char buf[6];
            std::snprintf(buf, sizeof(buf), "%04d-", y);
            if (!k.keys.addKey(buf))
                return reject("year keys exceed matcher limits");
        }
        k.offloadable = true;
        return k;
    }
    return reject("date range spans " + std::to_string(years) +
                  " years: covers too much data");
}

}  // namespace

KeyDerivation
deriveKeys(const Expr &e, const Schema &schema)
{
    // The predicate's column type, for the kinds that name a column.
    const Type type = e.column >= 0
                          ? schema.at(static_cast<std::size_t>(e.column)).type
                          : Type::Int64;
    switch (e.kind) {
      case Expr::Kind::Cmp: {
        if (!isText(type))
            return reject("numeric predicate not key-expressible");
        if (e.op == CmpOp::Eq)
            return singleKey(std::get<std::string>(e.value));
        return reject("one-sided range covers too much data");
      }
      case Expr::Kind::CmpCol:
        return reject("column-column compare not key-expressible");
      case Expr::Kind::Between: {
        if (type != Type::Date)
            return reject("BETWEEN only key-expressible on dates");
        return dateRangeKeys(std::get<std::string>(e.lo),
                             std::get<std::string>(e.hi));
      }
      case Expr::Kind::In: {
        if (!isText(type))
            return reject("numeric IN not key-expressible");
        KeyDerivation k;
        for (const auto &v : e.set) {
            const auto &s = std::get<std::string>(v);
            if (s.size() < kMinKeyLen)
                return reject("IN value too short");
            if (!k.keys.addKey(s))
                return reject("IN set exceeds matcher key limit");
        }
        k.offloadable = !e.set.empty();
        if (!k.offloadable)
            k.reason = "empty IN set";
        return k;
      }
      case Expr::Kind::Like: {
        std::string lit = longestLiteral(e.pattern);
        if (lit.size() > pm::kMaxKeyLength)
            lit = lit.substr(0, pm::kMaxKeyLength);
        return singleKey(lit);
      }
      case Expr::Kind::NotLike:
        return reject("hardware matcher cannot express NOT LIKE");
      case Expr::Kind::Not:
        return reject("negation not key-expressible");
      case Expr::Kind::Or: {
        // All branches must be keyed, within the 3-key budget.
        KeyDerivation merged;
        merged.offloadable = true;
        for (const auto &kid : e.kids) {
            KeyDerivation k = deriveKeys(*kid, schema);
            if (!k.offloadable)
                return reject("OR branch not keyable: " + k.reason);
            for (const auto &key : k.keys.keys()) {
                if (!merged.keys.addKey(key))
                    return reject("OR exceeds matcher key limit");
            }
        }
        return merged;
      }
      case Expr::Kind::And: {
        // A conservative filter may use any one keyable conjunct;
        // pick the one with the fewest keys (most selective guess).
        KeyDerivation best;
        std::string reasons;
        for (const auto &kid : e.kids) {
            KeyDerivation k = deriveKeys(*kid, schema);
            if (!k.offloadable) {
                reasons += (reasons.empty() ? "" : "; ") + k.reason;
                continue;
            }
            if (!best.offloadable ||
                k.keys.size() < best.keys.size()) {
                best = k;
            }
        }
        if (!best.offloadable)
            best.reason = "no keyable conjunct (" + reasons + ")";
        return best;
      }
    }
    return reject("unreachable");
}

}  // namespace bisc::db
