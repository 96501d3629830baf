/**
 * @file
 * Predicate expressions and their pattern-matcher key derivation.
 *
 * The planner decides offloadability by walking the WHERE-clause AST:
 * equality and IN on text/date columns become literal keys; date
 * ranges become year/month *prefix* keys (a "1995-09" key hits every
 * September-1995 date in the fixed-width storage); LIKE contributes
 * its longest literal segment. NOT LIKE and numeric predicates are
 * not expressible on the matcher IP — exactly the limitations the
 * paper reports for Q13/Q19/Q22-class queries.
 */

#ifndef BISCUIT_DB_EXPR_H_
#define BISCUIT_DB_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/types.h"
#include "pm/pattern_matcher.h"
#include "util/packet.h"

namespace bisc::db {

enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr
{
    enum class Kind {
        Cmp,      ///< column <op> constant
        CmpCol,   ///< column <op> column
        Between,  ///< lo <= column <= hi
        In,       ///< column in (set)
        Like,     ///< column LIKE pattern ('%' wildcards)
        NotLike,  ///< column NOT LIKE pattern
        And,
        Or,
        Not,
    };

    Kind kind = Kind::Cmp;
    int column = -1;           ///< Cmp/CmpCol/Between/In/Like/NotLike
    int column2 = -1;          ///< CmpCol right-hand side
    CmpOp op = CmpOp::Eq;      ///< Cmp/CmpCol
    Value value;               ///< Cmp
    Value lo, hi;              ///< Between (inclusive)
    std::vector<Value> set;    ///< In
    std::string pattern;       ///< Like/NotLike
    std::vector<ExprPtr> kids; ///< And/Or/Not
};

// ----- Builders (column indexes resolved against a schema) -----

ExprPtr cmp(const Schema &s, const std::string &col, CmpOp op,
            Value v);
ExprPtr cmpCols(const Schema &s, const std::string &lhs, CmpOp op,
                const std::string &rhs);
ExprPtr between(const Schema &s, const std::string &col, Value lo,
                Value hi);
ExprPtr inSet(const Schema &s, const std::string &col,
              std::vector<Value> set);
ExprPtr like(const Schema &s, const std::string &col,
             std::string pattern);
ExprPtr notLike(const Schema &s, const std::string &col,
                std::string pattern);
ExprPtr exprAnd(std::vector<ExprPtr> kids);
ExprPtr exprOr(std::vector<ExprPtr> kids);
ExprPtr exprNot(ExprPtr kid);

/** Evaluate a predicate against a row. */
bool evalPred(const Expr &e, const Row &row);

/**
 * A predicate bound to one slot layout (Schema::encodeRow's), for
 * evaluating many row slots in place. Binding resolves each column's
 * offset, width and type once and pre-encodes each constant: a
 * numeric one as the double compareValues() compares it as, a text
 * one as its bytes up to the column width. A slot is then evaluated
 * with no Value, no schema lookup and no allocation, exactly as
 * `evalPred(e, schema.decodeRow(slot))` would (text cells are read up
 * to their first NUL; whatever follows it is never looked at). Bind
 * once per evaluation site, never per row. Mixed text/numeric
 * comparisons panic when bound, as compareValues() does when run.
 */
class BoundPred
{
  public:
    /** Every slot matches (no predicate). */
    BoundPred() = default;

    BoundPred(const Expr &e, const Schema &schema);

    /** @p e bound to @p schema; a null @p e matches every slot. */
    BoundPred(const ExprPtr &e, const Schema &schema);

    /** Whether the row in @p slot satisfies the predicate. */
    bool
    matches(const std::uint8_t *slot) const
    {
        return nodes_.empty() || eval(0, slot);
    }

  private:
    /** A text constant: pool_[pos, pos + len), compared as cut. */
    struct Text
    {
        std::uint32_t pos = 0;
        std::uint32_t len = 0;  ///< bytes compared: <= column width
        bool cut = false;       ///< the constant has bytes past len
        /** Its first min(len, 8) bytes as a big-endian word, and the
         *  mask of those bytes: one compare for a cell of >= 8 bytes. */
        std::uint64_t head = 0, mask = 0;
    };

    struct Node
    {
        Expr::Kind kind = Expr::Kind::Cmp;
        CmpOp op = CmpOp::Eq;
        bool text = false;     ///< text column(s), else numeric
        bool is_int = false;   ///< column is Int64 (numeric only)
        bool is_int2 = false;  ///< column2 is Int64 (CmpCol)
        Bytes off = 0, width = 0;    ///< column
        Bytes off2 = 0, width2 = 0;  ///< CmpCol right-hand column
        /** Constants (Cmp: 1, Between: lo and hi, In: the set) in
         *  nums_ or texts_, the pattern (Like/NotLike) in patterns_,
         *  or kids (And/Or/Not) in kids_. */
        std::uint32_t first = 0, count = 0;
    };

    std::uint32_t bind(const Expr &e, const Schema &schema);
    void bindConstant(const Value &v, const Node &n);
    bool eval(std::uint32_t node, const std::uint8_t *slot) const;
    int compareConstant(const Node &n, std::uint32_t k,
                        const std::uint8_t *slot) const;

    std::vector<Node> nodes_;  ///< nodes_[0] is the root
    std::vector<std::uint32_t> kids_;
    std::vector<double> nums_;
    std::vector<Text> texts_;
    std::string pool_;
    std::vector<std::string> patterns_;
};

/**
 * Append @p e to @p p in the predicate wire format: the form the
 * in-drive re-check SSDlet receives its predicate in. The encoded
 * bytes cross the HIL, so their count is part of simulated time.
 */
void encodeExpr(Packet &p, const Expr &e);

/** Read one predicate that encodeExpr() wrote. */
ExprPtr decodeExpr(Packet &p);

/** SQL LIKE with '%' wildcards (no '_' support). */
bool likeMatch(std::string_view text, const std::string &pattern);

/** Outcome of trying to express a predicate as matcher keys. */
struct KeyDerivation
{
    bool offloadable = false;
    pm::KeySet keys;
    std::string reason;  ///< why not, when !offloadable
};

/**
 * Derive pattern-matcher keys for @p e over @p schema. The key set is
 * a *conservative page filter*: every page containing rows satisfying
 * the predicate must contain at least one key, but keyed pages may
 * contain no satisfying row (the host re-evaluates exactly).
 */
KeyDerivation deriveKeys(const Expr &e, const Schema &schema);

}  // namespace bisc::db

#endif  // BISCUIT_DB_EXPR_H_
