// Abstract syntax of the XQ fragment (Fig. 6 of the paper), extended with
// the compile-time-only forms the paper's rewrites introduce:
//   * signOff($x/π, r) statements (Sec. 3),
//   * conditional open/close tag halves produced by rule NC (Fig. 7).
//
// Queries own their expressions via unique_ptr; variables are dense ids
// into the query's variable table, with id 0 reserved for $root.

#ifndef GCX_XQ_AST_H_
#define GCX_XQ_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xpath/path.h"

namespace gcx {

/// Dense variable identifier. kRootVar ($root) is always 0.
using VarId = int32_t;
inline constexpr VarId kRootVar = 0;

/// Dense role identifier (Sec. 2: "let roles be a finite set of elements").
/// Role 0 is reserved for cursor pins, which the buffer manager keeps as a
/// per-node counter (BufferNode::pins) rather than a role entry.
using RoleId = int32_t;
inline constexpr RoleId kPinRole = 0;
inline constexpr RoleId kInvalidRole = -1;

/// Comparison operators of the fragment (RelOp in Fig. 6).
enum class RelOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Renders e.g. "=", "<".
const char* RelOpName(RelOp op);

/// Condition kinds (`cond` production in Fig. 6).
enum class CondKind {
  kTrue,     ///< true()
  kExists,   ///< exists $x/π
  kCompare,  ///< operand RelOp operand
  kAnd,
  kOr,
  kNot,
};

/// A comparison operand: either a string literal or a variable-rooted path
/// (`$x` when the path is empty).
struct Operand {
  bool is_literal = false;
  std::string literal;
  VarId var = kRootVar;
  RelativePath path;

  static Operand Literal(std::string value) {
    Operand op;
    op.is_literal = true;
    op.literal = std::move(value);
    return op;
  }
  static Operand VarPath(VarId var, RelativePath path) {
    Operand op;
    op.var = var;
    op.path = std::move(path);
    return op;
  }
};

/// A boolean condition.
struct Cond {
  CondKind kind = CondKind::kTrue;
  // kExists: var/path. kCompare: lhs/rhs + op.
  Operand lhs;
  Operand rhs;
  RelOp op = RelOp::kEq;
  // kAnd/kOr: left+right. kNot: left.
  std::unique_ptr<Cond> left;
  std::unique_ptr<Cond> right;

  /// Deep copy.
  std::unique_ptr<Cond> Clone() const;
};

/// Expression kinds (`q` production in Fig. 6 plus rewrite-introduced forms).
enum class ExprKind {
  kEmpty,        ///< ()
  kSequence,     ///< (q, ..., q)
  kElement,      ///< <a> q </a>
  kOpenTag,      ///< `<a>` half (introduced by rule NC)
  kCloseTag,     ///< `</a>` half (introduced by rule NC)
  kTextLiteral,  ///< literal character data inside a constructor
  kVarRef,       ///< $x                  (outputs the bound node's subtree)
  kPathOutput,   ///< $x/π                (outputs matched nodes' subtrees)
  kFor,          ///< for $x in $y/π return q
  kIf,           ///< if cond then q else q
  kSignOff,      ///< signOff($x/π, r)    (introduced by static analysis)
  kAggregate,    ///< count($x/π) | sum($x/π)  (extension; see below)
};

/// Aggregate functions (an extension beyond the paper's fragment, which
/// "currently only supports atomic equality and no aggregations", Sec. 3).
/// count needs only the *matched nodes* in the buffer — a new dependency
/// shape 〈π, r〉 without the dos::node() suffix; sum needs string values and
/// reuses the comparison-style subtree dependency.
enum class AggKind {
  kCount,
  kSum,
};

/// One expression node. A single struct (rather than a class hierarchy)
/// keeps the rewrite passes simple; unused fields are empty.
struct Expr {
  ExprKind kind = ExprKind::kEmpty;

  // kSequence
  std::vector<std::unique_ptr<Expr>> items;

  // kElement / kOpenTag / kCloseTag: tag; kElement: child.
  // kTextLiteral: text.
  std::string tag;
  std::string text;
  std::unique_ptr<Expr> child;

  // kVarRef, kPathOutput, kSignOff: var (+ path); kFor: source var + path.
  VarId var = kRootVar;
  RelativePath path;

  // kFor: bound variable and body.
  VarId loop_var = kRootVar;
  std::unique_ptr<Expr> body;

  // kIf
  std::unique_ptr<Cond> cond;
  std::unique_ptr<Expr> then_branch;
  std::unique_ptr<Expr> else_branch;

  // kSignOff
  RoleId role = kInvalidRole;

  // kAggregate (uses var + path for the operand)
  AggKind agg = AggKind::kCount;

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;
};

// Convenience constructors.
std::unique_ptr<Expr> MakeEmpty();
std::unique_ptr<Expr> MakeSequence(std::vector<std::unique_ptr<Expr>> items);
std::unique_ptr<Expr> MakeElement(std::string tag, std::unique_ptr<Expr> child);
std::unique_ptr<Expr> MakeOpenTag(std::string tag);
std::unique_ptr<Expr> MakeCloseTag(std::string tag);
std::unique_ptr<Expr> MakeTextLiteral(std::string text);
std::unique_ptr<Expr> MakeVarRef(VarId var);
std::unique_ptr<Expr> MakePathOutput(VarId var, RelativePath path);
std::unique_ptr<Expr> MakeFor(VarId loop_var, VarId source_var,
                              RelativePath path, std::unique_ptr<Expr> body);
std::unique_ptr<Expr> MakeIf(std::unique_ptr<Cond> cond,
                             std::unique_ptr<Expr> then_branch,
                             std::unique_ptr<Expr> else_branch);
std::unique_ptr<Expr> MakeSignOff(VarId var, RelativePath path, RoleId role);
std::unique_ptr<Expr> MakeAggregate(AggKind agg, VarId var, RelativePath path);

std::unique_ptr<Cond> MakeTrue();
std::unique_ptr<Cond> MakeExists(VarId var, RelativePath path);
std::unique_ptr<Cond> MakeCompare(Operand lhs, RelOp op, Operand rhs);
std::unique_ptr<Cond> MakeAnd(std::unique_ptr<Cond> l, std::unique_ptr<Cond> r);
std::unique_ptr<Cond> MakeOr(std::unique_ptr<Cond> l, std::unique_ptr<Cond> r);
std::unique_ptr<Cond> MakeNot(std::unique_ptr<Cond> inner);

/// A parsed query: the top-level element constructor plus the variable
/// table. Variable id i has name `var_names[i]`; index 0 is "$root".
struct Query {
  std::unique_ptr<Expr> body;           ///< always an ExprKind::kElement
  std::vector<std::string> var_names;   ///< [0] == "$root"

  /// Introduces a fresh variable with a unique synthesized name built from
  /// `hint` and returns its id.
  VarId FreshVar(const std::string& hint);

  /// Deep copy.
  Query Clone() const;
};

/// True if `expr` contains a for-loop anywhere (used to decide which
/// if-expressions must be pushed down, Sec. 3).
bool ContainsFor(const Expr& expr);

}  // namespace gcx

#endif  // GCX_XQ_AST_H_
