// The pull-based XQ evaluator (Sec. 3 semantics + Sec. 5 runtime).
//
// Evaluates the rewritten query strictly sequentially. Whenever data is
// missing from the buffer the evaluator pulls input through the projector
// ("blocks", in the paper's architecture). signOff-statements remove roles
// and trigger active garbage collection.
//
// Value joins read each comparison operand once per bound node: the values
// are memoized per (variable, path) and node for one iteration of the
// variable's fsa loop, exactly as long as Fig. 8 keeps the node buffered
// (OperandMemo).

#ifndef GCX_EVAL_EVALUATOR_H_
#define GCX_EVAL_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/status.h"
#include "eval/exec_context.h"
#include "xml/writer.h"

namespace gcx {

/// Per-shard aggregate partials (sharded execution, core/shard.h). The
/// executor combines partials across shards: counts add; sum keeps the RAW
/// matched values so the combined list can be folded once, in document
/// order, with exactly the solo fold (per-shard partial doubles would
/// round differently).
struct AggregateParts {
  uint64_t count = 0;
  std::vector<std::string> values;
};

/// Runtime toggles.
struct EvalOptions {
  /// Execute signOff-statements (active GC). Off = the "static analysis
  /// alone" ablation: projection still limits what enters the buffer, but
  /// nothing is ever purged.
  bool execute_signoffs = true;
  /// When set, a root-rooted aggregate records its partial here INSTEAD of
  /// writing text. Evaluation (including signoffs) is otherwise unchanged,
  /// so the Sec. 3 buffer invariants still hold.
  AggregateParts* aggregate_capture = nullptr;
};

/// Buffer-only path evaluation with match multiplicities (signOff
/// semantics, Sec. 3): multiplicities mirror the DFA's role-assignment
/// multiplicities so removals balance assignments exactly. Owns its result
/// list and walk stack, so repeated collections do not allocate.
class MatchCollector {
 public:
  using Matches = std::vector<std::pair<BufferNode*, uint32_t>>;

  /// The nodes reachable from `base` via `path`, in first-reach order, each
  /// with the number of contexts it is reached through. Valid until the
  /// next call.
  const Matches& Collect(const SymbolTable& tags, BufferNode* base,
                         const RelativePath& path);

 private:
  void Walk(BufferNode* base, const RelativePath& path, size_t step_index,
            uint32_t mult);

  const SymbolTable* tags_ = nullptr;
  /// Merge repeated targets. Only needed when the path has two or more
  /// non-child steps: with at most one, every target is reached through
  /// exactly one context (child steps fan out to disjoint children, and a
  /// single descendant walk visits each node once).
  bool merge_duplicates_ = false;
  Matches out_;
  std::vector<BufferNode*> stack_;  ///< shared by all recursion levels
};

/// String values stored without a heap block per value.
struct ValueList {
  struct Value {
    size_t begin = 0;  ///< offset into `text`
    size_t size = 0;
    std::optional<double> number;  ///< ParseNumber of the value, if parsed
  };
  std::string text;  ///< all values, concatenated
  std::vector<Value> values;

  std::string_view View(const Value& value) const {
    return std::string_view(text).substr(value.begin, value.size);
  }
  void Clear() {
    text.clear();
    values.clear();
  }
};

/// The parsed values of one comparison operand $x/π, memoized per node $x
/// was bound to. A node is named by its address and BufferNode::serial; an
/// entry hits only while SerialWindowHolds, so a recycled address never
/// revives another node's values.
///
/// The owner clears the memo when an iteration of fsa($x)'s loop ends
/// (Def. 4). Fig. 8 places the signOffs of $x's roles there, so every node
/// an entry describes stays buffered, with its matches under π complete and
/// unchanged, for as long as the entry lives. For a straight $x the memo
/// thus holds one entry at a time; for a not-straight $x it holds at most
/// the bound nodes the buffer still holds.
class OperandMemo {
 public:
  /// A node's values: `count` values of list() starting at `first`.
  struct Entry {
    const BufferNode* node = nullptr;  ///< null: dead (window expired)
    uint64_t birth = 0;                ///< NodeBirth at insertion
    uint32_t first = 0;
    uint32_t count = 0;
    uint32_t slot = 0;                 ///< position in the hash table
  };

  /// The live entry for `node`, or null. `nodes_created` is the buffer's
  /// current creation count.
  const Entry* Find(const BufferNode* node, uint64_t nodes_created);
  /// Records that list().values[first, end) are `node`'s values.
  const Entry& Insert(const BufferNode* node, uint64_t nodes_created,
                      size_t first);
  /// Drops every entry (capacity is kept).
  void Clear();

  ValueList& list() { return list_; }

 private:
  size_t Home(const BufferNode* node) const;
  void Place(uint32_t index);

  ValueList list_;
  std::vector<Entry> entries_;
  /// Open addressing with linear probing: entry index + 1, 0 = empty.
  std::vector<uint32_t> table_;
};

/// Work counters of one evaluation.
struct EvalStats {
  uint64_t comparisons = 0;  ///< general comparisons evaluated
  uint64_t value_reads = 0;  ///< operand value lists read from the buffer
};

/// One evaluation of one query over one input stream.
class Evaluator {
 public:
  Evaluator(const AnalyzedQuery* query, ExecContext* ctx, XmlWriter* writer,
            EvalOptions options = {});

  /// Runs the query to completion, producing output through the writer.
  Status Run();

  const EvalStats& stats() const { return stats_; }

 private:
  Status EvalExpr(const Expr& expr);
  Result<bool> EvalCond(const Cond& cond);

  Status EvalFor(const Expr& expr);
  Status EvalAggregate(const Expr& expr);

  /// Counts matches of path steps [step_index..) from `base`,
  /// nested-iteration semantics, pulling input as needed.
  Result<uint64_t> CountMatches(BufferNode* base, const RelativePath& path,
                                size_t step_index);
  Status EvalSignOff(const Expr& expr);
  Status EvalPathOutput(BufferNode* base, const RelativePath& path,
                        size_t step_index);

  /// Serializes the (finished) subtree of `node`; pulls to finish it first.
  Status EmitSubtree(BufferNode* node);

  /// Existence probe with pulls: is some node reachable from `base` via
  /// path steps [step_index..)?
  Result<bool> ExistsPath(BufferNode* base, const RelativePath& path,
                          size_t step_index);

  /// Where a comparison operand's values come from: a literal parsed at
  /// construction, or the memo shared by every operand with the same
  /// (variable, path).
  struct OperandSource {
    bool literal = false;
    uint32_t index = 0;  ///< into literals_ or memos_
  };
  /// Values of one operand: `count` values of `list` from `first`.
  struct OperandValues {
    const ValueList* list = nullptr;
    size_t first = 0;
    size_t count = 0;
  };

  /// Registers the comparison operands of `expr`'s subtree.
  void PlanOperands(const Expr& expr);
  void PlanCond(const Cond& cond);
  OperandSource PlanOperand(const Operand& operand);
  /// `operand`'s parsed values under its variable's current binding, read
  /// from the buffer only on a memo miss.
  Result<OperandValues> LoadOperand(const Operand& operand,
                                    OperandSource source);
  /// Appends the string values of `path` from `var`'s binding to `out`
  /// (pulls until the binding is finished so the match set is complete).
  /// Leaves numbers unparsed.
  Status ReadValues(VarId var, const RelativePath& path, ValueList* out);

  const AnalyzedQuery* query_;
  ExecContext* ctx_;
  XmlWriter* writer_;
  EvalOptions options_;
  EvalStats stats_;
  std::vector<BufferNode*> env_;  ///< VarId → current binding
  /// Per comparison: where its two operands' values come from.
  std::unordered_map<const Cond*, std::pair<OperandSource, OperandSource>>
      operand_sources_;
  std::vector<ValueList> literals_;
  std::vector<OperandMemo> memos_;
  /// memos_ key: the (variable, path) of each memo.
  std::vector<std::pair<VarId, const RelativePath*>> memo_keys_;
  /// VarId → the memos to clear when one iteration of its loop ends: those
  /// whose variable has it as fsa.
  std::vector<std::vector<uint32_t>> memos_by_fsa_;
  MatchCollector collector_;
  ValueList sum_values_;
  std::vector<const BufferNode*> value_stack_;
};

/// Compares two untyped values with XQuery-style general-comparison
/// pragmatics: numerically when both parse as numbers, else bytewise.
bool CompareValues(const std::string& lhs, RelOp op, const std::string& rhs);

/// The sum() fold over matched string values, in document order (XPath 1.0
/// pragmatics: empty sums to "0", any non-numeric value poisons the sum to
/// NaN). The evaluator, the DOM reference and the sharded merge all fold
/// through it, so their output is byte-identical.
class SumFold {
 public:
  void Add(std::string_view value);
  std::string Format() const;

 private:
  double total_ = 0;
};

}  // namespace gcx

#endif  // GCX_EVAL_EVALUATOR_H_
