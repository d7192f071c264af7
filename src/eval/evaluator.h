// The pull-based XQ evaluator (Sec. 3 semantics + Sec. 5 runtime).
//
// Evaluates the rewritten query strictly sequentially. Whenever data is
// missing from the buffer the evaluator pulls input through the projector
// ("blocks", in the paper's architecture). signOff-statements remove roles
// and trigger active garbage collection.

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

/// One evaluation of one query over one input stream.
class Evaluator {
 public:
  Evaluator(const AnalyzedQuery* query, ExecContext* ctx, XmlWriter* writer,
            EvalOptions options = {});

  /// Runs the query to completion, producing output through the writer.
  Status Run();

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

  /// String values of one operand, stored without a heap block per value.
  struct ValueList {
    struct Value {
      size_t begin = 0;  ///< offset into `text`
      size_t size = 0;
      std::optional<double> number;  ///< ParseNumber of the value
    };
    /// Binding stamp the values were read under; 0 = not loaded.
    uint64_t stamp = 0;
    std::string text;  ///< all values, concatenated
    std::vector<Value> values;

    std::string_view View(const Value& value) const {
      return std::string_view(text).substr(value.begin, value.size);
    }
  };
  struct OperandPair {
    ValueList lhs;
    ValueList rhs;
  };

  /// Makes `slot` hold `operand`'s values, parsed: a no-op when the slot
  /// was loaded under the operand variable's current binding stamp.
  Status LoadOperand(const Operand& operand, ValueList* slot);
  /// Replaces `out`'s values with the string values of `path` from `var`'s
  /// binding (pulls until the binding is finished so the match set is
  /// complete). Leaves numbers unparsed.
  Status ReadValues(VarId var, const RelativePath& path, ValueList* out);

  const AnalyzedQuery* query_;
  ExecContext* ctx_;
  XmlWriter* writer_;
  EvalOptions options_;
  std::vector<BufferNode*> env_;  ///< VarId → current binding
  /// VarId → stamp of its current binding. EvalFor bumps it on every
  /// assignment, so a stamp names one binding even when the node pool
  /// hands a later binding the same address.
  std::vector<uint64_t> binding_stamp_;
  uint64_t last_stamp_ = 0;
  /// Per-comparison operand values. Node-based, so a slot's address stays
  /// put while both sides of one comparison are in use.
  std::unordered_map<const Cond*, OperandPair> operand_cache_;
  MatchCollector collector_;
  ValueList sum_values_;
  std::vector<const BufferNode*> value_stack_;
};

/// Compares two untyped values with XQuery-style general-comparison
/// pragmatics: numerically when both parse as numbers, else bytewise.
bool CompareValues(const std::string& lhs, RelOp op, const std::string& rhs);

/// The sum() fold over matched string values (XPath 1.0 pragmatics: empty
/// sums to "0", any non-numeric value poisons the sum to NaN). Exposed so
/// the sharded executor can fold concatenated per-shard value lists with
/// byte-identical formatting.
std::string FoldSumValues(const std::vector<std::string>& values);

}  // namespace gcx

#endif  // GCX_EVAL_EVALUATOR_H_
