#include "eval/evaluator.h"

#include "common/strings.h"
#include "eval/cursor.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcx {

namespace {
/// Stamp of the bindings that never change during one run: $root's, and
/// the one literal operands are loaded under.
constexpr uint64_t kFixedStamp = 1;

/// CompareValues over values whose numbers are already parsed.
bool CompareParsed(std::string_view lhs, const std::optional<double>& ln,
                   RelOp op, std::string_view rhs,
                   const std::optional<double>& rn) {
  int cmp;
  if (ln.has_value() && rn.has_value()) {
    cmp = *ln < *rn ? -1 : (*ln > *rn ? 1 : 0);
  } else {
    cmp = lhs.compare(rhs);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case RelOp::kEq:
      return cmp == 0;
    case RelOp::kNe:
      return cmp != 0;
    case RelOp::kLt:
      return cmp < 0;
    case RelOp::kLe:
      return cmp <= 0;
    case RelOp::kGt:
      return cmp > 0;
    case RelOp::kGe:
      return cmp >= 0;
  }
  return false;
}
}  // namespace

bool CompareValues(const std::string& lhs, RelOp op, const std::string& rhs) {
  return CompareParsed(lhs, ParseNumber(lhs), op, rhs, ParseNumber(rhs));
}

Evaluator::Evaluator(const AnalyzedQuery* query, ExecContext* ctx,
                     XmlWriter* writer, EvalOptions options)
    : query_(query), ctx_(ctx), writer_(writer), options_(options) {
  env_.assign(query_->query.var_names.size(), nullptr);
  env_[kRootVar] = ctx_->buffer().root();
  binding_stamp_.assign(env_.size(), 0);
  binding_stamp_[kRootVar] = kFixedStamp;
  last_stamp_ = kFixedStamp;
}

Status Evaluator::Run() { return EvalExpr(*query_->query.body); }

Status Evaluator::EvalExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kEmpty:
      return Status::Ok();
    case ExprKind::kSequence:
      for (const auto& item : expr.items) GCX_RETURN_IF_ERROR(EvalExpr(*item));
      return Status::Ok();
    case ExprKind::kElement:
      writer_->StartElement(expr.tag);
      GCX_RETURN_IF_ERROR(EvalExpr(*expr.child));
      writer_->EndElement(expr.tag);
      return Status::Ok();
    case ExprKind::kOpenTag:
      writer_->StartElement(expr.tag);
      return Status::Ok();
    case ExprKind::kCloseTag:
      writer_->EndElement(expr.tag);
      return Status::Ok();
    case ExprKind::kTextLiteral:
      writer_->Text(expr.text);
      return Status::Ok();
    case ExprKind::kVarRef:
      return EmitSubtree(env_[static_cast<size_t>(expr.var)]);
    case ExprKind::kPathOutput:
      return EvalPathOutput(env_[static_cast<size_t>(expr.var)], expr.path, 0);
    case ExprKind::kFor:
      return EvalFor(expr);
    case ExprKind::kIf: {
      GCX_ASSIGN_OR_RETURN(bool truth, EvalCond(*expr.cond));
      return EvalExpr(truth ? *expr.then_branch : *expr.else_branch);
    }
    case ExprKind::kSignOff:
      return EvalSignOff(expr);
    case ExprKind::kAggregate:
      return EvalAggregate(expr);
  }
  return Status::Ok();
}

std::string FoldSumValues(const std::vector<std::string>& values) {
  double total = 0;
  for (const std::string& value : values) {
    if (auto number = ParseNumber(value)) {
      total += *number;
    } else {
      total = std::numeric_limits<double>::quiet_NaN();
      break;
    }
  }
  return FormatNumber(total);
}

Status Evaluator::EvalAggregate(const Expr& expr) {
  BufferNode* base = env_[static_cast<size_t>(expr.var)];
  GCX_CHECK(base != nullptr);
  // Sharded partial capture intercepts only the final text emission; the
  // match enumeration (and its pulls) run identically either way.
  AggregateParts* capture =
      expr.var == kRootVar ? options_.aggregate_capture : nullptr;
  if (expr.agg == AggKind::kCount) {
    if (expr.path.empty()) {
      writer_->Text("1");  // count($x): the binding itself
      return Status::Ok();
    }
    GCX_ASSIGN_OR_RETURN(uint64_t count, CountMatches(base, expr.path, 0));
    if (capture != nullptr) {
      capture->count = count;
    } else {
      writer_->Text(std::to_string(count));
    }
    return Status::Ok();
  }
  // sum: gather string values (complete once the binding is finished) and
  // add them up with XPath 1.0 pragmatics: an empty match set sums to 0,
  // any non-numeric value makes the sum NaN. (XQuery would raise a type
  // error; NaN keeps the streaming and DOM engines trivially in agreement
  // and is what XPath 1.0 number() semantics prescribe.) All four engine
  // configurations share this rule — the DOM reference implements the
  // identical loop in core/dom_engine.cc.
  GCX_RETURN_IF_ERROR(ReadValues(expr.var, expr.path, &sum_values_));
  std::vector<std::string> values;
  values.reserve(sum_values_.values.size());
  for (const ValueList::Value& value : sum_values_.values) {
    values.emplace_back(sum_values_.View(value));
  }
  if (capture != nullptr) {
    capture->values = std::move(values);
    return Status::Ok();
  }
  writer_->Text(FoldSumValues(values));
  return Status::Ok();
}

Result<uint64_t> Evaluator::CountMatches(BufferNode* base,
                                         const RelativePath& path,
                                         size_t step_index) {
  if (step_index == path.steps.size()) return uint64_t{1};
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  uint64_t total = 0;
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return total;
    GCX_ASSIGN_OR_RETURN(uint64_t below,
                         CountMatches(node, path, step_index + 1));
    total += below;
  }
}

Status Evaluator::EvalFor(const Expr& expr) {
  BufferNode* scope = env_[static_cast<size_t>(expr.var)];
  GCX_CHECK(scope != nullptr && expr.path.steps.size() == 1);
  StepCursor cursor(ctx_, scope, expr.path.steps[0]);
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) break;
    env_[static_cast<size_t>(expr.loop_var)] = node;
    binding_stamp_[static_cast<size_t>(expr.loop_var)] = ++last_stamp_;
    GCX_RETURN_IF_ERROR(EvalExpr(*expr.body));
  }
  env_[static_cast<size_t>(expr.loop_var)] = nullptr;
  return Status::Ok();
}

Status Evaluator::EvalSignOff(const Expr& expr) {
  if (!options_.execute_signoffs) return Status::Ok();
  BufferNode* base = env_[static_cast<size_t>(expr.var)];
  GCX_CHECK(base != nullptr);
  // Role assignment happens while the projector reads the input; removing
  // roles relative to an unfinished binding would let late-arriving matches
  // acquire the role after its signOff. Reading the binding to its end
  // costs nothing extra: the very next binding lies behind it in the
  // stream. The $root scope is the exception — it is signed off at query
  // end, where the remaining input will simply never be read (or matched).
  if (expr.var != kRootVar) {
    GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(base));
  }
  for (const auto& [node, mult] :
       collector_.Collect(ctx_->tags(), base, expr.path)) {
    ctx_->buffer().RemoveRole(node, expr.role, mult);
  }
  return Status::Ok();
}

const MatchCollector::Matches& MatchCollector::Collect(
    const SymbolTable& tags, BufferNode* base, const RelativePath& path) {
  tags_ = &tags;
  size_t non_child_steps = 0;
  for (const Step& step : path.steps) {
    if (step.axis != Axis::kChild) ++non_child_steps;
  }
  merge_duplicates_ = non_child_steps > 1;
  out_.clear();
  Walk(base, path, 0, 1);
  return out_;
}

void MatchCollector::Walk(BufferNode* base, const RelativePath& path,
                          size_t step_index, uint32_t mult) {
  if (step_index == path.steps.size()) {
    if (merge_duplicates_) {
      for (auto& entry : out_) {
        if (entry.first == base) {
          entry.second += mult;
          return;
        }
      }
    }
    out_.push_back({base, mult});
    return;
  }
  const Step& step = path.steps[step_index];
  auto matches = [&](const BufferNode* n) {
    if (n->marked_deleted) return false;
    if (n->is_text) return step.test.MatchesText();
    // The virtual root is only reachable via dos::node() self-matches.
    if (n->parent == nullptr) return step.test.kind == NodeTestKind::kAnyNode;
    return step.test.MatchesElement(tags_->Name(n->tag));
  };
  switch (step.axis) {
    case Axis::kChild: {
      for (BufferNode* c = base->first_child; c != nullptr;
           c = c->next_sibling) {
        if (!matches(c)) continue;
        Walk(c, path, step_index + 1, mult);
        if (step.predicate == StepPredicate::kFirst) break;
      }
      return;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      bool first_only = step.predicate == StepPredicate::kFirst;
      if (step.axis == Axis::kDescendantOrSelf && matches(base)) {
        Walk(base, path, step_index + 1, mult);
        if (first_only) return;
      }
      // Pre-order walk of the subtree; marked (condemned) nodes root
      // role-free subtrees and are skipped wholesale. This level owns the
      // stack above `floor`; nested levels return it at the size they
      // found it.
      const size_t floor = stack_.size();
      for (BufferNode* c = base->last_child; c != nullptr;
           c = c->prev_sibling) {
        if (!c->marked_deleted) stack_.push_back(c);
      }
      while (stack_.size() > floor) {
        BufferNode* n = stack_.back();
        stack_.pop_back();
        if (matches(n)) {
          Walk(n, path, step_index + 1, mult);
          if (first_only) {
            stack_.resize(floor);
            return;
          }
        }
        for (BufferNode* c = n->last_child; c != nullptr; c = c->prev_sibling) {
          if (!c->marked_deleted) stack_.push_back(c);
        }
      }
      return;
    }
  }
}

Status Evaluator::EmitSubtree(BufferNode* node) {
  GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(node));
  if (node->is_text) {
    writer_->Text(node->text);
    return Status::Ok();
  }
  bool is_root = node->parent == nullptr;
  if (!is_root) writer_->StartElement(ctx_->tags().Name(node->tag));
  for (BufferNode* c = node->first_child; c != nullptr; c = c->next_sibling) {
    GCX_RETURN_IF_ERROR(EmitSubtree(c));
  }
  if (!is_root) writer_->EndElement(ctx_->tags().Name(node->tag));
  return Status::Ok();
}

Status Evaluator::EvalPathOutput(BufferNode* base, const RelativePath& path,
                                 size_t step_index) {
  if (step_index == path.steps.size()) return EmitSubtree(base);
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return Status::Ok();
    GCX_RETURN_IF_ERROR(EvalPathOutput(node, path, step_index + 1));
  }
}

Result<bool> Evaluator::ExistsPath(BufferNode* base, const RelativePath& path,
                                   size_t step_index) {
  if (step_index == path.steps.size()) return true;
  StepCursor cursor(ctx_, base, path.steps[step_index]);
  while (true) {
    GCX_ASSIGN_OR_RETURN(BufferNode* node, cursor.Next());
    if (node == nullptr) return false;
    GCX_ASSIGN_OR_RETURN(bool found, ExistsPath(node, path, step_index + 1));
    if (found) return true;
  }
}

Status Evaluator::LoadOperand(const Operand& operand, ValueList* slot) {
  // A binding's values cannot change while its stamp stands: they are read
  // only once the binding is finished, so nothing more arrives under it,
  // and the matches keep their dep roles until the binding's signOff,
  // which follows every use (Theorem 1).
  uint64_t stamp = operand.is_literal
                       ? kFixedStamp
                       : binding_stamp_[static_cast<size_t>(operand.var)];
  if (slot->stamp == stamp) return Status::Ok();
  if (operand.is_literal) {
    slot->text = operand.literal;
    slot->values.assign(1, {0, operand.literal.size(), std::nullopt});
  } else {
    GCX_RETURN_IF_ERROR(ReadValues(operand.var, operand.path, slot));
  }
  for (ValueList::Value& value : slot->values) {
    value.number = ParseNumber(slot->View(value));
  }
  slot->stamp = stamp;
  return Status::Ok();
}

Status Evaluator::ReadValues(VarId var, const RelativePath& path,
                             ValueList* out) {
  BufferNode* base = env_[static_cast<size_t>(var)];
  GCX_CHECK(base != nullptr);
  // General comparison / sum needs the complete match set; the matches
  // carry dos::node() roles, so everything needed is buffered once the
  // binding is finished.
  GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(base));
  out->stamp = 0;
  out->text.clear();
  out->values.clear();
  for (const auto& match : collector_.Collect(ctx_->tags(), base, path)) {
    // XPath string value: concatenated descendant text.
    ValueList::Value value;
    value.begin = out->text.size();
    value_stack_.push_back(match.first);
    while (!value_stack_.empty()) {
      const BufferNode* n = value_stack_.back();
      value_stack_.pop_back();
      if (n->is_text) out->text += n->text;
      for (const BufferNode* c = n->last_child; c != nullptr;
           c = c->prev_sibling) {
        value_stack_.push_back(c);
      }
    }
    value.size = out->text.size() - value.begin;
    out->values.push_back(value);
  }
  return Status::Ok();
}

Result<bool> Evaluator::EvalCond(const Cond& cond) {
  switch (cond.kind) {
    case CondKind::kTrue:
      return true;
    case CondKind::kExists: {
      if (cond.lhs.path.empty()) return true;  // exists($x): always bound
      BufferNode* base = env_[static_cast<size_t>(cond.lhs.var)];
      GCX_CHECK(base != nullptr);
      return ExistsPath(base, cond.lhs.path, 0);
    }
    case CondKind::kCompare: {
      OperandPair& slots = operand_cache_[&cond];
      GCX_RETURN_IF_ERROR(LoadOperand(cond.lhs, &slots.lhs));
      GCX_RETURN_IF_ERROR(LoadOperand(cond.rhs, &slots.rhs));
      for (const ValueList::Value& l : slots.lhs.values) {
        for (const ValueList::Value& r : slots.rhs.values) {
          if (CompareParsed(slots.lhs.View(l), l.number, cond.op,
                            slots.rhs.View(r), r.number)) {
            return true;
          }
        }
      }
      return false;
    }
    case CondKind::kAnd: {
      GCX_ASSIGN_OR_RETURN(bool left, EvalCond(*cond.left));
      if (!left) return false;
      return EvalCond(*cond.right);
    }
    case CondKind::kOr: {
      GCX_ASSIGN_OR_RETURN(bool left, EvalCond(*cond.left));
      if (left) return true;
      return EvalCond(*cond.right);
    }
    case CondKind::kNot: {
      GCX_ASSIGN_OR_RETURN(bool inner, EvalCond(*cond.left));
      return !inner;
    }
  }
  return EvalError("unknown condition kind");
}

}  // namespace gcx
