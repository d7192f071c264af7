#include "eval/evaluator.h"

#include "common/strings.h"
#include "eval/cursor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcx {

namespace {
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
  memos_by_fsa_.resize(env_.size());
  PlanOperands(*query_->query.body);
}

void Evaluator::PlanOperands(const Expr& expr) {
  if (expr.cond != nullptr) PlanCond(*expr.cond);
  for (const auto& item : expr.items) PlanOperands(*item);
  for (const Expr* sub : {expr.child.get(), expr.body.get(),
                          expr.then_branch.get(), expr.else_branch.get()}) {
    if (sub != nullptr) PlanOperands(*sub);
  }
}

void Evaluator::PlanCond(const Cond& cond) {
  if (cond.kind == CondKind::kCompare) {
    OperandSource lhs = PlanOperand(cond.lhs);
    operand_sources_[&cond] = {lhs, PlanOperand(cond.rhs)};
  }
  if (cond.left != nullptr) PlanCond(*cond.left);
  if (cond.right != nullptr) PlanCond(*cond.right);
}

Evaluator::OperandSource Evaluator::PlanOperand(const Operand& operand) {
  if (operand.is_literal) {
    ValueList& list = literals_.emplace_back();
    list.text = operand.literal;
    list.values.push_back(
        {0, operand.literal.size(), ParseNumber(operand.literal)});
    return {true, static_cast<uint32_t>(literals_.size() - 1)};
  }
  // The if-clones rules NC and SEQ make share one memo per (var, path).
  for (size_t i = 0; i < memo_keys_.size(); ++i) {
    if (memo_keys_[i].first == operand.var &&
        *memo_keys_[i].second == operand.path) {
      return {false, static_cast<uint32_t>(i)};
    }
  }
  auto index = static_cast<uint32_t>(memos_.size());
  memos_.emplace_back();
  memo_keys_.push_back({operand.var, &operand.path});
  VarId fsa = query_->vars.info(operand.var).fsa;
  memos_by_fsa_[static_cast<size_t>(fsa)].push_back(index);
  return {false, index};
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

void SumFold::Add(std::string_view value) {
  // NaN absorbs every later addend, so a poisoned sum stays NaN.
  if (auto number = ParseNumber(value)) {
    total_ += *number;
  } else {
    total_ = std::numeric_limits<double>::quiet_NaN();
  }
}

std::string SumFold::Format() const { return FormatNumber(total_); }

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
  // configurations share this rule: the DOM reference folds through the
  // same SumFold.
  sum_values_.Clear();
  GCX_RETURN_IF_ERROR(ReadValues(expr.var, expr.path, &sum_values_));
  if (capture != nullptr) {
    capture->values.clear();
    for (const ValueList::Value& value : sum_values_.values) {
      capture->values.emplace_back(sum_values_.View(value));
    }
    return Status::Ok();
  }
  SumFold fold;
  for (const ValueList::Value& value : sum_values_.values) {
    fold.Add(sum_values_.View(value));
  }
  writer_->Text(fold.Format());
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
    GCX_RETURN_IF_ERROR(EvalExpr(*expr.body));
    // The iteration's signOffs have run: nodes the memos below describe
    // may be purged from here on.
    for (uint32_t memo : memos_by_fsa_[static_cast<size_t>(expr.loop_var)]) {
      memos_[memo].Clear();
    }
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

Result<Evaluator::OperandValues> Evaluator::LoadOperand(
    const Operand& operand, OperandSource source) {
  if (source.literal) {
    const ValueList& list = literals_[source.index];
    return OperandValues{&list, 0, list.values.size()};
  }
  OperandMemo& memo = memos_[source.index];
  BufferNode* base = env_[static_cast<size_t>(operand.var)];
  GCX_CHECK(base != nullptr);
  uint64_t created = ctx_->buffer().stats().nodes_created;
  const OperandMemo::Entry* entry = memo.Find(base, created);
  if (entry == nullptr) {
    ValueList& list = memo.list();
    size_t first = list.values.size();
    GCX_RETURN_IF_ERROR(ReadValues(operand.var, operand.path, &list));
    ++stats_.value_reads;
    for (size_t i = first; i < list.values.size(); ++i) {
      list.values[i].number = ParseNumber(list.View(list.values[i]));
    }
    // ReadValues may have pulled, creating nodes; the binding is older.
    entry = &memo.Insert(base, ctx_->buffer().stats().nodes_created, first);
  }
  return OperandValues{&memo.list(), entry->first, entry->count};
}

Status Evaluator::ReadValues(VarId var, const RelativePath& path,
                             ValueList* out) {
  BufferNode* base = env_[static_cast<size_t>(var)];
  GCX_CHECK(base != nullptr);
  // General comparison / sum needs the complete match set; the matches
  // carry dos::node() roles, so everything needed is buffered once the
  // binding is finished.
  GCX_RETURN_IF_ERROR(ctx_->EnsureFinished(base));
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
      ++stats_.comparisons;
      const auto& [lhs_source, rhs_source] = operand_sources_.at(&cond);
      GCX_ASSIGN_OR_RETURN(OperandValues lhs,
                           LoadOperand(cond.lhs, lhs_source));
      GCX_ASSIGN_OR_RETURN(OperandValues rhs,
                           LoadOperand(cond.rhs, rhs_source));
      // Entries are offsets, so loading one side never moves the other's.
      for (size_t i = lhs.first; i < lhs.first + lhs.count; ++i) {
        const ValueList::Value& l = lhs.list->values[i];
        for (size_t j = rhs.first; j < rhs.first + rhs.count; ++j) {
          const ValueList::Value& r = rhs.list->values[j];
          if (CompareParsed(lhs.list->View(l), l.number, cond.op,
                            rhs.list->View(r), r.number)) {
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

size_t OperandMemo::Home(const BufferNode* node) const {
  uint64_t h = (reinterpret_cast<uintptr_t>(node) >> 4) *
               0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 32) & (table_.size() - 1);
}

const OperandMemo::Entry* OperandMemo::Find(const BufferNode* node,
                                            uint64_t nodes_created) {
  if (entries_.empty()) return nullptr;
  for (size_t at = Home(node); table_[at] != 0;
       at = (at + 1) & (table_.size() - 1)) {
    Entry& entry = entries_[table_[at] - 1];
    if (entry.node != node ||
        static_cast<uint32_t>(entry.birth) != node->serial) {
      continue;
    }
    if (SerialWindowHolds(entry.birth, nodes_created)) return &entry;
    entry.node = nullptr;  // the pair may name a younger node by now
    return nullptr;
  }
  return nullptr;
}

const OperandMemo::Entry& OperandMemo::Insert(const BufferNode* node,
                                              uint64_t nodes_created,
                                              size_t first) {
  Entry entry;
  entry.node = node;
  entry.birth = NodeBirth(node->serial, nodes_created);
  entry.first = static_cast<uint32_t>(first);
  entry.count = static_cast<uint32_t>(list_.values.size() - first);
  entries_.push_back(entry);
  if (entries_.size() * 2 > table_.size()) {
    // Keep the load factor at or below one half.
    table_.assign(std::max<size_t>(8, table_.size() * 2), 0);
    for (uint32_t i = 0; i < entries_.size(); ++i) Place(i);
  } else {
    Place(static_cast<uint32_t>(entries_.size() - 1));
  }
  return entries_.back();
}

void OperandMemo::Place(uint32_t index) {
  Entry& entry = entries_[index];
  size_t at = Home(entry.node);
  while (table_[at] != 0) at = (at + 1) & (table_.size() - 1);
  table_[at] = index + 1;
  entry.slot = static_cast<uint32_t>(at);
}

void OperandMemo::Clear() {
  for (const Entry& entry : entries_) table_[entry.slot] = 0;
  entries_.clear();
  list_.Clear();
}

}  // namespace gcx
