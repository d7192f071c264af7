#include "core/dom_engine.h"

#include <cstdint>
#include <string>
#include <vector>

#include "eval/evaluator.h"  // CompareValues, SumFold
#include "xpath/dom_eval.h"

namespace gcx {

namespace {

class DomEvaluator {
 public:
  DomEvaluator(const Query& query, XmlWriter* writer)
      : query_(query), writer_(writer) {
    env_.assign(query.var_names.size(), nullptr);
  }

  Status Run(DomNode* root) {
    env_[kRootVar] = root;
    return EvalExpr(*query_.body);
  }

 private:
  /// Applies `fn` to every node reached from `base` via steps
  /// [index..), nested-iteration semantics (no dedup).
  template <typename Fn>
  Status ForEachMatch(DomNode* base, const RelativePath& path, size_t index,
                      const Fn& fn) {
    if (index == path.steps.size()) return fn(base);
    for (DomNode* node : EvalStep(base, path.steps[index])) {
      GCX_RETURN_IF_ERROR(ForEachMatch(node, path, index + 1, fn));
    }
    return Status::Ok();
  }

  Status EmitSubtree(const DomNode* node) {
    writer_->Raw(node->Serialize());
    return Status::Ok();
  }

  Status EvalExpr(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kEmpty:
        return Status::Ok();
      case ExprKind::kSequence:
        for (const auto& item : expr.items) {
          GCX_RETURN_IF_ERROR(EvalExpr(*item));
        }
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
        return ForEachMatch(env_[static_cast<size_t>(expr.var)], expr.path, 0,
                            [&](DomNode* node) { return EmitSubtree(node); });
      case ExprKind::kFor:
        return ForEachMatch(
            env_[static_cast<size_t>(expr.var)], expr.path, 0,
            [&](DomNode* node) {
              env_[static_cast<size_t>(expr.loop_var)] = node;
              Status status = EvalExpr(*expr.body);
              env_[static_cast<size_t>(expr.loop_var)] = nullptr;
              return status;
            });
      case ExprKind::kIf: {
        GCX_ASSIGN_OR_RETURN(bool truth, EvalCond(*expr.cond));
        return EvalExpr(truth ? *expr.then_branch : *expr.else_branch);
      }
      case ExprKind::kAggregate: {
        if (expr.agg == AggKind::kCount) {
          if (expr.path.empty()) {
            writer_->Text("1");
            return Status::Ok();
          }
          uint64_t count = 0;
          GCX_RETURN_IF_ERROR(
              ForEachMatch(env_[static_cast<size_t>(expr.var)], expr.path, 0,
                           [&](DomNode*) {
                             ++count;
                             return Status::Ok();
                           }));
          writer_->Text(std::to_string(count));
          return Status::Ok();
        }
        // The streaming evaluator's fold: empty = 0, non-numeric = NaN.
        SumFold fold;
        GCX_RETURN_IF_ERROR(
            ForEachMatch(env_[static_cast<size_t>(expr.var)], expr.path, 0,
                         [&](DomNode* node) {
                           fold.Add(node->StringValue());
                           return Status::Ok();
                         }));
        writer_->Text(fold.Format());
        return Status::Ok();
      }
      case ExprKind::kSignOff:
        return Status::Ok();  // no buffers to manage
    }
    return Status::Ok();
  }

  Status OperandValues(const Operand& operand, std::vector<std::string>* out) {
    if (operand.is_literal) {
      out->push_back(operand.literal);
      return Status::Ok();
    }
    return ForEachMatch(env_[static_cast<size_t>(operand.var)], operand.path,
                        0, [&](DomNode* node) {
                          out->push_back(node->StringValue());
                          return Status::Ok();
                        });
  }

  Result<bool> EvalCond(const Cond& cond) {
    switch (cond.kind) {
      case CondKind::kTrue:
        return true;
      case CondKind::kExists: {
        if (cond.lhs.path.empty()) return true;
        bool found = false;
        GCX_RETURN_IF_ERROR(ForEachMatch(
            env_[static_cast<size_t>(cond.lhs.var)], cond.lhs.path, 0,
            [&](DomNode*) {
              found = true;
              return Status::Ok();
            }));
        return found;
      }
      case CondKind::kCompare: {
        std::vector<std::string> lhs;
        std::vector<std::string> rhs;
        GCX_RETURN_IF_ERROR(OperandValues(cond.lhs, &lhs));
        GCX_RETURN_IF_ERROR(OperandValues(cond.rhs, &rhs));
        for (const std::string& l : lhs) {
          for (const std::string& r : rhs) {
            if (CompareValues(l, cond.op, r)) return true;
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

  const Query& query_;
  XmlWriter* writer_;
  std::vector<DomNode*> env_;
};

}  // namespace

Status EvalQueryOnDom(const Query& query, DomDocument* doc, XmlWriter* writer) {
  return DomEvaluator(query, writer).Run(doc->root());
}

uint64_t DomSubtreeBytes(const DomNode* node) {
  uint64_t bytes = sizeof(DomNode) + node->tag().capacity() +
                   node->text().capacity() +
                   node->children().size() * sizeof(void*);
  for (const auto& child : node->children()) {
    bytes += DomSubtreeBytes(child.get());
  }
  return bytes;
}

}  // namespace gcx
