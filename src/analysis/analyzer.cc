#include "analysis/analyzer.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xq/printer.h"

namespace gcx {

namespace {

/// True if `path` is exactly the single step dos::node() (a whole-subtree
/// dependency).
bool IsWholeSubtreeDep(const RelativePath& path) {
  return path.steps.size() == 1 &&
         path.steps[0].axis == Axis::kDescendantOrSelf &&
         path.steps[0].test.kind == NodeTestKind::kAnyNode &&
         path.steps[0].predicate == StepPredicate::kNone;
}

/// Rule (b) of redundant-role elimination: `expr` is existential-positive
/// in `var` — every output is a path output rooted at `var`, possibly
/// through nested for-loops whose sources are rooted at `var` (then the
/// check recurses with the nested loop variable).
bool ExistentialPositive(const Expr& expr, VarId var) {
  switch (expr.kind) {
    case ExprKind::kEmpty:
      return true;
    case ExprKind::kSequence:
      for (const auto& item : expr.items) {
        if (!ExistentialPositive(*item, var)) return false;
      }
      return true;
    case ExprKind::kVarRef:
      return expr.var == var;
    case ExprKind::kPathOutput:
      return expr.var == var;
    case ExprKind::kFor:
      // The nested loop must range over `var`'s subtree and itself be
      // existential-positive in its own variable.
      return expr.var == var && ExistentialPositive(*expr.body, expr.loop_var);
    default:
      // if/constructors/literals can produce output for a binding whose
      // projected subtree is empty, so the binding role must stay.
      return false;
  }
}

}  // namespace

void EliminateRedundantRoles(const VariableTree& vars, RoleCatalog* catalog) {
  for (VarId v : vars.AllVars()) {
    if (v == kRootVar) continue;
    const VarInfo& info = vars.info(v);
    bool redundant = false;
    // Rule (a): a whole-subtree dependency covers the bound node itself and
    // is signed off in the same suQ batch as the binding role.
    for (const Dependency& dep : info.deps) {
      if (IsWholeSubtreeDep(dep.path)) {
        redundant = true;
        break;
      }
    }
    // Rule (b): existential-positive body (Fig. 12's $b / r6 case).
    if (!redundant && info.body != nullptr &&
        ExistentialPositive(*info.body, v)) {
      redundant = true;
    }
    if (redundant) catalog->at(info.binding_role).eliminated = true;
  }
}

void MarkAggregateRoles(const VariableTree& vars, RoleCatalog* catalog) {
  for (VarId v : vars.AllVars()) {
    for (const Dependency& dep : vars.info(v).deps) {
      if (!dep.path.empty() &&
          dep.path.steps.back().axis == Axis::kDescendantOrSelf &&
          dep.path.steps.back().test.kind == NodeTestKind::kAnyNode) {
        catalog->at(dep.role).aggregate = true;
      }
    }
  }
}

ProjectionTree DeriveProjectionTree(const VariableTree& vars,
                                    const RoleCatalog& catalog) {
  ProjectionTree tree;
  std::unordered_map<VarId, ProjNode*> var_nodes;
  var_nodes[kRootVar] = tree.root();
  // Topological order over the variable tree (synthesized variables can
  // have larger ids than their children, so plain id order is not enough).
  std::vector<VarId> order;
  {
    std::vector<VarId> pending = vars.AllVars();
    while (!pending.empty()) {
      size_t before = pending.size();
      std::vector<VarId> next;
      for (VarId v : pending) {
        if (v == kRootVar || var_nodes.count(vars.info(v).parent) > 0 ||
            std::find(order.begin(), order.end(), vars.info(v).parent) !=
                order.end()) {
          order.push_back(v);
        } else {
          next.push_back(v);
        }
      }
      GCX_CHECK(next.size() < before);
      pending = std::move(next);
    }
  }
  for (VarId v : order) {
    const VarInfo& info = vars.info(v);
    if (v != kRootVar) {
      ProjNode* parent = var_nodes.at(info.parent);
      ProjNode* node = tree.AddChild(parent, info.step);
      node->var = v;
      if (!catalog.at(info.binding_role).eliminated) {
        node->role = info.binding_role;
      }
      var_nodes[v] = node;
    }
    // Dependency chains.
    for (const Dependency& dep : info.deps) {
      const RoleInfo& role = catalog.at(dep.role);
      if (role.eliminated) continue;
      ProjNode* at = var_nodes.at(v);
      for (size_t i = 0; i < dep.path.steps.size(); ++i) {
        at = tree.AddChild(at, dep.path.steps[i]);
      }
      at->role = dep.role;
      at->aggregate = role.aggregate;
      // `[1]` nodes must be leaves so that runtime first-witness
      // suppression cannot hide matches of deeper steps.
      GCX_CHECK(at->step.predicate != StepPredicate::kFirst ||
                at->children.empty());
    }
  }
  return tree;
}

namespace {

/// Emits the suQ($x) statement list (Fig. 8): for every variable $z whose
/// first straight ancestor is $x, sign off $z's binding role and all of
/// $z's dependency roles, addressed relative to $x via varpath.
std::vector<std::unique_ptr<Expr>> BuildSignOffs(VarId x,
                                                 const VariableTree& vars,
                                                 const RoleCatalog& catalog) {
  std::vector<std::unique_ptr<Expr>> out;
  for (VarId z : vars.AllVars()) {
    const VarInfo& info = vars.info(z);
    if (info.fsa != x) continue;
    RelativePath sigma = vars.VarPath(x, z);
    if (z != kRootVar && !catalog.at(info.binding_role).eliminated) {
      out.push_back(MakeSignOff(x, sigma, info.binding_role));
    }
    for (const Dependency& dep : info.deps) {
      const RoleInfo& role = catalog.at(dep.role);
      if (role.eliminated) continue;
      RelativePath full = sigma;
      size_t steps = dep.path.steps.size();
      // Aggregate roles live on the subtree root: the signOff drops the
      // trailing dos::node() step (Sec. 6).
      if (role.aggregate) --steps;
      for (size_t i = 0; i < steps; ++i) {
        full.steps.push_back(dep.path.steps[i]);
      }
      out.push_back(MakeSignOff(x, std::move(full), dep.role));
    }
  }
  return out;
}

void InsertInto(Expr* expr, const VariableTree& vars,
                const RoleCatalog& catalog) {
  switch (expr->kind) {
    case ExprKind::kSequence:
      for (auto& item : expr->items) InsertInto(item.get(), vars, catalog);
      return;
    case ExprKind::kElement:
      InsertInto(expr->child.get(), vars, catalog);
      return;
    case ExprKind::kIf:
      InsertInto(expr->then_branch.get(), vars, catalog);
      InsertInto(expr->else_branch.get(), vars, catalog);
      return;
    case ExprKind::kFor: {
      InsertInto(expr->body.get(), vars, catalog);
      auto stmts = BuildSignOffs(expr->loop_var, vars, catalog);
      if (!stmts.empty()) {
        std::vector<std::unique_ptr<Expr>> items;
        items.push_back(std::move(expr->body));
        for (auto& stmt : stmts) items.push_back(std::move(stmt));
        expr->body = MakeSequence(std::move(items));
      }
      return;
    }
    default:
      return;
  }
}

/// True if `cond` reads `var`.
bool CondMentions(const Cond& cond, VarId var) {
  switch (cond.kind) {
    case CondKind::kTrue:
      return false;
    case CondKind::kExists:
      return cond.lhs.var == var;
    case CondKind::kCompare:
      return (!cond.lhs.is_literal && cond.lhs.var == var) ||
             (!cond.rhs.is_literal && cond.rhs.var == var);
    case CondKind::kAnd:
    case CondKind::kOr:
      return CondMentions(*cond.left, var) || CondMentions(*cond.right, var);
    case CondKind::kNot:
      return CondMentions(*cond.left, var);
  }
  return true;
}

bool ContainsSignOff(const Expr& expr) {
  if (expr.kind == ExprKind::kSignOff) return true;
  for (const auto& item : expr.items) {
    if (ContainsSignOff(*item)) return true;
  }
  for (const Expr* sub : {expr.child.get(), expr.body.get(),
                          expr.then_branch.get(), expr.else_branch.get()}) {
    if (sub != nullptr && ContainsSignOff(*sub)) return true;
  }
  return false;
}

/// Hoists the guard of the loop in `*slot`, then the next guard of the same
/// loop, for as long as HoistGuards' conditions hold.
void HoistAt(std::unique_ptr<Expr>* slot) {
  Expr* loop = slot->get();
  while (loop->kind == ExprKind::kFor && loop->body->kind == ExprKind::kIf &&
         loop->body->else_branch->kind == ExprKind::kEmpty &&
         !CondMentions(*loop->body->cond, loop->loop_var) &&
         !ContainsSignOff(*loop->body->then_branch)) {
    std::unique_ptr<Expr> guard = std::move(loop->body);
    loop->body = std::move(guard->then_branch);
    guard->then_branch = std::move(*slot);
    *slot = std::move(guard);
    slot = &(*slot)->then_branch;
  }
}

/// Hoists signOff-free guards out of their loops, bottom-up so that the
/// rewrite cascades: `for $v in P return if C then E else ()` becomes
/// `if C then (for $v in P return E) else ()` when C does not mention $v
/// and E holds no signOff. This inverts Fig. 7's rule FOR, whose only
/// purpose is to run the signOffs of every binding: where none was placed,
/// the loop's one buffer effect is cursor pins, so skipping it when C is
/// false strands no role (Sec. 3), and C, fixed over the loop, selects the
/// same output (Theorem 1). Runs after InsertSignOffs.
void HoistGuards(std::unique_ptr<Expr>* slot) {
  Expr* expr = slot->get();
  for (auto& item : expr->items) HoistGuards(&item);
  for (std::unique_ptr<Expr>* sub : {&expr->child, &expr->body,
                                     &expr->then_branch, &expr->else_branch}) {
    if (*sub != nullptr) HoistGuards(sub);
  }
  HoistAt(slot);
}

}  // namespace

void InsertSignOffs(Query* query, const VariableTree& vars,
                    const RoleCatalog& catalog) {
  // Loops first (rule 2), then the query root (rule 1).
  InsertInto(query->body.get(), vars, catalog);
  auto stmts = BuildSignOffs(kRootVar, vars, catalog);
  if (!stmts.empty()) {
    GCX_CHECK(query->body->kind == ExprKind::kElement);
    std::vector<std::unique_ptr<Expr>> items;
    items.push_back(std::move(query->body->child));
    for (auto& stmt : stmts) items.push_back(std::move(stmt));
    query->body->child = MakeSequence(std::move(items));
  }
}

Result<AnalyzedQuery> Analyze(Query normalized, const AnalysisOptions& options) {
  AnalyzedQuery out;
  out.query = std::move(normalized);
  GCX_ASSIGN_OR_RETURN(out.vars,
                       VariableTree::Build(out.query, &out.roles));
  if (options.eliminate_redundant_roles) {
    EliminateRedundantRoles(out.vars, &out.roles);
  }
  if (options.aggregate_roles) {
    MarkAggregateRoles(out.vars, &out.roles);
  }
  out.projection = DeriveProjectionTree(out.vars, out.roles);
  InsertSignOffs(&out.query, out.vars, out.roles);
  HoistGuards(&out.query.body);
  return out;
}

std::string AnalyzedQuery::Explain() const {
  std::string out;
  out += "== variable tree ==\n";
  out += vars.ToString(query.var_names);
  out += "== roles ==\n";
  out += roles.ToString(query.var_names);
  out += "== projection tree ==\n";
  out += projection.ToString();
  out += "== rewritten query ==\n";
  out += PrintQuery(query);
  out += "\n";
  return out;
}

}  // namespace gcx
