// Unit tests for static analysis (src/analysis) against the paper's worked
// examples: dependencies (Def. 2 / Example 5), straightness and fsa
// (Defs. 3-4 / Example 6), projection-tree derivation (Fig. 1, Fig. 12),
// signOff insertion (Fig. 8 / Fig. 9 / Example 4), redundant-role
// elimination (Sec. 6), and the hoist of signOff-free guards.

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "xq/normalize.h"
#include "xq/parser.h"
#include "xq/printer.h"

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gcx {
namespace {

constexpr std::string_view kIntroQuery = R"q(
<r>{
  for $bib in /bib return
    ((for $x in $bib/* return
        if (not(exists($x/price))) then $x else ()),
     (for $b in $bib/book return $b/title))
}</r>)q";

// Fig. 9 / Example 4's second query: the inner loop ranges over an absolute
// path, so $b is not straight.
constexpr std::string_view kFig9Query =
    "<q>{ for $a in //a return <a>{ for $b in //b return <b/> }</a> }</q>";

// Example 4's first query: nested loops over relative paths; everything is
// straight.
constexpr std::string_view kEx4Query =
    "<q>{ for $a in //a return <a>{ for $b in $a//b return <b/> }</a> }</q>";

struct Compiled {
  Query query;
  RoleCatalog roles;
  VariableTree vars;
};

Compiled BuildVars(std::string_view text, bool early_updates = false) {
  auto parsed = ParseQuery(text);
  GCX_CHECK(parsed.ok());
  Query query = std::move(parsed).value();
  NormalizeOptions options;
  options.early_updates = early_updates;
  GCX_CHECK(Normalize(&query, options).ok());
  Compiled out{std::move(query), RoleCatalog(), VariableTree()};
  auto vars = VariableTree::Build(out.query, &out.roles);
  GCX_CHECK(vars.ok());
  out.vars = std::move(vars).value();
  return out;
}

VarId FindVar(const Query& query, std::string_view name) {
  for (size_t i = 0; i < query.var_names.size(); ++i) {
    if (query.var_names[i] == name) return static_cast<VarId>(i);
  }
  GCX_CHECK(false);
  return -1;
}

// --- variable tree & dependencies (Example 5) ------------------------------------

TEST(VariableTree, IntroQueryStructure) {
  Compiled c = BuildVars(kIntroQuery);
  VarId bib = FindVar(c.query, "$bib");
  VarId x = FindVar(c.query, "$x");
  VarId b = FindVar(c.query, "$b");
  EXPECT_EQ(c.vars.info(bib).parent, kRootVar);
  EXPECT_EQ(c.vars.info(x).parent, bib);
  EXPECT_EQ(c.vars.info(b).parent, bib);
  EXPECT_EQ(c.vars.info(bib).step.ToString(), "bib");
  EXPECT_EQ(c.vars.info(x).step.ToString(), "*");
  EXPECT_EQ(c.vars.info(b).step.ToString(), "book");
}

TEST(VariableTree, IntroQueryDependencies) {
  // Example 5: dep($x) = {<price[1], ·>, <dos::node(), ·>},
  //            dep($b) = {<title/dos::node(), ·>}.
  Compiled c = BuildVars(kIntroQuery);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  ASSERT_EQ(x.deps.size(), 2u);
  EXPECT_EQ(x.deps[0].path.ToString(), "price[1]");
  EXPECT_EQ(x.deps[1].path.ToString(), "dos::node()");
  const VarInfo& b = c.vars.info(FindVar(c.query, "$b"));
  ASSERT_EQ(b.deps.size(), 1u);
  EXPECT_EQ(b.deps[0].path.ToString(), "title/dos::node()");
  EXPECT_TRUE(c.vars.info(FindVar(c.query, "$bib")).deps.empty());
}

TEST(VariableTree, ComparisonOperandsYieldSubtreeDeps) {
  Compiled c = BuildVars(
      "<r>{ for $x in /a return if ($x/u = $x/v/w) then <y/> else () }</r>");
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  ASSERT_EQ(x.deps.size(), 2u);
  EXPECT_EQ(x.deps[0].path.ToString(), "u/dos::node()");
  EXPECT_EQ(x.deps[1].path.ToString(), "v/w/dos::node()");
}

TEST(VariableTree, VarRefOutputYieldsWholeSubtreeDep) {
  Compiled c = BuildVars("<r>{ for $x in /a return $x }</r>");
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  ASSERT_EQ(x.deps.size(), 1u);
  EXPECT_EQ(x.deps[0].path.ToString(), "dos::node()");
}

TEST(VariableTree, ExistsYieldsFirstWitnessDep) {
  Compiled c = BuildVars(
      "<r>{ for $x in /a return if (exists($x/b/c)) then <y/> else () }</r>");
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  ASSERT_EQ(x.deps.size(), 1u);
  EXPECT_EQ(x.deps[0].path.ToString(), "b/c[1]");
}

TEST(VariableTree, RejectsDosAxisInUserPaths) {
  auto parsed = ParseQuery("<r>{ for $x in /a return $x/dos::node() }</r>");
  ASSERT_TRUE(parsed.ok());
  Query query = std::move(parsed).value();
  NormalizeOptions no_early;
  no_early.early_updates = false;
  GCX_CHECK(Normalize(&query, no_early).ok());
  RoleCatalog roles;
  EXPECT_FALSE(VariableTree::Build(query, &roles).ok());
}

// --- straightness / fsa (Defs. 3-4, Example 6) -------------------------------------

TEST(Straightness, Example4VariablesAreStraight) {
  Compiled c = BuildVars(kEx4Query);
  VarId a = FindVar(c.query, "$a");
  VarId b = FindVar(c.query, "$b");
  EXPECT_TRUE(c.vars.info(a).straight);
  EXPECT_TRUE(c.vars.info(b).straight);
  EXPECT_EQ(c.vars.info(a).fsa, a);
  EXPECT_EQ(c.vars.info(b).fsa, b);
}

TEST(Straightness, Fig9InnerVariableIsNotStraight) {
  // Example 6: $b is not straight; fsa($b) = $root.
  Compiled c = BuildVars(kFig9Query);
  VarId a = FindVar(c.query, "$a");
  VarId b = FindVar(c.query, "$b");
  EXPECT_TRUE(c.vars.info(a).straight);
  EXPECT_FALSE(c.vars.info(b).straight);
  EXPECT_EQ(c.vars.info(b).fsa, kRootVar);
}

TEST(Straightness, JoinInnerLoopIsNotStraight) {
  Compiled c = BuildVars(
      "<r>{ for $p in /people return for $t in /sales return "
      "if ($t/who = $p/id) then $t else () }</r>");
  EXPECT_FALSE(c.vars.info(FindVar(c.query, "$t")).straight);
  EXPECT_EQ(c.vars.info(FindVar(c.query, "$t")).fsa, kRootVar);
  EXPECT_TRUE(c.vars.info(FindVar(c.query, "$p")).straight);
}

TEST(Straightness, DeepChainsStayStraight) {
  Compiled c = BuildVars(
      "<r>{ for $a in /a return for $b in $a/b return for $c in $b/c "
      "return $c }</r>");
  for (const char* name : {"$a", "$b", "$c"}) {
    EXPECT_TRUE(c.vars.info(FindVar(c.query, name)).straight) << name;
  }
}

TEST(VariableTree, VarPathChainsSteps) {
  Compiled c = BuildVars(kEx4Query);
  VarId a = FindVar(c.query, "$a");
  VarId b = FindVar(c.query, "$b");
  EXPECT_EQ(c.vars.VarPath(kRootVar, b).ToString(),
            "descendant::a/descendant::b");
  EXPECT_EQ(c.vars.VarPath(a, b).ToString(), "descendant::b");
  EXPECT_TRUE(c.vars.VarPath(b, b).empty());
}

// --- projection tree (Sec. 4, Fig. 1 / Fig. 12) --------------------------------------

TEST(ProjectionTree, IntroQueryMatchesFig1) {
  // Without the Sec. 6 optimizations this is exactly Fig. 1.
  auto parsed = ParseQuery(kIntroQuery);
  ASSERT_TRUE(parsed.ok());
  Query query = std::move(parsed).value();
  NormalizeOptions norm;
  norm.early_updates = false;
  ASSERT_TRUE(Normalize(&query, norm).ok());
  AnalysisOptions options;
  options.aggregate_roles = false;
  options.eliminate_redundant_roles = false;
  auto analyzed = Analyze(std::move(query), options);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->projection.ToString(),
            "/\n"
            "  bib {r1} [$1]\n"
            "    * {r2} [$2]\n"
            "      price[1] {r3}\n"
            "      dos::node() {r4}\n"
            "    book {r5} [$3]\n"
            "      title\n"
            "        dos::node() {r6}\n");
}

TEST(ProjectionTree, IntroQueryWithOptimizationsMatchesFig12) {
  // With redundant-role elimination the binding roles of $x and $b are gone
  // (Fig. 12 removes r3/r6 in the paper's numbering); aggregates are
  // starred.
  auto parsed = ParseQuery(kIntroQuery);
  ASSERT_TRUE(parsed.ok());
  Query query = std::move(parsed).value();
  NormalizeOptions norm;
  norm.early_updates = false;
  ASSERT_TRUE(Normalize(&query, norm).ok());
  auto analyzed = Analyze(std::move(query), AnalysisOptions{});
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->projection.ToString(),
            "/\n"
            "  bib {r1} [$1]\n"
            "    * [$2]\n"
            "      price[1] {r3}\n"
            "      dos::node() {r4*}\n"
            "    book [$3]\n"
            "      title\n"
            "        dos::node() {r6*}\n");
}

// --- redundant-role elimination (Sec. 6) -----------------------------------------------

TEST(RedundantRoles, RuleAWholeSubtreeDependency) {
  Compiled c = BuildVars("<r>{ for $x in /a return $x }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  EXPECT_TRUE(c.roles.at(x.binding_role).eliminated);
}

TEST(RedundantRoles, RuleBExistentialPositiveBody) {
  Compiled c = BuildVars("<r>{ for $b in /book return $b/title }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  const VarInfo& b = c.vars.info(FindVar(c.query, "$b"));
  EXPECT_TRUE(c.roles.at(b.binding_role).eliminated);
}

TEST(RedundantRoles, ConstructorBodyKeepsBindingRole) {
  // <hit/> is output per binding: the iteration count is observable, so the
  // binding role must stay.
  Compiled c = BuildVars("<r>{ for $x in /a return <hit/> }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  EXPECT_FALSE(c.roles.at(x.binding_role).eliminated);
}

TEST(RedundantRoles, NegatedConditionKeepsBindingRole) {
  Compiled c = BuildVars(
      "<r>{ for $x in /a return "
      "if (not(exists($x/p))) then <y/> else () }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  EXPECT_FALSE(c.roles.at(x.binding_role).eliminated);
}

TEST(RedundantRoles, ForeignLoopInBodyKeepsBindingRole) {
  // The inner loop ranges over $root, so each $x iteration re-emits it: the
  // number of $x bindings is observable.
  Compiled c = BuildVars(
      "<r>{ for $x in /a return for $t in /b return $t }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  EXPECT_FALSE(c.roles.at(x.binding_role).eliminated);
}

TEST(RedundantRoles, NestedOwnLoopIsEliminated) {
  Compiled c = BuildVars(
      "<r>{ for $x in /a return for $y in $x/b return $y/c }</r>");
  EliminateRedundantRoles(c.vars, &c.roles);
  EXPECT_TRUE(
      c.roles.at(c.vars.info(FindVar(c.query, "$x")).binding_role).eliminated);
  EXPECT_TRUE(
      c.roles.at(c.vars.info(FindVar(c.query, "$y")).binding_role).eliminated);
}

// --- aggregate marking ----------------------------------------------------------------

TEST(AggregateRoles, MarksTrailingDosDeps) {
  Compiled c = BuildVars(
      "<r>{ for $x in /a return "
      "(if (exists($x/w)) then $x/u else ()) }</r>");
  MarkAggregateRoles(c.vars, &c.roles);
  const VarInfo& x = c.vars.info(FindVar(c.query, "$x"));
  ASSERT_EQ(x.deps.size(), 2u);  // w[1], u/dos::node()
  EXPECT_FALSE(c.roles.at(x.deps[0].role).aggregate);
  EXPECT_TRUE(c.roles.at(x.deps[1].role).aggregate);
}

// --- signOff insertion (Fig. 8 / Fig. 9) -------------------------------------------------

std::string AnalyzedText(std::string_view text, bool optimize) {
  auto parsed = ParseQuery(text);
  GCX_CHECK(parsed.ok());
  Query query = std::move(parsed).value();
  NormalizeOptions norm;
  norm.early_updates = false;
  GCX_CHECK(Normalize(&query, norm).ok());
  AnalysisOptions options;
  options.aggregate_roles = optimize;
  options.eliminate_redundant_roles = optimize;
  auto analyzed = Analyze(std::move(query), options);
  GCX_CHECK(analyzed.ok());
  return PrintQuery(analyzed->query);
}

TEST(SignOffs, IntroQueryMatchesPaperRewriting) {
  // Sec. 1's rewritten query: signOffs for $x's roles at the end of for$x,
  // for $b's at the end of for$b, for $bib at the end of for$bib.
  std::string printed = AnalyzedText(kIntroQuery, /*optimize=*/false);
  EXPECT_NE(printed.find("signOff($x, r2)"), std::string::npos) << printed;
  EXPECT_NE(printed.find("signOff($x/price[1], r3)"), std::string::npos);
  EXPECT_NE(printed.find("signOff($x/dos::node(), r4)"), std::string::npos);
  EXPECT_NE(printed.find("signOff($b, r5)"), std::string::npos);
  EXPECT_NE(printed.find("signOff($b/title/dos::node(), r6)"),
            std::string::npos);
  EXPECT_NE(printed.find("signOff($bib, r1)"), std::string::npos);
}

TEST(SignOffs, Fig9NonStraightRolesMoveToRootScope) {
  std::string printed = AnalyzedText(kFig9Query, /*optimize=*/false);
  // signOff($a, r1) inside the $a loop; signOff($root//b, r2) at the end of
  // the whole query (Fig. 9's rewritten form).
  EXPECT_NE(printed.find("signOff($a, r1)"), std::string::npos) << printed;
  EXPECT_NE(printed.find("signOff($root/descendant::b, r2)"),
            std::string::npos)
      << printed;
  // And the root-scope signOff comes after the $a loop.
  EXPECT_GT(printed.find("signOff($root/descendant::b"),
            printed.find("signOff($a, r1)"));
}

TEST(SignOffs, Example4NestedRelativeLoops) {
  std::string printed = AnalyzedText(kEx4Query, /*optimize=*/false);
  EXPECT_NE(printed.find("signOff($b, r2)"), std::string::npos) << printed;
  EXPECT_NE(printed.find("signOff($a, r1)"), std::string::npos) << printed;
}

TEST(SignOffs, AggregateSignOffDropsTrailingDos) {
  std::string printed =
      AnalyzedText("<r>{ for $b in /book return $b/title }</r>",
                   /*optimize=*/true);
  // Aggregate: signOff($b/title, rN) instead of $b/title/dos::node().
  EXPECT_NE(printed.find("signOff($b/title, r"), std::string::npos) << printed;
  EXPECT_EQ(printed.find("title/dos::node(), r"), std::string::npos) << printed;
}

TEST(SignOffs, EveryRoleIsSignedOffExactlyOnce) {
  for (std::string_view text :
       {kIntroQuery, kFig9Query, kEx4Query,
        std::string_view("<r>{ for $x in /a/b//c return "
                         "if ($x/u = \"1\") then $x/v else () }</r>")}) {
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    Query query = std::move(parsed).value();
    ASSERT_TRUE(Normalize(&query).ok());
    auto analyzed = Analyze(std::move(query), AnalysisOptions{});
    ASSERT_TRUE(analyzed.ok());
    // Count signOff statements per role.
    std::vector<int> counts(analyzed->roles.size(), 0);
    std::function<void(const Expr&)> walk = [&](const Expr& expr) {
      if (expr.kind == ExprKind::kSignOff) {
        counts[static_cast<size_t>(expr.role)]++;
      }
      for (const auto& item : expr.items) walk(*item);
      if (expr.child) walk(*expr.child);
      if (expr.body) walk(*expr.body);
      if (expr.then_branch) walk(*expr.then_branch);
      if (expr.else_branch) walk(*expr.else_branch);
    };
    walk(*analyzed->query.body);
    for (size_t r = 1; r < counts.size(); ++r) {
      const RoleInfo& info = analyzed->roles.at(static_cast<RoleId>(r));
      EXPECT_EQ(counts[r], info.eliminated ? 0 : 1)
          << "role r" << r << " in " << text;
    }
  }
}

// --- guard hoisting (inverse of Fig. 7's rule FOR) ---------------------------------

/// The rewritten query as Analyze prints it, and as it prints before the
/// hoist (the same pipeline stopped after InsertSignOffs).
std::pair<std::string, std::string> HoistedAndUnhoisted(std::string_view text) {
  auto parsed = ParseQuery(text);
  GCX_CHECK(parsed.ok());
  Query query = std::move(parsed).value();
  GCX_CHECK(Normalize(&query).ok());
  Query copy = query.Clone();
  auto analyzed = Analyze(std::move(query));
  GCX_CHECK(analyzed.ok());
  RoleCatalog roles;
  auto vars = VariableTree::Build(copy, &roles);
  GCX_CHECK(vars.ok());
  EliminateRedundantRoles(*vars, &roles);
  MarkAggregateRoles(*vars, &roles);
  InsertSignOffs(&copy, *vars, roles);
  return {PrintQuery(analyzed->query), PrintQuery(copy)};
}

constexpr std::string_view kQ8 = R"q(
<q8>{
  for $p in /site/people/person return
    <item>{
      ($p/name,
       for $t in /site/closed_auctions/closed_auction return
         if ($t/buyer/person = $p/id) then $t/itemref else ())
    }</item>
}</q8>)q";

TEST(HoistGuards, Q8GuardLeavesTheItemrefLoop) {
  auto [hoisted, unhoisted] = HoistedAndUnhoisted(kQ8);
  EXPECT_EQ(
      hoisted,
      "<q8>{(for $#step7 in $root/site return (for $#step8 in $#step7/people "
      "return (for $p in $#step8/person return (<item>{(for $#out3 in "
      "$p/name return ($#out3, signOff($#out3, r5)), for $#step5 in "
      "$root/site return for $#step6 in $#step5/closed_auctions return for "
      "$t in $#step6/closed_auction return if ($t/buyer/person = $p/id) then "
      "for $#out4 in $t/itemref return $#out4 else ())}</item>, "
      "signOff($p, r3), signOff($p/id, r11)), signOff($#step8, r2)), "
      "signOff($#step7, r1)), signOff($root/site/closed_auctions/"
      "closed_auction, r8), signOff($root/site/closed_auctions/"
      "closed_auction/buyer/person, r10), signOff($root/site/"
      "closed_auctions/closed_auction/itemref, r12), signOff($root/site, "
      "r6), signOff($root/site/closed_auctions, r7))}</q8>");
  // Rule FOR had pushed the guard into the itemref loop; it stops at $t,
  // which it mentions.
  EXPECT_NE(unhoisted.find("for $#out4 in $t/itemref return if "
                           "($t/buyer/person = $p/id) then $#out4 else ()"),
            std::string::npos)
      << unhoisted;
}

TEST(HoistGuards, Q1GuardStaysWithItsSignOff) {
  constexpr std::string_view kQ1 = R"q(
<q1>{
  for $p in /site/people/person return
    if ($p/id = "person0") then $p/name else ()
}</q1>)q";
  auto [hoisted, unhoisted] = HoistedAndUnhoisted(kQ1);
  // The name loop's body carries signOff($#out2, r6): running it for every
  // binding is what rule FOR is for, so the loop is not hoisted.
  EXPECT_EQ(hoisted,
            "<q1>{for $#step3 in $root/site return (for $#step4 in "
            "$#step3/people return (for $p in $#step4/person return (for "
            "$#out2 in $p/name return (if ($p/id = \"person0\") then "
            "$#out2 else (), signOff($#out2, r6)), signOff($p, r3), "
            "signOff($p/id, r5)), signOff($#step4, r2)), signOff($#step3, "
            "r1))}</q1>");
  EXPECT_EQ(hoisted, unhoisted);
}

TEST(HoistGuards, CascadesPastEveryLoopTheGuardIgnores) {
  auto [hoisted, unhoisted] = HoistedAndUnhoisted(
      "<r>{ for $p in /s/p return <row>{ for $t in /s/t return "
      "for $l in $t/l return if ($p/v = \"y\") then $l/i else () }</row> }</r>");
  EXPECT_NE(hoisted.find("<row>{if ($p/v = \"y\") then for $#step"),
            std::string::npos)
      << hoisted;
  EXPECT_NE(unhoisted.find("return if ($p/v = \"y\") then $#out"),
            std::string::npos)
      << unhoisted;
}

TEST(HoistGuards, KeepsGuardsThatReadTheLoopOrHaveAnElse) {
  for (std::string_view text :
       {std::string_view("<r>{ for $p in /s/p return for $t in /s/t return "
                         "if ($t/k = $p/k) then <m/> else () }</r>"),
        std::string_view("<r>{ for $p in /s/p return for $t in /s/t return "
                         "if ($p/k = \"1\") then <m/> else <n/> }</r>")}) {
    auto [hoisted, unhoisted] = HoistedAndUnhoisted(text);
    EXPECT_EQ(hoisted, unhoisted) << text;
  }
}

TEST(Analyzer, RejectsDuplicateBindings) {
  // Same variable cannot be bound by two for-loops (VarsQ is a set); the
  // parser gives shadowing bindings fresh ids, so craft the AST directly.
  Query query;
  query.var_names = {"$root", "$x"};
  Step step;
  step.test = NodeTest::Tag("a");
  RelativePath path;
  path.steps.push_back(step);
  auto inner = MakeFor(1, kRootVar, path, MakeVarRef(1));
  auto outer = MakeFor(1, kRootVar, path, std::move(inner));
  query.body = MakeElement("r", std::move(outer));
  RoleCatalog roles;
  EXPECT_FALSE(VariableTree::Build(query, &roles).ok());
}

TEST(Analyzer, ExplainContainsAllSections) {
  auto parsed = ParseQuery(kIntroQuery);
  ASSERT_TRUE(parsed.ok());
  Query query = std::move(parsed).value();
  ASSERT_TRUE(Normalize(&query).ok());
  auto analyzed = Analyze(std::move(query));
  ASSERT_TRUE(analyzed.ok());
  std::string explain = analyzed->Explain();
  for (const char* section : {"variable tree", "roles", "projection tree",
                              "rewritten query", "signOff"}) {
    EXPECT_NE(explain.find(section), std::string::npos) << section;
  }
}

}  // namespace
}  // namespace gcx
