// Unit tests for evaluator primitives: general-comparison value semantics
// (CompareValues), number formatting, and streaming evaluation edge cases
// that the end-to-end matrix does not isolate.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buffer/buffer_tree.h"
#include "common/prng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"

namespace gcx {
namespace {

// --- CompareValues ---------------------------------------------------------------

struct CompareCase {
  const char* label;
  const char* lhs;
  RelOp op;
  const char* rhs;
  bool expected;
};

class CompareValuesTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(CompareValuesTest, Evaluates) {
  const CompareCase& c = GetParam();
  EXPECT_EQ(CompareValues(c.lhs, c.op, c.rhs), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompareValuesTest,
    ::testing::Values(
        CompareCase{"numeric_eq", "42", RelOp::kEq, "42.0", true},
        CompareCase{"numeric_lt", "9", RelOp::kLt, "11", true},
        CompareCase{"numeric_lt_false", "11", RelOp::kLt, "9", false},
        CompareCase{"numeric_whitespace", " 5 ", RelOp::kEq, "5", true},
        CompareCase{"string_eq", "abc", RelOp::kEq, "abc", true},
        CompareCase{"string_ne", "abc", RelOp::kNe, "abd", true},
        CompareCase{"string_lt_bytewise", "11", RelOp::kLt, "9x", true},
        CompareCase{"mixed_falls_back_to_string", "9", RelOp::kGt, "10x",
                    true},  // "9" > "10x" bytewise
        CompareCase{"numeric_le_eq", "3", RelOp::kLe, "3", true},
        CompareCase{"numeric_ge", "4", RelOp::kGe, "3.5", true},
        CompareCase{"negative_numbers", "-2", RelOp::kLt, "-1", true},
        CompareCase{"empty_vs_empty", "", RelOp::kEq, "", true},
        CompareCase{"empty_lt_any", "", RelOp::kLt, "a", true},
        CompareCase{"decimal_spellings", "10", RelOp::kEq, "10.0", true},
        CompareCase{"hex_is_a_string", "0x10", RelOp::kEq, "16", false},
        CompareCase{"hex_orders_bytewise", "0x10", RelOp::kLt, "1", true},
        CompareCase{"inf_is_a_string", "inf", RelOp::kGt, "5", true},
        CompareCase{"nan_is_a_string", "nan", RelOp::kEq, "nan", true}),
    [](const ::testing::TestParamInfo<CompareCase>& info) {
      return info.param.label;
    });

// --- FormatNumber -------------------------------------------------------------------

TEST(FormatNumber, IntegralValuesHaveNoPoint) {
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(0.0), "0");
  EXPECT_EQ(FormatNumber(-7.0), "-7");
}

TEST(FormatNumber, FractionsUseCompactForm) {
  EXPECT_EQ(FormatNumber(6.5), "6.5");
  EXPECT_EQ(FormatNumber(0.25), "0.25");
}

// --- streaming edge cases ---------------------------------------------------------------

std::string RunQ(std::string_view query, std::string_view doc,
                 ExecStats* stats = nullptr) {
  auto compiled = CompiledQuery::Compile(query);
  if (!compiled.ok()) {
    ADD_FAILURE() << compiled.status().ToString();
    return "";
  }
  Engine engine;
  std::ostringstream out;
  auto result = engine.Execute(*compiled, doc, &out);
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return "";
  }
  if (stats != nullptr) *stats = *result;
  return out.str();
}

TEST(EvaluatorEdge, EmptyDocumentElement) {
  EXPECT_EQ(RunQ("<r>{ for $x in /a/b return $x }</r>", "<a/>"), "<r></r>");
}

TEST(EvaluatorEdge, DeeplyNestedInput) {
  std::string doc;
  for (int i = 0; i < 300; ++i) doc += "<a>";
  doc += "<hit>x</hit>";
  for (int i = 0; i < 300; ++i) doc += "</a>";
  EXPECT_EQ(RunQ("<r>{ for $x in //hit return $x }</r>", doc),
            "<r><hit>x</hit></r>");
}

TEST(EvaluatorEdge, ManySiblingsStreamedInConstantMemory) {
  std::string doc = "<a>";
  for (int i = 0; i < 5000; ++i) doc += "<b><v>" + std::to_string(i) + "</v></b>";
  doc += "</a>";
  ExecStats stats;
  std::string out =
      RunQ("<r>{ for $x in /a/b return if ($x/v = 4999) then $x/v else () "
           "}</r>",
           doc, &stats);
  EXPECT_EQ(out, "<r><v>4999</v></r>");
  EXPECT_LT(stats.buffer.nodes_peak, 16u);
}

TEST(EvaluatorEdge, ConditionOnOuterVariableInsideInnerLoop) {
  // The inner loop's condition references the outer binding: its dep role
  // belongs to the outer variable and must survive until the outer scope's
  // signOffs.
  EXPECT_EQ(RunQ("<r>{ for $x in /s/a return for $y in $x/b return "
                 "if ($x/k = \"go\") then $y else () }</r>",
                 "<s><a><k>go</k><b>1</b><b>2</b></a>"
                 "<a><k>no</k><b>3</b></a></s>"),
            "<r><b>1</b><b>2</b></r>");
}

TEST(EvaluatorEdge, SameNodeOutputTwice) {
  EXPECT_EQ(RunQ("<r>{ (for $x in /a/b return $x, "
                 "for $y in /a/b return $y) }</r>",
                 "<a><b>x</b></a>"),
            "<r><b>x</b><b>x</b></r>");
}

TEST(EvaluatorEdge, ExistsOnEmptyAndWhitespaceContent) {
  EXPECT_EQ(RunQ("<r>{ for $x in /a/b return "
                 "if (exists($x/text())) then <t/> else <none/> }</r>",
                 "<a><b>x</b><b></b></a>"),
            "<r><t></t><none></none></r>");
}

TEST(EvaluatorEdge, ComparisonAgainstEmptyMatchSetIsFalse) {
  // General comparison over an empty sequence is false, and so is its
  // negation's inner.
  EXPECT_EQ(RunQ("<r>{ for $x in /a/b return "
                 "if ($x/ghost = \"1\") then <y/> else <n/> }</r>",
                 "<a><b/></a>"),
            "<r><n></n></r>");
}

TEST(EvaluatorEdge, StringValueConcatenatesNestedText) {
  EXPECT_EQ(RunQ("<r>{ for $x in /a/b return "
                 "if ($x = \"onetwo\") then <hit/> else () }</r>",
                 "<a><b>one<i>two</i></b></a>"),
            "<r><hit></hit></r>");
}

TEST(EvaluatorEdge, OutputPreservesMixedContentOrder) {
  EXPECT_EQ(RunQ("<r>{ for $x in /a/b return $x }</r>",
                 "<a><b>pre<i>mid</i>post</b></a>"),
            "<r><b>pre<i>mid</i>post</b></r>");
}

// --- operand value cache ---------------------------------------------------------

std::string RunDom(std::string_view query, std::string_view doc) {
  EngineOptions options;
  options.mode = EngineMode::kNaiveDom;
  auto compiled = CompiledQuery::Compile(query, options);
  if (!compiled.ok()) {
    ADD_FAILURE() << compiled.status().ToString();
    return "";
  }
  Engine engine;
  std::ostringstream out;
  auto result = engine.Execute(*compiled, doc, &out);
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return "";
  }
  return out.str();
}

/// Forwards to a StreamExecContext and records, in order, every node that
/// becomes the last child of the document element, with its serial.
class RecordingContext : public ExecContext {
 public:
  explicit RecordingContext(StreamExecContext* inner) : inner_(inner) {}

  BufferTree& buffer() override { return inner_->buffer(); }
  SymbolTable& tags() override { return inner_->tags(); }
  Result<bool> Pull() override {
    Result<bool> more = inner_->Pull();
    BufferNode* doc = buffer().root()->first_child;
    BufferNode* last = doc != nullptr ? doc->last_child : nullptr;
    if (last != nullptr &&
        (appended.empty() || appended.back().first != last)) {
      appended.push_back({last, last->serial});
    }
    return more;
  }

  std::vector<std::pair<const BufferNode*, uint32_t>> appended;

 private:
  StreamExecContext* inner_;
};

TEST(OperandMemo, RecycledBindingAddressSeesItsOwnValues) {
  // Each <a> is purged before the next-but-one arrives, so the node pool
  // hands later bindings the addresses of earlier ones. The inner
  // comparison runs only for t = x bindings: a memo keyed by the binding's
  // address alone would hand a recycled binding the values of the earlier
  // one.
  const char* query =
      "<o>{ for $a in /r/a return if ($a/t = \"x\") then "
      "(if ($a/k = \"1\") then <hit/> else <miss/>) else <skip/> }</o>";
  std::string doc = "<r>";
  std::string expected = "<o>";
  for (int i = 0; i < 12; ++i) {
    // The pool recycles with period 3 here (three live <a> at most: the
    // binding, its successor and one being purged).
    bool compared = i % 3 == 0;
    bool hit = i % 2 == 0;
    doc += std::string("<a><t>") + (compared ? "x" : "y") + "</t><k>" +
           (hit ? "1" : "2") + "</k></a>";
    expected += !compared ? "<skip></skip>"
                : hit     ? "<hit></hit>"
                          : "<miss></miss>";
  }
  doc += "</r>";
  expected += "</o>";

  auto compiled = CompiledQuery::Compile(query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const AnalyzedQuery& analyzed = compiled->analyzed();
  StreamExecContext stream(&analyzed.projection, &analyzed.roles,
                           std::make_unique<StringSource>(doc),
                           ScannerOptions{});
  RecordingContext ctx(&stream);
  std::ostringstream out;
  EvalStats stats;
  {
    XmlWriter writer(&out);
    Evaluator evaluator(&analyzed, &ctx, &writer);
    ASSERT_TRUE(evaluator.Run().ok());
    stats = evaluator.stats();
  }
  EXPECT_EQ(out.str(), expected);
  EXPECT_EQ(out.str(), RunDom(query, doc));
  EXPECT_LT(stream.buffer().stats().nodes_peak, 16u);
  // $a is straight, so it is its own fsa: the memos clear after every
  // binding and each comparison reads its operand afresh.
  EXPECT_EQ(stats.comparisons, 12u + 4u);
  EXPECT_EQ(stats.value_reads, 12u + 4u);

  // Bindings that reached the inner comparison shared an address across
  // iterations of the fsa loop, so the test exercises the recycling it is
  // about; the serial tells each reuse apart, so a memo that outlived the
  // iteration would still miss.
  ASSERT_EQ(ctx.appended.size(), 12u);
  int recycled = 0;
  for (size_t i = 3; i < 12; i += 3) {
    if (ctx.appended[i].first != ctx.appended[i - 3].first) continue;
    ++recycled;
    EXPECT_NE(ctx.appended[i].second, ctx.appended[i - 3].second);
  }
  EXPECT_GT(recycled, 0);
}

TEST(OperandMemo, SerialCheckRejectsARecycledAddress) {
  SymbolTable tags;
  BufferTree buffer;
  BufferNode* a = buffer.AppendElement(buffer.root(), tags.Intern("a"));
  buffer.AppendText(a, "v1");
  OperandMemo memo;
  size_t first = memo.list().values.size();
  memo.list().text = "v1";
  memo.list().values.push_back({0, 2, std::nullopt});
  memo.Insert(a, buffer.stats().nodes_created, first);
  ASSERT_NE(memo.Find(a, buffer.stats().nodes_created), nullptr);

  buffer.Finish(a);  // no roles below: purged, the address freed
  BufferNode* b = buffer.AppendElement(buffer.root(), tags.Intern("b"));
  ASSERT_EQ(b, a);
  EXPECT_EQ(memo.Find(b, buffer.stats().nodes_created), nullptr);
  memo.Insert(b, buffer.stats().nodes_created, memo.list().values.size());
  const OperandMemo::Entry* entry = memo.Find(b, buffer.stats().nodes_created);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 0u);
  memo.Clear();
  EXPECT_EQ(memo.Find(b, buffer.stats().nodes_created), nullptr);
}

TEST(OperandMemo, EntryExpiresWithTheSerialWindow) {
  constexpr uint64_t kWrap = uint64_t{1} << 32;
  BufferNode node;  // synthetic: only its address and serial matter
  node.serial = 7;
  OperandMemo memo;
  memo.Insert(&node, /*nodes_created=*/100, 0);
  EXPECT_NE(memo.Find(&node, 7 + kWrap - 1), nullptr);
  // From 2^32 creations after its birth on, (address, serial) may name a
  // younger node: the entry is dropped, not trusted.
  EXPECT_EQ(memo.Find(&node, 7 + kWrap), nullptr);
  EXPECT_EQ(memo.Find(&node, 100), nullptr);
  node.serial = 8;
  EXPECT_EQ(memo.Find(&node, 100), nullptr);
}

TEST(OperandMemo, NotStraightJoinReadsEachNodeOnce) {
  // $t is not straight (its loop sits inside $p's over an absolute path),
  // so its fsa is $root: each <t> is read once for the whole run, each
  // <p> once for its own iteration.
  const char* query =
      "<o>{ for $p in /s/p return <row>{ for $t in /s/t return "
      "if ($t/ref = $p/id) then $t/v else () }</row> }</o>";
  std::string doc = "<s>";
  for (int i = 0; i < 6; ++i) {
    doc += "<p><id>" + std::to_string(i) + "</id></p>";
  }
  for (int i = 0; i < 9; ++i) {
    doc += "<t><ref>" + std::to_string(i % 4) + "</ref><v>" +
           std::to_string(i) + "</v></t>";
  }
  doc += "</s>";
  auto compiled = CompiledQuery::Compile(query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(*compiled, doc, &out);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(out.str(), RunDom(query, doc));
  EXPECT_EQ(stats->eval.comparisons, 6u * 9u);
  EXPECT_EQ(stats->eval.value_reads, 6u + 9u);
  EXPECT_EQ(stats->live_roles_final, 0u);
  EXPECT_EQ(stats->buffer_nodes_final, 1u);
}

TEST(OperandMemo, InnerLoopInvariantOperandMatchesNaiveDom) {
  // $p/id is fixed for the whole inner loop: loaded once per $p, it must
  // still give the reference answer for every $t.
  const char* query =
      "<o>{ for $p in /s/p return <row>{ for $t in /s/t return "
      "if ($t/ref = $p/id) then $t/v else () }</row> }</o>";
  const char* doc =
      "<s><p><id>1</id></p><p><id>2</id></p><p><id>3</id></p>"
      "<t><ref>2</ref><v>a</v></t><t><ref>1</ref><v>b</v></t>"
      "<t><ref>2.0</ref><v>c</v></t><t><v>d</v></t></s>";
  std::string got = RunQ(query, doc);
  EXPECT_EQ(got, RunDom(query, doc));
  EXPECT_EQ(got,
            "<o><row><v>b</v></row><row><v>a</v><v>c</v></row><row></row></o>");
}

TEST(OperandMemo, MultiValuedOperandsAreExistential) {
  // Some pair must satisfy the relation; "10" and "10.0" compare as
  // numbers.
  const char* query =
      "<o>{ for $x in /s/x return for $y in /s/y return "
      "if ($x/k = $y/k) then <m>{ ($x/n, $y/n) }</m> else () }</o>";
  const char* doc =
      "<s><x><n>x1</n><k>3</k><k>10</k></x><x><n>x2</n><k>4</k><k>5</k></x>"
      "<y><n>y1</n><k>7</k><k>10.0</k></y><y><n>y2</n><k>5</k></y>"
      "<y><n>y3</n></y></s>";
  std::string got = RunQ(query, doc);
  EXPECT_EQ(got, RunDom(query, doc));
  EXPECT_EQ(got,
            "<o><m><n>x1</n><n>y1</n></m><m><n>x2</n><n>y2</n></m></o>");
}

// --- MatchCollector ------------------------------------------------------------------

using MatchList = std::vector<std::pair<BufferNode*, uint32_t>>;

/// Reference: every target is looked up in the list collected so far.
void ScanningCollect(const SymbolTable& tags, BufferNode* base,
                     const RelativePath& path, size_t step_index,
                     uint32_t mult, MatchList* out) {
  if (step_index == path.steps.size()) {
    for (auto& entry : *out) {
      if (entry.first == base) {
        entry.second += mult;
        return;
      }
    }
    out->push_back({base, mult});
    return;
  }
  const Step& step = path.steps[step_index];
  auto matches = [&](const BufferNode* n) {
    if (n->marked_deleted) return false;
    if (n->is_text) return step.test.MatchesText();
    if (n->parent == nullptr) return step.test.kind == NodeTestKind::kAnyNode;
    return step.test.MatchesElement(tags.Name(n->tag));
  };
  bool first_only = step.predicate == StepPredicate::kFirst;
  if (step.axis == Axis::kChild) {
    for (BufferNode* c = base->first_child; c != nullptr; c = c->next_sibling) {
      if (!matches(c)) continue;
      ScanningCollect(tags, c, path, step_index + 1, mult, out);
      if (first_only) return;
    }
    return;
  }
  // Descendant axes, recursively in document order.
  bool done = false;
  auto visit = [&](auto&& self, BufferNode* n) -> void {
    for (BufferNode* c = n->first_child; c != nullptr && !done;
         c = c->next_sibling) {
      if (c->marked_deleted) continue;
      if (matches(c)) {
        ScanningCollect(tags, c, path, step_index + 1, mult, out);
        if (first_only) {
          done = true;
          return;
        }
      }
      self(self, c);
    }
  };
  if (step.axis == Axis::kDescendantOrSelf && matches(base)) {
    ScanningCollect(tags, base, path, step_index + 1, mult, out);
    if (first_only) return;
  }
  visit(visit, base);
}

class CollectProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollectProperty, MatchesTheScanningReference) {
  Prng rng(GetParam() * 0x9e3779b9u + 7);
  SymbolTable tags;
  const char* names[] = {"a", "b", "c"};
  for (const char* name : names) tags.Intern(name);
  BufferTree tree;
  std::vector<BufferNode*> elements = {tree.root()};
  for (int i = 0; i < 60; ++i) {
    BufferNode* parent = elements[rng.Below(elements.size())];
    if (rng.Chance(200)) {
      tree.AppendText(parent, "t");
      continue;
    }
    BufferNode* node =
        tree.AppendElement(parent, tags.Intern(names[rng.Below(3)]));
    node->marked_deleted = rng.Chance(50);
    elements.push_back(node);
  }

  MatchCollector collector;
  for (int trial = 0; trial < 40; ++trial) {
    RelativePath path;
    int steps = static_cast<int>(rng.Between(1, 4));
    for (int i = 0; i < steps; ++i) {
      Step step;
      step.axis = static_cast<Axis>(rng.Below(3));
      switch (rng.Below(6)) {
        case 0:
          step.test = NodeTest::Star();
          break;
        case 1:
          step.test = NodeTest::Text();
          break;
        case 2:
          step.test = NodeTest::AnyNode();
          break;
        default:
          step.test = NodeTest::Tag(names[rng.Below(3)]);
      }
      if (rng.Chance(150)) step.predicate = StepPredicate::kFirst;
      path.steps.push_back(step);
    }
    BufferNode* base = elements[rng.Below(elements.size())];
    MatchList expected;
    ScanningCollect(tags, base, path, 0, 1, &expected);
    EXPECT_EQ(collector.Collect(tags, base, path), expected)
        << path.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectProperty,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace gcx
