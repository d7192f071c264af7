// Unit tests for the pulling step cursors (src/eval/cursor): incremental
// iteration over a buffer that grows on demand, pin discipline, interaction
// with purging.

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "eval/cursor.h"
#include "eval/exec_context.h"
#include "xq/normalize.h"
#include "xq/parser.h"

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace gcx {
namespace {

/// Harness: a context whose projection keeps the whole document (query
/// `{$root}` with aggregates off ⇒ every node carries a dos role), so
/// cursor behaviour can be tested on arbitrary documents.
class CursorHarness {
 public:
  explicit CursorHarness(std::string_view xml) {
    auto parsed = ParseQuery("<r>{ $root }</r>");
    GCX_CHECK(parsed.ok());
    Query query = std::move(parsed).value();
    NormalizeOptions norm;
    GCX_CHECK(Normalize(&query, norm).ok());
    AnalysisOptions options;
    options.aggregate_roles = false;  // per-node roles keep everything live
    auto analyzed = Analyze(std::move(query), options);
    GCX_CHECK(analyzed.ok());
    analyzed_ = std::make_unique<AnalyzedQuery>(std::move(analyzed).value());
    ctx_ = std::make_unique<StreamExecContext>(&analyzed_->projection,
                                         &analyzed_->roles,
                                         std::make_unique<StringSource>(xml),
                                         ScannerOptions{});
  }

  StreamExecContext& ctx() { return *ctx_; }

  /// A step owned by the harness, so it outlives the cursors built on it.
  const Step& MakeStep(Axis axis, const char* tag) {
    Step& step = steps_.emplace_back();
    step.axis = axis;
    step.test = tag == nullptr ? NodeTest::Star() : NodeTest::Tag(tag);
    return step;
  }

  std::string Drain(BufferNode* scope, const Step& step) {
    StepCursor cursor(&ctx(), scope, step);
    std::string out;
    while (true) {
      auto node = cursor.Next();
      GCX_CHECK(node.ok());
      if (*node == nullptr) break;
      out += ctx().tags().Name((*node)->tag);
      out += " ";
    }
    return out;
  }

 private:
  std::unique_ptr<AnalyzedQuery> analyzed_;
  std::unique_ptr<StreamExecContext> ctx_;
  std::deque<Step> steps_;
};

TEST(Cursor, ChildIterationPullsLazily) {
  CursorHarness h("<a><b/><c/><b/></a>");
  // Nothing has been read yet.
  EXPECT_EQ(h.ctx().buffer().root()->first_child, nullptr);
  BufferNode* root = h.ctx().buffer().root();
  {
    StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
    auto a = a_cursor.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_NE(*a, nullptr);
    // Reading <a> happened on demand; its children are not yet read.
    EXPECT_EQ((*a)->first_child, nullptr);
    EXPECT_EQ(h.Drain(*a, h.MakeStep(Axis::kChild, "b")), "b b ");
  }
}

TEST(Cursor, ChildIterationFiltersByTest) {
  CursorHarness h("<a><b/><c/><b/><d/></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  EXPECT_EQ(h.Drain(a, h.MakeStep(Axis::kChild, "c")), "c ");
  EXPECT_EQ(h.Drain(a, h.MakeStep(Axis::kChild, nullptr)), "b c b d ");
  EXPECT_EQ(h.Drain(a, h.MakeStep(Axis::kChild, "zzz")), "");
}

TEST(Cursor, DescendantIterationIsPreOrder) {
  CursorHarness h("<a><b><c/><b/></b><d><b/></d></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  EXPECT_EQ(h.Drain(a, h.MakeStep(Axis::kDescendant, "b")), "b b b ");
  EXPECT_EQ(h.Drain(a, h.MakeStep(Axis::kDescendant, nullptr)),
            "b c b d b ");
}

TEST(Cursor, FirstPredicateStopsAfterOneMatch) {
  CursorHarness h("<a><b/><b/><b/></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  Step step = h.MakeStep(Axis::kChild, "b");
  step.predicate = StepPredicate::kFirst;
  EXPECT_EQ(h.Drain(a, step), "b ");
}

TEST(Cursor, CurrentNodeIsPinned) {
  CursorHarness h("<a><b/><b/></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  StepCursor b_cursor(&h.ctx(), a, h.MakeStep(Axis::kChild, "b"));
  BufferNode* b = *b_cursor.Next();
  ASSERT_NE(b, nullptr);
  EXPECT_GT(b->RoleCount(kPinRole), 0u);
  // Moving on unpins the previous node.
  BufferNode* b2 = *b_cursor.Next();
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(b->RoleCount(kPinRole), 0u);
  EXPECT_GT(b2->RoleCount(kPinRole), 0u);
}

TEST(Cursor, DestructorReleasesPins) {
  CursorHarness h("<a><b/></a>");
  BufferNode* root = h.ctx().buffer().root();
  {
    StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
    BufferNode* a = *a_cursor.Next();
    ASSERT_NE(a, nullptr);
    EXPECT_GT(root->subtree_weight, 0u);
  }
  // All pins released; only the document roles remain.
  BufferNode* a = root->first_child;
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->RoleCount(kPinRole), 0u);
}

TEST(Cursor, EmptyScopeExhaustsAfterPullingToEnd) {
  CursorHarness h("<a></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  ASSERT_NE(a, nullptr);
  StepCursor b_cursor(&h.ctx(), a, h.MakeStep(Axis::kChild, "b"));
  auto none = b_cursor.Next();
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, nullptr);
  EXPECT_TRUE(a->finished);  // the cursor had to read to </a> to know
}

TEST(Cursor, NextAfterExhaustionStaysNull) {
  CursorHarness h("<a><b/></a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  EXPECT_NE(*cursor.Next(), nullptr);
  EXPECT_EQ(*cursor.Next(), nullptr);
  EXPECT_EQ(*cursor.Next(), nullptr);
}

TEST(Cursor, TextNodesMatchTextTest) {
  CursorHarness h("<a>one<b/>two</a>");
  BufferNode* root = h.ctx().buffer().root();
  StepCursor a_cursor(&h.ctx(), root, h.MakeStep(Axis::kChild, "a"));
  BufferNode* a = *a_cursor.Next();
  Step text_step;
  text_step.axis = Axis::kChild;
  text_step.test = NodeTest::Text();
  StepCursor t_cursor(&h.ctx(), a, text_step);
  BufferNode* t1 = *t_cursor.Next();
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->text, "one");
  BufferNode* t2 = *t_cursor.Next();
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->text, "two");
  EXPECT_EQ(*t_cursor.Next(), nullptr);
}

TEST(Cursor, DeepDocumentDescendantWalk) {
  // 50-deep nesting with b's at every level.
  std::string xml;
  for (int i = 0; i < 50; ++i) xml += "<a><b></b>";
  for (int i = 0; i < 50; ++i) xml += "</a>";
  CursorHarness h(xml);
  BufferNode* root = h.ctx().buffer().root();
  StepCursor cursor(&h.ctx(), root, h.MakeStep(Axis::kDescendant, "b"));
  int count = 0;
  while (*cursor.Next() != nullptr) ++count;
  EXPECT_EQ(count, 50);
}

}  // namespace
}  // namespace gcx
