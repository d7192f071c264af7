// Unit tests for the buffer manager (src/buffer): role multisets, subtree
// weights, localized GC (Fig. 10), unfinished-node handling (Sec. 5),
// aggregate roles and pins (Sec. 6), statistics.

#include <gtest/gtest.h>

#include "buffer/buffer_tree.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gcx {
namespace {

class BufferTest : public ::testing::Test {
 protected:
  SymbolTable tags_;
  BufferTree buffer_;

  BufferNode* Element(BufferNode* parent, const char* tag) {
    return buffer_.AppendElement(parent, tags_.Intern(tag));
  }
};

TEST_F(BufferTest, AppendBuildsSiblingChain) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(buffer_.root(), "b");
  BufferNode* c = Element(buffer_.root(), "c");
  EXPECT_EQ(buffer_.root()->first_child, a);
  EXPECT_EQ(buffer_.root()->last_child, c);
  EXPECT_EQ(a->next_sibling, b);
  EXPECT_EQ(b->prev_sibling, a);
  EXPECT_EQ(b->next_sibling, c);
  EXPECT_EQ(c->parent, buffer_.root());
}

TEST_F(BufferTest, TextNodesAreFinishedOnCreation) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* t = buffer_.AppendText(a, "hello");
  EXPECT_TRUE(t->is_text);
  EXPECT_TRUE(t->finished);
  EXPECT_EQ(t->text, "hello");
  EXPECT_FALSE(a->finished);
}

TEST_F(BufferTest, RoleMultisetCounts) {
  BufferNode* a = Element(buffer_.root(), "a");
  buffer_.AddRole(a, 1, 2, false);
  buffer_.AddRole(a, 1, 1, false);
  buffer_.AddRole(a, 2, 1, false);
  EXPECT_EQ(a->RoleCount(1), 3u);
  EXPECT_EQ(a->RoleCount(2), 1u);
  EXPECT_EQ(a->RoleCount(9), 0u);
  EXPECT_EQ(a->self_weight, 4u);
}

TEST_F(BufferTest, SubtreeWeightPropagatesToAncestors) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  BufferNode* c = Element(b, "c");
  buffer_.AddRole(c, 1, 2, false);
  EXPECT_EQ(c->subtree_weight, 2u);
  EXPECT_EQ(b->subtree_weight, 2u);
  EXPECT_EQ(a->subtree_weight, 2u);
  EXPECT_EQ(buffer_.root()->subtree_weight, 2u);
  buffer_.AddRole(b, 2, 1, false);
  EXPECT_EQ(a->subtree_weight, 3u);
  buffer_.RemoveRole(c, 1, 2);
  EXPECT_EQ(a->subtree_weight, 1u);
}

TEST_F(BufferTest, RemoveLastRolePurgesFinishedNode) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 1, false);
  buffer_.Finish(b);
  buffer_.Finish(a);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);  // root, a, b
  buffer_.RemoveRole(b, 1, 1);
  // b irrelevant → purged; cascade: a irrelevant → purged (Fig. 10).
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
  EXPECT_EQ(buffer_.stats().nodes_purged, 2u);
  EXPECT_EQ(buffer_.root()->first_child, nullptr);
}

TEST_F(BufferTest, GcStopsAtFirstRelevantAncestor) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  BufferNode* c = Element(b, "c");
  buffer_.AddRole(a, 1, 1, false);  // keeps a alive
  buffer_.AddRole(c, 2, 1, false);
  buffer_.Finish(c);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.RemoveRole(c, 2, 1);
  // c and b purge; a survives (it has a role).
  EXPECT_EQ(buffer_.stats().nodes_current, 2u);
  EXPECT_EQ(a->first_child, nullptr);
}

TEST_F(BufferTest, SiblingWithRolesBlocksParentPurge) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b1 = Element(a, "b");
  BufferNode* b2 = Element(a, "b");
  buffer_.AddRole(b1, 1, 1, false);
  buffer_.AddRole(b2, 2, 1, false);
  buffer_.Finish(b1);
  buffer_.Finish(b2);
  buffer_.Finish(a);
  buffer_.RemoveRole(b1, 1, 1);
  // b1 purged; a kept because b2 still carries a role.
  EXPECT_EQ(a->first_child, b2);
  EXPECT_EQ(b2->prev_sibling, nullptr);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);
}

TEST_F(BufferTest, UnfinishedNodesAreMarkedNotFreed) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");  // both still open
  buffer_.AddRole(b, 1, 1, false);
  buffer_.RemoveRole(b, 1, 1);
  // Sec. 5: "an unfinished node is not deleted to avoid buffer corruption".
  EXPECT_TRUE(b->marked_deleted);
  EXPECT_TRUE(a->marked_deleted);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);
  // Closing b purges it; closing a purges a.
  buffer_.Finish(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 2u);
  buffer_.Finish(a);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, MarkIsClearedWhenRelevanceReturns) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 1, false);
  buffer_.RemoveRole(b, 1, 1);
  EXPECT_TRUE(b->marked_deleted);
  // A later match inside the still-open subtree re-establishes relevance.
  buffer_.AddRole(b, 2, 1, false);
  EXPECT_FALSE(b->marked_deleted);
  buffer_.Finish(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);  // b survived
  buffer_.RemoveRole(b, 2, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 2u);
}

TEST_F(BufferTest, OpportunisticPurgeOnFinishOfSterileSubtree) {
  // Structural (role-less) nodes are reclaimed when they close without any
  // roles in their subtree.
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.Finish(b);
  // b closed with no roles anywhere below: purged immediately.
  EXPECT_EQ(buffer_.stats().nodes_current, 2u);
  EXPECT_EQ(a->first_child, nullptr);
  buffer_.Finish(a);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, PinsProtectFromPurge) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 1, false);
  buffer_.Pin(b);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.RemoveRole(b, 1, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);  // pinned
  buffer_.Unpin(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);  // unpin triggers GC
}

TEST_F(BufferTest, PinOnDescendantProtectsAncestors) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.Pin(b);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.LocalGc(a);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);
  buffer_.Unpin(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, AggregateRoleCoversDescendants) {
  BufferNode* a = Element(buffer_.root(), "a");
  buffer_.AddRole(a, 1, 1, /*aggregate=*/true);
  BufferNode* b = Element(a, "b");
  BufferNode* t = buffer_.AppendText(b, "x");
  buffer_.Finish(b);
  buffer_.Finish(a);
  // b and t carry no roles but are covered by a's aggregate.
  EXPECT_FALSE(buffer_.Irrelevant(b));
  EXPECT_FALSE(buffer_.Irrelevant(t));
  buffer_.LocalGc(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 4u);
  // Removing the aggregate purges the whole subtree.
  buffer_.RemoveRole(a, 1, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, AggregateDoesNotCoverSiblings) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(buffer_.root(), "b");
  buffer_.AddRole(a, 1, 1, /*aggregate=*/true);
  buffer_.Finish(b);
  EXPECT_TRUE(buffer_.Irrelevant(b) || b->parent == nullptr);
}

TEST_F(BufferTest, RemoveRoleWithMultiplicity) {
  BufferNode* a = Element(buffer_.root(), "a");
  buffer_.AddRole(a, 1, 3, false);
  buffer_.Finish(a);
  buffer_.RemoveRole(a, 1, 2);
  EXPECT_EQ(a->RoleCount(1), 1u);
  EXPECT_EQ(buffer_.stats().nodes_current, 2u);
  buffer_.RemoveRole(a, 1, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, StatsTrackPeaksAndBalance) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 2, false);
  uint64_t peak_nodes = buffer_.stats().nodes_peak;
  uint64_t peak_bytes = buffer_.stats().bytes_peak;
  EXPECT_EQ(peak_nodes, 3u);
  EXPECT_GT(peak_bytes, 0u);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.RemoveRole(b, 1, 2);
  EXPECT_EQ(buffer_.stats().nodes_peak, peak_nodes);   // peaks don't shrink
  EXPECT_EQ(buffer_.stats().bytes_peak, peak_bytes);
  EXPECT_EQ(buffer_.live_role_instances(), 0u);
  EXPECT_EQ(buffer_.stats().roles_assigned, 2u);
  EXPECT_EQ(buffer_.stats().roles_removed, 2u);
  EXPECT_GT(buffer_.stats().gc_runs, 0u);
}

TEST_F(BufferTest, PinsDoNotCountAsRoleInstances) {
  BufferNode* a = Element(buffer_.root(), "a");
  buffer_.Pin(a);
  EXPECT_EQ(buffer_.stats().roles_assigned, 0u);
  buffer_.Unpin(a);
  EXPECT_EQ(buffer_.stats().roles_removed, 0u);
}

TEST_F(BufferTest, DisabledGcNeverPurges) {
  buffer_.set_gc_enabled(false);
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 1, false);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.RemoveRole(b, 1, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);
  EXPECT_EQ(buffer_.stats().nodes_purged, 0u);
}

TEST_F(BufferTest, DumpRendersRolesAndState) {
  BufferNode* a = Element(buffer_.root(), "a");
  buffer_.AddRole(a, 1, 2, false);
  buffer_.AddRole(a, 3, 1, true);
  buffer_.AppendText(a, "txt");
  std::string dump = buffer_.Dump(tags_);
  EXPECT_NE(dump.find("a{r1,r1,r3*}"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"txt\""), std::string::npos);
  EXPECT_NE(dump.find("(open)"), std::string::npos);
}

TEST_F(BufferTest, PinsAreCountersOutsideTheRoleMultiset) {
  BufferNode* a = Element(buffer_.root(), "a");
  BufferNode* b = Element(a, "b");
  buffer_.AddRole(b, 1, 1, false);
  buffer_.RemoveRole(b, 1, 1);
  ASSERT_TRUE(b->marked_deleted);  // unfinished and irrelevant
  uint64_t bytes = buffer_.stats().bytes_current;
  buffer_.Pin(b);
  buffer_.Pin(b);
  EXPECT_FALSE(b->marked_deleted);
  EXPECT_EQ(b->RoleCount(kPinRole), 2u);
  EXPECT_TRUE(b->roles.empty());
  EXPECT_EQ(a->subtree_weight, 2u);
  EXPECT_EQ(buffer_.stats().bytes_current, bytes);  // pins add no bytes
  EXPECT_EQ(buffer_.live_role_instances(), 0u);
  EXPECT_NE(buffer_.Dump(tags_).find("b{pin,pin}"), std::string::npos);
  buffer_.Finish(b);
  buffer_.Finish(a);
  buffer_.Unpin(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 3u);  // still pinned once
  buffer_.Unpin(b);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);  // last unpin runs the GC
}

TEST_F(BufferTest, DeepChainPurgeIsComplete) {
  // A 100-deep chain with one role at the leaf collapses entirely.
  BufferNode* node = buffer_.root();
  std::vector<BufferNode*> chain;
  for (int i = 0; i < 100; ++i) {
    node = Element(node, "n");
    chain.push_back(node);
  }
  buffer_.AddRole(node, 1, 1, false);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    buffer_.Finish(*it);
  }
  EXPECT_EQ(buffer_.stats().nodes_current, 101u);
  buffer_.RemoveRole(node, 1, 1);
  EXPECT_EQ(buffer_.stats().nodes_current, 1u);
}

TEST_F(BufferTest, RecycledAddressGetsAFreshSerial) {
  BufferNode* a = Element(buffer_.root(), "a");
  EXPECT_EQ(buffer_.root()->serial, 1u);
  EXPECT_EQ(a->serial, 2u);
  buffer_.Finish(a);  // sterile: purged, its slot back on the free list
  BufferNode* b = Element(buffer_.root(), "b");
  ASSERT_EQ(b, a);  // the pool hands the address out again...
  EXPECT_EQ(b->serial, 3u);  // ...under a new serial
  EXPECT_EQ(NodeBirth(b->serial, buffer_.stats().nodes_created), 3u);
}

TEST(SerialWindow, ReconstructsBirthWithinTheWindow) {
  constexpr uint64_t kWrap = uint64_t{1} << 32;
  EXPECT_EQ(NodeBirth(7, 7), 7u);
  EXPECT_EQ(NodeBirth(7, 1000), 7u);
  EXPECT_EQ(NodeBirth(7, kWrap + 6), 7u);
  // Counts past the wrap keep their high bits.
  EXPECT_EQ(NodeBirth(3, 5 * kWrap + 10), 5 * kWrap + 3);
  EXPECT_EQ(NodeBirth(static_cast<uint32_t>(kWrap - 2), 5 * kWrap + 10),
            5 * kWrap - 2);
  // A node older than the window reconstructs later than its true birth
  // (never earlier), on the same residue.
  EXPECT_EQ(NodeBirth(7, kWrap + 8), kWrap + 7);
}

TEST(SerialWindow, HoldsForFewerThanTwoToTheThirtyTwoCreations) {
  constexpr uint64_t kWrap = uint64_t{1} << 32;
  for (uint64_t birth : {uint64_t{1}, uint64_t{7}, 3 * kWrap - 5}) {
    EXPECT_TRUE(SerialWindowHolds(birth, birth));
    EXPECT_TRUE(SerialWindowHolds(birth, birth + kWrap - 1));
    // The first count at which a younger node can carry the same serial.
    EXPECT_FALSE(SerialWindowHolds(birth, birth + kWrap));
    EXPECT_EQ(static_cast<uint32_t>(birth + kWrap),
              static_cast<uint32_t>(birth));
    EXPECT_FALSE(SerialWindowHolds(birth, birth + 3 * kWrap));
  }
}

}  // namespace
}  // namespace gcx
