#include "buffer/buffer_tree.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gcx {

namespace {
uint64_t NodeBytes(const BufferNode& node) {
  return sizeof(BufferNode) + node.text.size() +
         node.roles.capacity() * sizeof(RoleInstance);
}
}  // namespace

uint32_t BufferNode::RoleCount(RoleId r) const {
  if (r == kPinRole) return pins;
  for (const RoleInstance& inst : roles) {
    if (inst.role == r) return inst.count;
  }
  return 0;
}

bool BufferNode::HasAggregateRole() const {
  for (const RoleInstance& inst : roles) {
    if (inst.aggregate && inst.count > 0) return true;
  }
  return false;
}

BufferTree::BufferTree() {
  root_ = pool_.Allocate();
  stats_.nodes_created = 1;
  root_->serial = 1;
  stats_.nodes_current = 1;
  stats_.nodes_peak = 1;
  stats_.bytes_current = NodeBytes(*root_);
  stats_.bytes_peak = stats_.bytes_current;
}

BufferTree::~BufferTree() {
  // Teardown frees everything unconditionally: roles or pins may remain
  // when GC is disabled (ablations) or evaluation stopped early.
  std::vector<BufferNode*> all;
  std::vector<BufferNode*> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    BufferNode* n = stack.back();
    stack.pop_back();
    all.push_back(n);
    for (BufferNode* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  for (BufferNode* n : all) pool_.Free(n);
}

BufferNode* BufferTree::AppendElement(BufferNode* parent, TagId tag) {
  BufferNode* node = pool_.Allocate();
  node->tag = tag;
  node->parent = parent;
  node->prev_sibling = parent->last_child;
  if (parent->last_child != nullptr) {
    parent->last_child->next_sibling = node;
  } else {
    parent->first_child = node;
  }
  parent->last_child = node;
  ++stats_.nodes_created;
  node->serial = static_cast<uint32_t>(stats_.nodes_created);
  ++stats_.nodes_current;
  if (stats_.nodes_current > stats_.nodes_peak) {
    stats_.nodes_peak = stats_.nodes_current;
  }
  stats_.bytes_current += NodeBytes(*node);
  UpdateBytesPeak();
  return node;
}

BufferNode* BufferTree::AppendText(BufferNode* parent, std::string_view text) {
  BufferNode* node = AppendElement(parent, kInvalidTag);
  node->is_text = true;
  node->finished = true;
  node->text = text_arena_.Append(text, &node->text_chunk);
  stats_.bytes_current += text.size();
  stats_.text_arena_peak_bytes = text_arena_.stats().bytes_peak;
  stats_.text_arena_reserved_bytes = text_arena_.stats().bytes_reserved;
  UpdateBytesPeak();
  return node;
}

void BufferTree::Finish(BufferNode* node) {
  GCX_CHECK(!node->finished);
  node->finished = true;
  if (node->marked_deleted) {
    node->marked_deleted = false;
    LocalGc(node);
  } else if (node->self_weight == 0 && node->subtree_weight == 0) {
    // Opportunistic purge of purely structural keeps (role-less chain
    // intermediates and anti-promotion nodes): once closed with no roles or
    // pins anywhere below, the subtree is sterile — nothing in it can be
    // required by the remaining evaluation.
    LocalGc(node);
  }
}

void BufferTree::AddWeight(BufferNode* node, int64_t delta) {
  for (BufferNode* n = node; n != nullptr; n = n->parent) {
    n->subtree_weight = static_cast<uint64_t>(
        static_cast<int64_t>(n->subtree_weight) + delta);
  }
}

void BufferTree::AddRole(BufferNode* node, RoleId role, uint32_t count,
                         bool aggregate) {
  GCX_CHECK(count > 0 && role != kPinRole);
  uint64_t before = NodeBytes(*node);
  bool found = false;
  for (RoleInstance& inst : node->roles) {
    if (inst.role == role && inst.aggregate == aggregate) {
      inst.count += count;
      found = true;
      break;
    }
  }
  if (!found) {
    node->roles.push_back(RoleInstance{role, count, aggregate});
  }
  node->self_weight += count;
  AddWeight(node, count);
  stats_.roles_assigned += count;
  stats_.bytes_current += NodeBytes(*node) - before;
  UpdateBytesPeak();
  // A node that gains relevance is no longer deletable.
  node->marked_deleted = false;
}

void BufferTree::RemoveRole(BufferNode* node, RoleId role, uint32_t count) {
  GCX_CHECK(count > 0 && role != kPinRole);
  uint64_t before = NodeBytes(*node);
  bool found = false;
  for (size_t i = 0; i < node->roles.size(); ++i) {
    RoleInstance& inst = node->roles[i];
    if (inst.role == role && inst.count >= count) {
      inst.count -= count;
      if (inst.count == 0) {
        node->roles[i] = node->roles.back();
        node->roles.pop_back();
      }
      found = true;
      break;
    }
  }
  // Paper requirement (1): "all node removals at runtime are defined". A
  // violation indicates a bug in the static analysis.
  GCX_CHECK(found);
  GCX_CHECK(node->self_weight >= count);
  node->self_weight -= count;
  AddWeight(node, -static_cast<int64_t>(count));
  stats_.roles_removed += count;
  stats_.bytes_current += NodeBytes(*node) - before;
  LocalGc(node);
}

void BufferTree::Pin(BufferNode* node) {
  ++node->pins;
  ++node->self_weight;
  AddWeight(node, 1);
  node->marked_deleted = false;
}

void BufferTree::Unpin(BufferNode* node) {
  GCX_CHECK(node->pins > 0);
  --node->pins;
  --node->self_weight;
  AddWeight(node, -1);
  LocalGc(node);
}

bool BufferTree::Irrelevant(const BufferNode* node) const {
  if (node->self_weight != 0 || node->subtree_weight != 0) return false;
  // Aggregate cover: some ancestor's aggregate role keeps this subtree
  // alive for a future whole-subtree output.
  for (const BufferNode* a = node->parent; a != nullptr; a = a->parent) {
    if (a->HasAggregateRole()) return false;
  }
  return true;
}

void BufferTree::LocalGc(BufferNode* node) {
  if (!gc_enabled_) return;
  ++stats_.gc_runs;
  BufferNode* n = node;
  while (n != root_ && n != nullptr) {
    ++stats_.gc_nodes_visited;
    if (!Irrelevant(n)) return;  // stop at the first relevant node (Sec. 5)
    BufferNode* parent = n->parent;
    if (n->finished) {
      Detach(n);
      FreeSubtree(n);
    } else {
      // Unfinished: mark and purge when the closing tag arrives.
      n->marked_deleted = true;
    }
    n = parent;
  }
}

void BufferTree::Detach(BufferNode* node) {
  BufferNode* parent = node->parent;
  GCX_CHECK(parent != nullptr);
  if (node->prev_sibling != nullptr) {
    node->prev_sibling->next_sibling = node->next_sibling;
  } else {
    parent->first_child = node->next_sibling;
  }
  if (node->next_sibling != nullptr) {
    node->next_sibling->prev_sibling = node->prev_sibling;
  } else {
    parent->last_child = node->prev_sibling;
  }
  node->parent = nullptr;
  node->prev_sibling = nullptr;
  node->next_sibling = nullptr;
}

void BufferTree::FreeSubtree(BufferNode* node) {
  // A freed subtree must be fully finished and weightless.
  GCX_CHECK(node->finished && node->subtree_weight == 0 &&
            node->self_weight == 0);
  BufferNode* child = node->first_child;
  while (child != nullptr) {
    BufferNode* next = child->next_sibling;
    FreeSubtree(child);
    child = next;
  }
  stats_.bytes_current -= NodeBytes(*node);
  text_arena_.Release(node->text_chunk, node->text.size());
  --stats_.nodes_current;
  ++stats_.nodes_purged;
  pool_.Free(node);
}

void BufferTree::UpdateBytesPeak() {
  if (stats_.bytes_current > stats_.bytes_peak) {
    stats_.bytes_peak = stats_.bytes_current;
  }
}

namespace {
void DumpNode(const BufferNode* node, const SymbolTable& tags, int depth,
              std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (node->is_text) {
    *out += '"';
    out->append(node->text);
    *out += '"';
  } else if (node->parent == nullptr) {
    *out += "/";
  } else {
    *out += tags.Name(node->tag);
  }
  if (!node->roles.empty() || node->pins > 0) {
    std::string roles;
    for (const RoleInstance& inst : node->roles) {
      for (uint32_t i = 0; i < inst.count; ++i) {
        if (!roles.empty()) roles += ",";
        roles += "r" + std::to_string(inst.role);
        if (inst.aggregate) roles += "*";
      }
    }
    for (uint32_t i = 0; i < node->pins; ++i) {
      if (!roles.empty()) roles += ",";
      roles += "pin";
    }
    *out += "{" + roles + "}";
  }
  if (!node->finished) *out += " (open)";
  if (node->marked_deleted) *out += " (deleted)";
  *out += "\n";
  for (const BufferNode* child = node->first_child; child != nullptr;
       child = child->next_sibling) {
    DumpNode(child, tags, depth + 1, out);
  }
}
}  // namespace

std::string BufferTree::Dump(const SymbolTable& tags) const {
  std::string out;
  DumpNode(root_, tags, 0, &out);
  return out;
}

}  // namespace gcx
