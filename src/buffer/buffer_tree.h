// The GCX buffer: the projected document tree with role multisets and
// active garbage collection (Sec. 5, Sec. 6 "Buffer Representation").
//
// Design notes (mirroring the paper):
//  * Nodes form a tree with parent / first-child / sibling pointers; tag
//    names are interned integers.
//  * Every node carries a role *multiset* (a role can be assigned to the
//    same node several times, e.g. through descendant-axis multiplicity).
//  * Evaluator cursors hold *pins*: a plain per-node counter that weighs
//    like a role instance, so the same relevance machinery protects them
//    without touching the role multiset.
//  * Each node maintains `subtree_weight`, the number of role+pin instances
//    in its subtree (including itself); the Fig. 10 irrelevance test
//    ("neither the node itself nor any of its descendants carry a role")
//    is then O(1) per node plus an ancestor walk for aggregate covers.
//  * Aggregate roles (Sec. 6) sit on a subtree root and implicitly cover
//    all descendants; the cover test walks the ancestor chain.
//  * Unfinished nodes (open elements) are never freed: they are marked
//    deleted and purged when their closing tag arrives (Sec. 5).
//  * Nodes come from a free-list pool, so a purged node's address is soon
//    handed out again. `serial` (the node's creation count, low 32 bits)
//    tells the two apart: the evaluator's operand memo keys on
//    (address, serial) within the window SerialWindowHolds allows.

#ifndef GCX_BUFFER_BUFFER_TREE_H_
#define GCX_BUFFER_BUFFER_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/pool.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "xq/ast.h"

namespace gcx {

/// One (role, multiplicity) entry of a node's role multiset.
struct RoleInstance {
  RoleId role = kInvalidRole;
  uint32_t count = 0;
  bool aggregate = false;
};

/// A node of the buffered, projected document.
struct BufferNode {
  TagId tag = kInvalidTag;  ///< kInvalidTag for text nodes and the root
  bool is_text = false;
  bool finished = false;        ///< closing tag seen (text: always true)
  bool marked_deleted = false;  ///< Fig. 10: purge when finished
  /// Character data for text nodes: a view into the owning BufferTree's
  /// text arena (valid for the node's lifetime; released on purge).
  std::string_view text;
  uint32_t text_chunk = ByteArena::kNullChunk;  ///< arena handle for `text`
  /// Low 32 bits of BufferStats::nodes_created counting this node: with
  /// the address, the node's identity across pool address reuse (see
  /// NodeBirth / SerialWindowHolds).
  uint32_t serial = 0;

  BufferNode* parent = nullptr;
  BufferNode* first_child = nullptr;
  BufferNode* last_child = nullptr;
  BufferNode* prev_sibling = nullptr;
  BufferNode* next_sibling = nullptr;

  std::vector<RoleInstance> roles;
  uint32_t self_weight = 0;    ///< Σ counts in `roles`, plus `pins`
  uint32_t pins = 0;           ///< cursor pins held on this node
  uint64_t subtree_weight = 0; ///< Σ self_weight over the subtree

  /// Multiplicity of `role` on this node (`pins` for kPinRole).
  uint32_t RoleCount(RoleId role) const;
  /// True if the node holds at least one aggregate role instance.
  bool HasAggregateRole() const;
};

// `serial` sits in the padding after text_chunk and pins in the padding
// after self_weight: the node stays 112 bytes.
static_assert(sizeof(BufferNode) == 112, "BufferNode layout changed");

/// The node's creation count reconstructed from its `serial`: the largest
/// count not above `nodes_created` (now) whose low 32 bits equal `serial`.
/// It equals the true count when the node is younger than 2^32 creations;
/// it is never earlier than the true count.
inline uint64_t NodeBirth(uint32_t serial, uint64_t nodes_created) {
  return nodes_created -
         static_cast<uint32_t>(static_cast<uint32_t>(nodes_created) - serial);
}

/// Whether (address, serial) still names only the node whose birth was
/// reconstructed as `birth`: a node that later takes the same address is
/// created after `birth`, so an equal serial needs 2^32 more creations.
/// Fewer than that since `birth`, and the pair is unambiguous.
inline bool SerialWindowHolds(uint64_t birth, uint64_t nodes_created) {
  return nodes_created - birth < (uint64_t{1} << 32);
}

/// Buffer statistics. Byte figures count the live tree: node structs, text
/// payloads and role entries (the memory the paper's technique manages;
/// allocator overhead is excluded deliberately — see DESIGN.md). Pins are
/// not role entries: they live in the node struct and add no bytes.
struct BufferStats {
  uint64_t nodes_current = 0;
  uint64_t nodes_peak = 0;
  uint64_t bytes_current = 0;
  uint64_t bytes_peak = 0;
  uint64_t nodes_created = 0;
  uint64_t nodes_purged = 0;
  uint64_t roles_assigned = 0;   ///< role instances (excluding pins)
  uint64_t roles_removed = 0;
  uint64_t gc_runs = 0;          ///< LocalGc invocations
  uint64_t gc_nodes_visited = 0; ///< irrelevance checks performed
  /// Text arena high-water marks (the arena backs every text payload; GC
  /// releases recycle whole chunks, so peak live bytes is the figure the
  /// paper's Sec. 5/6 memory discussion cares about).
  uint64_t text_arena_peak_bytes = 0;
  uint64_t text_arena_reserved_bytes = 0;
};

/// The buffer tree. Single-threaded; owned by one execution.
class BufferTree {
 public:
  BufferTree();
  ~BufferTree();

  BufferTree(const BufferTree&) = delete;
  BufferTree& operator=(const BufferTree&) = delete;

  /// The virtual document root (always present, freed only on destruction).
  BufferNode* root() { return root_; }

  // --- structure (driven by the stream projector) ------------------------

  /// Appends a new unfinished element under `parent`.
  BufferNode* AppendElement(BufferNode* parent, TagId tag);
  /// Appends a (finished) text node under `parent`. The bytes are copied
  /// into the buffer's text arena (the caller's view may die right after).
  BufferNode* AppendText(BufferNode* parent, std::string_view text);
  /// Marks `node` finished; if it was marked deleted and is irrelevant, it
  /// is purged now and garbage collection cascades upward (Sec. 5).
  void Finish(BufferNode* node);

  // --- roles --------------------------------------------------------------

  /// Adds `count` instances of `role` to `node`. `role` is a query role,
  /// never kPinRole (pins go through Pin/Unpin).
  void AddRole(BufferNode* node, RoleId role, uint32_t count, bool aggregate);
  /// Removes `count` instances; it is a checked error (paper requirement 1)
  /// if fewer instances are present. Runs localized GC from `node`.
  void RemoveRole(BufferNode* node, RoleId role, uint32_t count);

  /// Cursor pins: counted in `pins` and weighed like a role instance, so a
  /// pinned node is never irrelevant. Unpin runs localized GC.
  void Pin(BufferNode* node);
  void Unpin(BufferNode* node);

  // --- garbage collection --------------------------------------------------

  /// Localized bottom-up purge starting at `node` (Fig. 10). No-op when
  /// garbage collection is disabled (ablation baselines).
  void LocalGc(BufferNode* node);

  /// Disables all purging (the "static analysis alone" baselines).
  void set_gc_enabled(bool enabled) { gc_enabled_ = enabled; }

  /// True if the node may be reclaimed: no roles or pins in its subtree and
  /// no covering ancestor aggregate role.
  bool Irrelevant(const BufferNode* node) const;

  // --- inspection -----------------------------------------------------------

  const BufferStats& stats() const { return stats_; }

  /// Node-pool accounting (tests assert the free-list never leaks or
  /// double-frees): live pooled nodes — includes the virtual root — and the
  /// lifetime allocate/free totals.
  size_t pool_live_nodes() const { return pool_.live(); }
  size_t pool_total_allocated() const { return pool_.total_allocated(); }
  size_t pool_total_freed() const { return pool_.total_freed(); }

  /// Total role instances currently assigned (excluding pins); zero after a
  /// complete evaluation (paper requirement 2).
  uint64_t live_role_instances() const {
    return stats_.roles_assigned - stats_.roles_removed;
  }

  /// Renders the buffer in the style of Fig. 2: one node per line,
  /// children indented, role multisets as {r2,r3,r3}; pins shown as "pin".
  std::string Dump(const SymbolTable& tags) const;

 private:
  void AddWeight(BufferNode* node, int64_t delta);
  void FreeSubtree(BufferNode* node);
  void Detach(BufferNode* node);
  void UpdateBytesPeak();

  Pool<BufferNode, 1024> pool_;
  ByteArena text_arena_;
  BufferNode* root_;
  BufferStats stats_;
  bool gc_enabled_ = true;
};

}  // namespace gcx

#endif  // GCX_BUFFER_BUFFER_TREE_H_
