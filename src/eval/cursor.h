// Pulling step cursors.
//
// A StepCursor iterates, in document order, over the buffered nodes matched
// by one location step from a scope node, pulling further input whenever
// the next candidate may not have arrived yet. The cursor keeps its current
// position *pinned* (BufferTree::Pin) so that active garbage collection
// never frees a node the evaluator still points at; moving the cursor
// unpins the old position, which is exactly the moment a fully signed-off
// binding gets purged (the "localized" GC trigger of Sec. 5).

#ifndef GCX_EVAL_CURSOR_H_
#define GCX_EVAL_CURSOR_H_

#include "common/status.h"
#include "eval/exec_context.h"
#include "xpath/path.h"

#include <cstdint>

namespace gcx {

/// Iterates matches of `step` from `scope`; `step` must outlive the cursor.
/// Usage:
///   StepCursor cursor(ctx, scope, step);
///   while (true) {
///     GCX_ASSIGN_OR_RETURN(BufferNode* n, cursor.Next());
///     if (n == nullptr) break;
///     …  // n is pinned until the next Next()/destructor
///   }
class StepCursor {
 public:
  StepCursor(ExecContext* ctx, BufferNode* scope, const Step& step);
  StepCursor(ExecContext* ctx, BufferNode* scope, Step&& step) = delete;
  ~StepCursor();

  StepCursor(const StepCursor&) = delete;
  StepCursor& operator=(const StepCursor&) = delete;

  /// Returns the next match (pinned), or nullptr when exhausted.
  Result<BufferNode*> Next();

 private:
  bool Matches(const BufferNode* node) const;
  /// Moves the pinned anchor to `node` (pin new, unpin old → local GC).
  void MoveAnchor(BufferNode* node);
  void ClearAnchor();

  Result<BufferNode*> NextChild();
  Result<BufferNode*> NextDescendant();

  ExecContext* ctx_;
  BufferNode* scope_;
  /// A step of the analyzed query, which outlives every cursor.
  const Step& step_;
  /// Last examined node (pinned), or nullptr before the first candidate.
  BufferNode* anchor_ = nullptr;
  bool exhausted_ = false;
  uint64_t returned_ = 0;
};

}  // namespace gcx

#endif  // GCX_EVAL_CURSOR_H_
