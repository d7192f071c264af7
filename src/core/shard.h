// Sharded document execution: split one stored document at subtree
// boundaries and scan the shards on parallel workers.
//
// The streaming engines are scan-bound on selective queries — the scanner
// plus the merged-DFA prefilter touch every byte while the per-query
// pipelines see only the projected remainder. For a STORED document (bytes
// fully available, as in the admission controller's registered-content
// path) that scan is parallelizable: a cheap structural pre-pass
// (PlanShards) finds element-start boundaries that split the document into
// contiguous byte slices, and each slice is scanned by its own worker with
// a private scanner + merged DFA over one shared SymbolTable.
//
// Correctness model. Only the scan/prefilter/projection phase is
// parallelized; events are merged back in document order and the per-query
// evaluators run serially over the merged stream, so outputs are
// byte-identical to the unsharded scan (evaluation order, buffer GC and
// output formatting are untouched). A worker reconstructs the stream
// context at its boundary by scanning synthetic wrappers: the slice is
// framed as
//
//     <a><b>  ...slice bytes...  </c></a>
//
// where <a><b> re-opens the element path entering the slice and </c></a>
// closes the path open at its end (the document is well-formed, so the
// framed slice is too). The wrapper events re-build both the scanner's
// balance stack and the prefilter's DFA frame stack — transitions are
// deterministic, so every skip decision matches what the unsharded scan
// decides at the same position — and are dropped again at merge time,
// which replays only the log range the slice's own events occupy.
// Boundaries sit only at element starts, so no text run, tag or entity is
// ever split.
//
// Failure model. PlanShards is purely lexical and never fails: a document
// it cannot shard safely (too small, structurally dubious, no usable
// boundaries) yields `sharded == false` and the caller falls back to the
// ordinary single scan — which also surfaces the exact scanner error for
// malformed input. A scan error inside a shard is reported from the
// earliest shard in document order, with document-accurate line numbers
// (ScannerOptions::start_line).

#ifndef GCX_CORE_SHARD_H_
#define GCX_CORE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "core/replay_log.h"
#include "projection/merged_dfa.h"
#include "xml/scanner.h"
#include "xpath/path.h"

namespace gcx {

/// Knobs for sharded execution.
struct ShardOptions {
  /// Requested number of shards; <= 1 disables sharding.
  size_t shards = 1;
  /// Documents smaller than shards * min_shard_bytes are not split (the
  /// planner pass and thread fan-out would cost more than they save).
  size_t min_shard_bytes = 64 * 1024;
  /// Boundaries are only placed at element starts at most this deep (the
  /// synthetic wrapper replays one start event per ancestor).
  size_t max_boundary_depth = 8;
  /// Worker threads; 0 = one per shard, capped at hardware concurrency.
  size_t threads = 0;
  /// Evaluate provably subtree-independent queries inside the shard
  /// workers (merging per-query results) instead of replaying a merged
  /// event log. Queries the classifier cannot prove independent keep the
  /// merge-and-replay path either way; false forces merge-and-replay for
  /// everything (test/bench seam).
  bool local_eval = true;
  /// Planner avoid-hints: candidate boundaries whose open-element stack
  /// could complete one of these paths at a prefix (see
  /// analysis/shard_classifier.h) are skipped, so shard-local queries stay
  /// eligible. Best-effort — an unplannable hint set falls back to
  /// unhinted planning.
  std::vector<RelativePath> boundary_avoid_paths;
  /// Test seam: wraps the exact byte sequence a shard scans (synthetic
  /// prefix + slice + synthetic suffix) in a custom ByteSource — e.g. a
  /// would-block stall injector. Unset: an internal zero-copy source.
  std::function<std::unique_ptr<ByteSource>(std::string)> wrap_source;
};

/// One planned shard: the half-open byte range [begin, end) of the
/// document plus the element paths open at its edges (outermost first).
/// entry_path is empty only for the first shard (it starts at the document
/// head, prolog included); exit_path is empty only for the last.
struct ShardSlice {
  size_t begin = 0;
  size_t end = 0;
  int start_line = 1;  ///< 1-based document line of `begin`
  std::vector<std::string> entry_path;
  std::vector<std::string> exit_path;
};

struct ShardPlan {
  bool sharded = false;  ///< false: run the ordinary single scan instead
  std::vector<ShardSlice> slices;
};

/// Structural pre-pass splitting `doc` into up to `options.shards` slices
/// of roughly even size at element-start boundaries. Mirrors the scanner's
/// lexical rules (comments, CDATA, PIs, DOCTYPE, quoted attribute values)
/// and validates tag nesting along the way; any irregularity disables
/// sharding rather than failing.
ShardPlan PlanShards(std::string_view doc, const ShardOptions& options);

/// Shared fail-fast flag for one sharded run. A failing shard records its
/// index (CAS-min, so the EARLIEST failing shard in document order wins
/// among those that fail); shards strictly AFTER a recorded failure abort
/// their scan promptly. Shards before it always run to completion, so the
/// in-order status sweep reports exactly the error the single scan would.
struct ShardAbort {
  std::atomic<size_t> first_failed{std::numeric_limits<size_t>::max()};

  void Fail(size_t shard_index) {
    size_t seen = first_failed.load(std::memory_order_relaxed);
    while (shard_index < seen &&
           !first_failed.compare_exchange_weak(seen, shard_index,
                                               std::memory_order_relaxed)) {
    }
  }
  bool ShouldAbort(size_t shard_index) const {
    return first_failed.load(std::memory_order_relaxed) < shard_index;
  }
};

/// What one worker hands back: the projected event log of its framed
/// slice and scan counters. Filter-surviving synthetic wrapper events are
/// logged like any other — the log is then a balanced, correctly nested
/// stream by itself (the filter only drops whole subtrees, so a skipped
/// wrapper element vanishes together with its real close tag), ready for
/// worker-side evaluation. Wrapper events are the first entry_path.size()
/// and the last exit_path.size() + 1 scanner events (exit ends plus
/// end-of-document), so the survivors form a prefix and a suffix of the
/// log: the slice's own events are exactly the log range
/// [body_begin, body_end), which the merge path replays.
struct ShardScanResult {
  Status status = Status::Ok();
  ReplayLog log;
  uint64_t body_begin = 0;      ///< log position of the slice's first event
  uint64_t body_end = 0;        ///< one past the slice's last event
  uint64_t scanner_events = 0;  ///< all events the shard's scanner produced
  uint64_t events_skipped = 0;
  uint64_t subtrees_skipped = 0;
  uint64_t bytes_scanned = 0;
  uint64_t dfa_states = 0;
};

/// Scans one slice: synthetic wrappers + slice bytes through a private
/// scanner and merged-DFA prefilter (one MergedDfa per call — Transition
/// memoizes in place and is not thread-safe), appending surviving events
/// to `result`. Safe to run concurrently for distinct results over one
/// shared thread-safe SymbolTable. Waits across would-block stalls with a
/// bounded poll/yield so a shared abort (a failure in an earlier shard,
/// signalled via `abort`) is noticed promptly; an aborted scan returns
/// with an error status the in-order sweep never reports (the earlier
/// shard's own error surfaces first). `governor`, when non-null, turns
/// every event into a cooperative checkpoint (deadline, cross-worker
/// cancellation) and charges this shard's log/arena against the shared
/// replay/arena ledgers — a trip cancels every sibling worker promptly.
void ScanShard(std::string_view doc, const ShardSlice& slice,
               const ScannerOptions& scanner_options,
               const std::vector<MergedDfaInput>& dfa_inputs,
               SymbolTable* tags, const ShardOptions& options,
               ShardScanResult* result, size_t shard_index = 0,
               ShardAbort* abort = nullptr, RunGovernor* governor = nullptr);

}  // namespace gcx

#endif  // GCX_CORE_SHARD_H_
