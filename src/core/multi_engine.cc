#include "core/multi_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/shard_classifier.h"
#include "common/budget.h"
#include "common/symbol_table.h"
#include "common/thread_pool.h"
#include "core/dom_engine.h"
#include "core/event_filter.h"
#include "core/replay_log.h"
#include "core/shard.h"
#include "core/stats_publish.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "projection/merged_dfa.h"
#include "xml/fd_source.h"
#include "xml/writer.h"

namespace gcx {

namespace {

class SharedScanDemux;

/// One query's pipeline in a batched or sharded run: its own buffer and
/// projector (identical to a solo StreamExecContext), fed from a replay log
/// instead of a private scanner. The source is either
///   * the shared scan of a batch (SharedScanDemux), which advances the one
///     scanner whenever this query reaches the head of its log; or
///   * spans of finished shard logs, followed by end-of-document — by then
///     every shard has been scanned, so a pull can never stall.
/// The tag table is the batch's shared one: the scanner interns each tag
/// exactly once and every per-query DFA and buffer consumes the shared
/// TagIds.
class ReplayContext final : public ExecContext {
 public:
  /// The log positions [begin, end) of one finished log.
  struct Span {
    const ReplayLog* log = nullptr;
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  ReplayContext(const AnalyzedQuery* query, const EngineOptions& options,
                SymbolTable* tags, RunGovernor* governor,
                SharedScanDemux* demux, std::vector<Span> spans = {})
      : query_(query),
        options_(options),
        tags_(tags),
        projector_(&query->projection, &query->roles, tags,
                   /*scanner=*/nullptr, &buffer_),
        governor_(governor),
        demux_(demux),
        spans_(std::move(spans)) {
    if (!options.enable_gc ||
        options.mode == EngineMode::kMaterializedProjection) {
      buffer_.set_gc_enabled(false);
    }
    if (!spans_.empty()) position = spans_.front().begin;
  }

  ~ReplayContext() override {
    if (governor_ != nullptr) governor_->ReleaseArenaBytes(&arena_lease_);
  }

  ReplayContext(const ReplayContext&) = delete;
  ReplayContext& operator=(const ReplayContext&) = delete;

  BufferTree& buffer() override { return buffer_; }
  SymbolTable& tags() override { return *tags_; }
  Result<bool> Pull() override;

  const AnalyzedQuery& query() const { return *query_; }
  const EngineOptions& options() const { return options_; }
  StreamProjector& projector() { return projector_; }
  RunGovernor* governor() const { return governor_; }

  /// Marks this query finished: a demux stops retaining its log tail.
  void Detach();

  /// Next log position to deliver (in the demux log, or in the current
  /// span's log).
  uint64_t position = 0;
  /// Set once this query's evaluation completed: its buffer is frozen and
  /// its position no longer retains the demux log tail.
  bool detached = false;

 private:
  Result<bool> PullFromSpans();

  const AnalyzedQuery* query_;
  const EngineOptions& options_;
  SymbolTable* tags_;
  BufferTree buffer_;
  StreamProjector projector_;
  RunGovernor* governor_;
  SharedScanDemux* demux_;
  std::vector<Span> spans_;
  size_t span_ = 0;  ///< index of the span `position` is in
  /// This context's contribution to the governor's arena ledger (the
  /// query's buffered tree bytes). Released on destruction.
  uint64_t arena_lease_ = 0;
};

/// Owns the single scanner, the merged-DFA prefilter and the replay log of
/// one batch. Events every still-active query has replayed are trimmed
/// from the log's front.
class SharedScanDemux {
 public:
  SharedScanDemux(std::unique_ptr<ByteSource> input,
                  ScannerOptions scanner_options, SymbolTable* tags,
                  const std::vector<MergedDfaInput>& inputs,
                  RunGovernor* governor)
      : scanner_(std::move(input), scanner_options, tags),
        merged_(inputs, tags),
        filter_(&merged_),
        governor_(governor) {
    log_.set_governor(governor);
  }

  void Register(ReplayContext* ctx) { subscribers_.push_back(ctx); }

  /// Marks `ctx` finished; its log position stops pinning the tail.
  void Detach(ReplayContext* ctx) {
    ctx->detached = true;
    Trim();
  }

  /// Delivers the next event for `ctx`, advancing the shared scanner when
  /// `ctx` is at the head of the log. Returns false once `ctx`'s projector
  /// has consumed the end-of-document event; returns WouldBlockStatus()
  /// (with nothing delivered) when advancing the scanner stalled.
  Result<bool> PullFor(ReplayContext* ctx) {
    StreamProjector& projector = ctx->projector();
    if (projector.done()) return false;
    if (ctx->position == log_.end()) {
      // At the head and not done: end-of-document cannot be in the log yet.
      GCX_CHECK(!scan_done_);
      GCX_ASSIGN_OR_RETURN(PumpState pumped, PumpOne());
      if (pumped == PumpState::kStalled) return WouldBlockStatus();
    }
    bool at_front = ctx->position == log_.begin();
    ++events_demuxed_;
    Result<bool> more = projector.ProcessEvent(log_.At(ctx->position++));
    // Only the consumer of the front entry can advance the trim point;
    // checking every subscriber on every delivery would be O(N²) per scan.
    if (at_front) Trim();
    return more;
  }

  /// Pump-while-ready driver: advances the scan until the source stalls or
  /// the end-of-document event enters the log. Never blocks.
  Result<PumpState> PumpUntilStalledOrDone() {
    while (true) {
      GCX_ASSIGN_OR_RETURN(PumpState state, PumpOne());
      if (state != PumpState::kEvent) return state;
    }
  }

  int ReadyFd() const { return scanner_.ReadyFd(); }

  SharedScanStats stats() const {
    SharedScanStats stats;
    stats.scan_passes = 1;
    stats.bytes_scanned = scanner_.bytes_consumed();
    stats.events_scanned = events_scanned_;
    stats.events_forwarded = log_.end();
    stats.events_shared_skipped = filter_.events_skipped();
    stats.shared_subtrees_skipped = filter_.subtrees_skipped();
    stats.events_demuxed = events_demuxed_;
    stats.merged_dfa_states = merged_.num_states();
    stats.replay_log_peak = log_.peak_events();
    stats.replay_arena_peak_bytes = log_.arena_peak_bytes();
    stats.stalls = stalls_;
    return stats;
  }

 private:
  /// Reads scanner events until one survives the prefilter into the log
  /// (kEvent), the scan completes (kDone), or the source stalls (kStalled —
  /// the scanner rewound to the event boundary and the filter state,
  /// including an in-progress shared skip, resumes on the next call).
  /// Never blocks.
  Result<PumpState> PumpOne() {
    while (true) {
      if (governor_ != nullptr) {
        GCX_RETURN_IF_ERROR(governor_->Check());
      }
      XmlEvent event;
      Status next = scanner_.Next(&event);
      if (IsWouldBlock(next)) {
        ++stalls_;
        return PumpState::kStalled;
      }
      GCX_RETURN_IF_ERROR(next);
      ++events_scanned_;
      GCX_ASSIGN_OR_RETURN(ProjectedEventFilter::Action action,
                           filter_.Apply(event));
      if (action == ProjectedEventFilter::Action::kSkip) continue;
      GCX_RETURN_IF_ERROR(log_.Append(event));
      if (event.kind != XmlEvent::Kind::kEndOfDocument) {
        return PumpState::kEvent;
      }
      scan_done_ = true;
      return PumpState::kDone;
    }
  }

  /// Drops log entries every still-active query has already replayed.
  void Trim() {
    uint64_t min_pos = log_.end();
    for (const ReplayContext* sub : subscribers_) {
      if (!sub->detached) min_pos = std::min(min_pos, sub->position);
    }
    log_.TrimTo(min_pos);
  }

  XmlScanner scanner_;
  MergedDfa merged_;
  ProjectedEventFilter filter_;
  RunGovernor* governor_;
  ReplayLog log_;
  bool scan_done_ = false;
  std::vector<ReplayContext*> subscribers_;
  uint64_t events_scanned_ = 0;
  uint64_t events_demuxed_ = 0;
  uint64_t stalls_ = 0;
};

void ReplayContext::Detach() {
  if (demux_ != nullptr) demux_->Detach(this);
}

Result<bool> ReplayContext::Pull() {
  // The evaluator cannot suspend, so a demux stall becomes a readiness
  // wait + retry (PullFor delivered nothing and the scanner rewound, so the
  // retry is exact). MultiQueryRun evaluates only after its scan
  // completed, and shard spans are finished logs: neither can stall.
  while (true) {
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(governor_->CheckAll());
      GCX_RETURN_IF_ERROR(governor_->UpdateArenaBytes(
          &arena_lease_, buffer_.stats().bytes_current));
    }
    Result<bool> more = demux_ != nullptr ? demux_->PullFor(this)
                                          : PullFromSpans();
    if (more.ok() || !IsWouldBlock(more.status())) return more;
    WaitReadable(demux_->ReadyFd(),
                 governor_ != nullptr ? governor_->BoundedWaitMs(-1) : -1);
    if (governor_ != nullptr) {
      // The wait may have ended on the deadline, not on data: force a
      // clocked check so a stalled source cannot spin past the deadline.
      GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
    }
  }
}

Result<bool> ReplayContext::PullFromSpans() {
  if (projector_.done()) return false;
  while (span_ < spans_.size() && position == spans_[span_].end) {
    if (++span_ < spans_.size()) position = spans_[span_].begin;
  }
  // Past the last span: the default event is end-of-document, after which
  // the projector reports done().
  XmlEvent event;
  if (span_ < spans_.size()) event = spans_[span_].log->At(position++);
  return projector_.ProcessEvent(event);
}

/// Evaluates one query to completion (materialized-projection pre-pull,
/// evaluator run, detach, per-query stats). Shared between the batch
/// (Execute and MultiQueryRun) and the sharded executor. `ctx`'s query is
/// a full compiled query or one shard-local query segment; `capture`, when
/// set, diverts a root-rooted aggregate's result into partials
/// (eval/evaluator.h) for cross-shard combination.
Result<ExecStats> EvaluateOne(ReplayContext& ctx, std::ostream* out,
                              AggregateParts* capture = nullptr,
                              bool charge_output = true) {
  auto start = std::chrono::steady_clock::now();
  const EngineMode mode = ctx.options().mode;
  RunGovernor* governor = ctx.governor();

  if (mode == EngineMode::kMaterializedProjection) {
    // Static projection: materialize this query's projected document
    // completely (replaying the log), then evaluate on it.
    while (true) {
      GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
      if (!more) break;
    }
  }

  XmlWriter writer(out);
  // charge_output is false for worker-local segment evaluation: those
  // bytes reach the client through the final merge writer, which charges
  // them — charging both would double-count the output ledger.
  if (charge_output && governor != nullptr) writer.set_governor(governor);
  EvalOptions eval_options;
  eval_options.execute_signoffs =
      ctx.options().enable_gc && mode == EngineMode::kStreaming;
  eval_options.aggregate_capture = capture;
  Evaluator evaluator(&ctx.query(), &ctx, &writer, eval_options);
  GCX_RETURN_IF_ERROR(evaluator.Run());
  if (governor != nullptr) {
    // Final checkpoint: an output landing exactly on the cap passes, one
    // byte past it trips — even when the overrun happened after the last
    // pull checkpoint.
    GCX_RETURN_IF_ERROR(governor->CheckAll(/*force_clock=*/true));
  }
  // Freeze this query's pipeline exactly where a solo run would have
  // stopped pulling; later queries continue the shared scan without it.
  ctx.Detach();

  ExecStats stats;
  stats.buffer = ctx.buffer().stats();
  stats.projector = ctx.projector().stats();
  stats.peak_bytes = stats.buffer.bytes_peak;
  stats.output_bytes = writer.bytes_written();
  stats.dfa_states = ctx.projector().dfa().num_states();
  stats.scan_passes = 0;  // the batch's one pass is in result.shared
  stats.events_delivered = stats.projector.events_read;
  stats.live_roles_final = ctx.buffer().live_role_instances();
  stats.buffer_nodes_final = stats.buffer.nodes_current;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (eval_options.execute_signoffs) {
    // Paper requirement (2), per batched query: every assigned role was
    // removed again.
    GCX_CHECK(ctx.buffer().live_role_instances() == 0);
  }
  return stats;
}

std::vector<MergedDfaInput> DfaInputs(
    const std::vector<const CompiledQuery*>& queries) {
  std::vector<MergedDfaInput> inputs;
  for (const CompiledQuery* query : queries) {
    inputs.push_back({&query->analyzed().projection, &query->analyzed().roles});
  }
  return inputs;
}

MergedProjectionStats BatchProjection(
    const std::vector<const CompiledQuery*>& queries) {
  std::vector<const ProjectionTree*> trees;
  for (const CompiledQuery* query : queries) {
    trees.push_back(&query->analyzed().projection);
  }
  return SummarizeMergedProjection(trees);
}

/// A streaming batch: one shared scan and one ReplayContext per query. The
/// pull-driven MultiQueryEngine::Execute evaluates right away (whoever
/// reaches the log head advances the scan); MultiQueryRun pumps the scan
/// to completion first and then evaluates.
class StreamingBatch {
 public:
  StreamingBatch(std::vector<const CompiledQuery*> queries,
                 std::unique_ptr<ByteSource> input, RunGovernor* governor)
      : queries_(std::move(queries)),
        demux_(std::move(input), queries_.front()->options().scanner, &tags_,
               DfaInputs(queries_), governor) {
    contexts_.reserve(queries_.size());
    for (const CompiledQuery* query : queries_) {
      contexts_.push_back(std::make_unique<ReplayContext>(
          &query->analyzed(), query->options(), &tags_, governor, &demux_));
      demux_.Register(contexts_.back().get());
    }
  }

  SharedScanDemux& demux() { return demux_; }

  /// Evaluates every query in batch order, query i writing to `*outs[i]`,
  /// and publishes the batch's metrics.
  Result<MultiQueryStats> Evaluate(const std::vector<std::ostream*>& outs) {
    MultiQueryStats result;
    result.projection = BatchProjection(queries_);
    for (size_t i = 0; i < contexts_.size(); ++i) {
      GCX_ASSIGN_OR_RETURN(ExecStats stats, EvaluateOne(*contexts_[i], outs[i]));
      result.per_query.push_back(stats);
    }
    result.shared = demux_.stats();
    PublishMultiQueryStats(result, GlobalMetrics(), &queries_);
    return result;
  }

 private:
  std::vector<const CompiledQuery*> queries_;
  // One tag table for the whole batch: the scanner interns each element
  // name once, and every per-query DFA/buffer consumes the shared ids.
  SymbolTable tags_;
  SharedScanDemux demux_;
  std::vector<std::unique_ptr<ReplayContext>> contexts_;
};

Status ValidateBatch(const std::vector<const CompiledQuery*>& queries,
                     const std::vector<std::ostream*>& outs) {
  if (queries.empty()) {
    return InvalidArgumentError("multi-query batch is empty");
  }
  if (outs.size() != queries.size()) {
    return InvalidArgumentError(
        "multi-query batch needs one output stream per query");
  }
  const EngineOptions& base = queries.front()->options();
  for (const CompiledQuery* query : queries) {
    if (!BatchCompatibleOptions(base, query->options())) {
      return InvalidArgumentError(
          "multi-query batch mixes engine modes or scanner options; compile "
          "every query of a batch with the same EngineMode and tokenization "
          "(see BatchCompatibleOptions)");
    }
  }
  return Status::Ok();
}

}  // namespace

bool BatchCompatibleOptions(const EngineOptions& a, const EngineOptions& b) {
  return a.mode == b.mode &&
         a.scanner.attribute_mode == b.scanner.attribute_mode &&
         a.scanner.skip_whitespace_text == b.scanner.skip_whitespace_text &&
         a.scanner.max_token_bytes == b.scanner.max_token_bytes;
}

std::string BatchCompatibilityFingerprint(const EngineOptions& options) {
  std::string out;
  out += static_cast<char>('0' + static_cast<int>(options.mode));
  out += static_cast<char>('0' + static_cast<int>(options.scanner.attribute_mode));
  out += options.scanner.skip_whitespace_text ? '1' : '0';
  // The token cap decides which documents tokenize at all, so two caps
  // must never share a scan.
  out += ':';
  out += std::to_string(options.scanner.max_token_bytes);
  return out;
}

Result<MultiQueryStats> MultiQueryEngine::Execute(
    const std::vector<const CompiledQuery*>& queries, std::string_view input,
    const std::vector<std::ostream*>& outs) const {
  return Execute(queries, std::make_unique<StringSource>(input), outs);
}

Result<MultiQueryStats> MultiQueryEngine::Execute(
    const std::vector<const CompiledQuery*>& queries,
    std::unique_ptr<ByteSource> input,
    const std::vector<std::ostream*>& outs) const {
  GCX_RETURN_IF_ERROR(ValidateBatch(queries, outs));
  if (queries.front()->options().mode == EngineMode::kNaiveDom) {
    return ExecuteDomBatch(queries, std::move(input), outs);
  }
  // Pull-driven for every N: evaluator 1 advances the scan one event per
  // pull; evaluators behind it replay what the log retained for them.
  StreamingBatch batch(queries, std::move(input), governor_);
  return batch.Evaluate(outs);
}

namespace {

/// One dynamic segment of a shard-local query, analyzed and ready to run
/// standalone inside a worker.
struct LocalDynamic {
  size_t segment_index = 0;  ///< index into LocalQuery::plan.segments
  AnalyzedQuery analyzed;
};

/// One query of the batch that evaluates inside the shard workers.
struct LocalQuery {
  size_t query_index = 0;  ///< index into the submitted batch
  ShardQueryPlan plan;
  std::vector<LocalDynamic> dynamics;
};

/// What one worker produced for one (local query, dynamic segment) pair.
struct LocalSegmentResult {
  std::string text;     ///< kLoop: stripped per-shard output
  AggregateParts agg;   ///< kAggregate: this shard's partial
  ExecStats stats;
};

/// Strips the fixed `<s>`/`</s>` affixes a segment query's wrapper element
/// contributes (XmlWriter never collapses empty elements, so both are
/// always present).
std::string StripSegmentWrapper(std::string text) {
  GCX_CHECK(text.size() >= 7);
  return text.substr(3, text.size() - 7);
}

}  // namespace

Result<MultiQueryStats> MultiQueryEngine::ExecuteSharded(
    const std::vector<const CompiledQuery*>& queries, std::string_view input,
    const std::vector<std::ostream*>& outs,
    const ShardOptions& shard_options) const {
  GCX_RETURN_IF_ERROR(ValidateBatch(queries, outs));
  if (queries.front()->options().mode == EngineMode::kNaiveDom) {
    return Execute(queries, input, outs);  // one DOM parse; nothing to shard
  }

  // Classify each query for shard-local evaluation; eligible queries donate
  // their scatter paths as planner avoid-hints so boundaries land between
  // their matches (a boundary inside a match subtree would demote them).
  std::vector<ShardQueryPlan> class_plans(queries.size());
  ShardOptions planner_options = shard_options;
  if (shard_options.local_eval) {
    for (size_t i = 0; i < queries.size(); ++i) {
      NormalizeOptions normalize;
      normalize.early_updates = queries[i]->options().early_updates;
      class_plans[i] = ClassifyForShardEval(queries[i]->parsed(), normalize);
      if (!class_plans[i].eligible) continue;
      for (const ShardQuerySegment& segment : class_plans[i].segments) {
        if (!segment.scatter_path.steps.empty()) {
          planner_options.boundary_avoid_paths.push_back(
              segment.scatter_path);
        }
      }
    }
  }

  ShardPlan plan = PlanShards(input, planner_options);
  // The avoid-hints can make a plannable document unplannable (every
  // candidate boundary rejected). Re-plan without them and demote every
  // query to merge-and-replay — the scan-parallel win is kept either way.
  bool demote_all = false;
  if (!plan.sharded && !planner_options.boundary_avoid_paths.empty()) {
    planner_options.boundary_avoid_paths.clear();
    plan = PlanShards(input, planner_options);
    demote_all = true;
  }
  if (!plan.sharded) {
    // The fallback Execute publishes its own batch metrics; only the
    // decline itself is sharding-specific.
    GlobalMetrics().Sub("shard").Add("plan_declines_total", 1);
    return Execute(queries, input, outs);
  }

  const ScannerOptions& scanner_options = queries.front()->options().scanner;
  const std::vector<MergedDfaInput> dfa_inputs = DfaInputs(queries);
  // One tag table across all workers: SymbolTable interning is
  // thread-safe, and downstream consumers need one coherent id space.
  SymbolTable tags;
  const size_t n = plan.slices.size();

  // Final per-query decision. Belt to the planner hints' suspenders: the
  // plan may have been produced without hints (demote_all) or with hints
  // for OTHER queries' paths, so re-check every boundary against this
  // query's scatter paths before committing it to worker-side evaluation.
  std::vector<LocalQuery> locals;
  std::vector<char> is_local(queries.size(), 0);
  if (shard_options.local_eval && !demote_all) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!class_plans[i].eligible) continue;
      bool safe = true;
      for (const ShardQuerySegment& segment : class_plans[i].segments) {
        if (segment.scatter_path.steps.empty()) continue;
        for (size_t s = 1; s < n && safe; ++s) {
          if (EntryPathCompletesPath(segment.scatter_path,
                                     plan.slices[s].entry_path)) {
            safe = false;
          }
        }
        if (!safe) break;
      }
      if (!safe) continue;
      LocalQuery local;
      local.query_index = i;
      local.plan = std::move(class_plans[i]);
      AnalysisOptions analysis;
      analysis.aggregate_roles = queries[i]->options().aggregate_roles;
      analysis.eliminate_redundant_roles =
          queries[i]->options().eliminate_redundant_roles;
      bool analyzed_ok = true;
      for (size_t j = 0; j < local.plan.segments.size(); ++j) {
        ShardQuerySegment& segment = local.plan.segments[j];
        if (segment.kind != ShardQuerySegment::Kind::kLoop &&
            segment.kind != ShardQuerySegment::Kind::kAggregate) {
          continue;
        }
        Result<AnalyzedQuery> analyzed =
            Analyze(std::move(segment.query), analysis);
        if (!analyzed.ok()) {
          analyzed_ok = false;  // unprovable segment: keep merge-and-replay
          break;
        }
        LocalDynamic dynamic;
        dynamic.segment_index = j;
        dynamic.analyzed = std::move(analyzed).value();
        local.dynamics.push_back(std::move(dynamic));
      }
      if (!analyzed_ok) continue;
      is_local[i] = 1;
      locals.push_back(std::move(local));
    }
  }
  size_t local_evals = 0;
  for (const LocalQuery& local : locals) local_evals += local.dynamics.size();

  // Fan out: one task per slice — scan, then (when local queries exist)
  // evaluate every local dynamic segment against the framed slice. The
  // results vectors are pre-sized so workers write disjoint slots without
  // synchronization; `abort` lets shards AFTER a failure stop early while
  // shards before it always complete (exact error, document order).
  std::vector<ShardScanResult> results(n);
  std::vector<Status> local_status(n, Status::Ok());
  // local_results[shard][local query][dynamic segment]
  std::vector<std::vector<std::vector<LocalSegmentResult>>> local_results(n);
  for (size_t i = 0; i < n; ++i) {
    local_results[i].resize(locals.size());
    for (size_t q = 0; q < locals.size(); ++q) {
      local_results[i][q].resize(locals[q].dynamics.size());
    }
  }
  ShardAbort abort;
  size_t threads = shard_options.threads;
  if (threads == 0) {
    threads = n;
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) threads = std::min<size_t>(threads, hw);
  }
  {
    ThreadPool pool(threads);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool.Submit([&, i] {
        ScanShard(input, plan.slices[i], scanner_options, dfa_inputs, &tags,
                  shard_options, &results[i], i, &abort, governor_);
        if (!results[i].status.ok() || local_evals == 0 ||
            abort.ShouldAbort(i)) {
          return;
        }
        // The whole shard log is already the framed stream the ordinary
        // pipelines expect: filter-surviving synthetic entry starts, the
        // surviving slice events, filter-surviving synthetic exit ends (see
        // core/shard.h — the filter drops whole subtrees only, so the log
        // is balanced and correctly nested by itself). The replay appends
        // end-of-document.
        const ReplayLog& log = results[i].log;
        const ReplayContext::Span framed{&log, log.begin(), log.end()};
        for (size_t q = 0; q < locals.size(); ++q) {
          const LocalQuery& local = locals[q];
          const CompiledQuery& owner = *queries[local.query_index];
          for (size_t d = 0; d < local.dynamics.size(); ++d) {
            const LocalDynamic& dynamic = local.dynamics[d];
            const ShardQuerySegment& segment =
                local.plan.segments[dynamic.segment_index];
            LocalSegmentResult& slot = local_results[i][q][d];
            ReplayContext ctx(&dynamic.analyzed, owner.options(), &tags,
                              governor_, /*demux=*/nullptr, {framed});
            AggregateParts* capture =
                segment.kind == ShardQuerySegment::Kind::kAggregate
                    ? &slot.agg
                    : nullptr;
            std::ostringstream out;
            Result<ExecStats> stats =
                EvaluateOne(ctx, &out, capture, /*charge_output=*/false);
            if (!stats.ok()) {
              local_status[i] = stats.status();
              abort.Fail(i);
              return;
            }
            slot.stats = std::move(stats).value();
            if (capture == nullptr) {
              slot.text = StripSegmentWrapper(std::move(out).str());
            }
          }
        }
      }));
    }
    for (std::future<void>& future : futures) future.get();
  }
  // The unsharded scan would have stopped at the first error, so the
  // earliest failing shard in document order owns the reported error (its
  // line numbers are document-accurate via ScannerOptions::start_line).
  // Shards after it may carry a cancellation status — never reported,
  // because the sweep hits the real error first.
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].status.ok()) {
      GlobalMetrics().Sub("shard").Add("aborts_scan_total", 1);
      if (IsResourceExhausted(results[i].status) && governor_ != nullptr) {
        // Graceful degradation: N simultaneous shard arenas tripped a
        // resource budget during the scan phase — before any output — so
        // retry on the serial single-scan path, whose replay log trims as
        // the lone stream advances. The retry runs under a fresh child
        // attempt: the tripped token must not poison it, while the
        // deadline and output ledger keep their run-wide scope.
        local_results.clear();
        results.clear();
        GlobalMetrics().Sub("robustness").Add("serial_fallbacks_total", 1);
        RunGovernor serial_attempt(governor_);
        MultiQueryEngine serial;
        serial.set_governor(&serial_attempt);
        return serial.Execute(queries, input, outs);
      }
      return results[i].status;
    }
    if (!local_status[i].ok()) {
      GlobalMetrics().Sub("shard").Add("aborts_local_eval_total", 1);
      return local_status[i];
    }
  }

  // Merge-and-replay path for the queries that need it: the slices' own
  // events, concatenated in document order, are exactly the stream the
  // single shared scan would have forwarded (see core/shard.h). The
  // synthetic wrapper events around them are a sharding artifact, so the
  // forwarded-event counters exclude them too.
  std::vector<ReplayContext::Span> bodies;
  uint64_t total = 0;
  for (const ShardScanResult& shard : results) {
    bodies.push_back({&shard.log, shard.body_begin, shard.body_end});
    total += shard.body_end - shard.body_begin;
  }

  MultiQueryStats result;
  result.projection = BatchProjection(queries);
  result.per_query.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (is_local[i]) continue;
    ReplayContext ctx(&queries[i]->analyzed(), queries[i]->options(), &tags,
                      governor_, /*demux=*/nullptr, bodies);
    GCX_ASSIGN_OR_RETURN(result.per_query[i], EvaluateOne(ctx, outs[i]));
  }

  // Result merge for the shard-local queries: walk the segment list in
  // output order — constants replay through the same writer operations the
  // solo evaluator uses, loop outputs concatenate in shard order, and
  // aggregate partials combine (count: sum; sum: refold the concatenated
  // raw values with the solo fold) — so the bytes match by construction.
  for (size_t q = 0; q < locals.size(); ++q) {
    const LocalQuery& local = locals[q];
    const size_t qi = local.query_index;
    auto start = std::chrono::steady_clock::now();
    XmlWriter writer(outs[qi]);
    if (governor_ != nullptr) writer.set_governor(governor_);
    ExecStats stats;
    size_t dyn = 0;
    for (const ShardQuerySegment& segment : local.plan.segments) {
      switch (segment.kind) {
        case ShardQuerySegment::Kind::kOpenTag:
          writer.StartElement(segment.text);
          break;
        case ShardQuerySegment::Kind::kCloseTag:
          writer.EndElement(segment.text);
          break;
        case ShardQuerySegment::Kind::kText:
          writer.Text(segment.text);
          break;
        case ShardQuerySegment::Kind::kLoop: {
          for (size_t s = 0; s < n; ++s) {
            writer.Raw(local_results[s][q][dyn].text);
          }
          ++dyn;
          break;
        }
        case ShardQuerySegment::Kind::kAggregate: {
          if (segment.agg == AggKind::kCount) {
            uint64_t count = 0;
            for (size_t s = 0; s < n; ++s) {
              count += local_results[s][q][dyn].agg.count;
            }
            writer.Text(std::to_string(count));
          } else {
            std::vector<std::string> values;
            for (size_t s = 0; s < n; ++s) {
              AggregateParts& parts = local_results[s][q][dyn].agg;
              for (std::string& value : parts.values) {
                values.push_back(std::move(value));
              }
            }
            writer.Text(FoldSumValues(values));
          }
          ++dyn;
          break;
        }
      }
    }
    for (size_t s = 0; s < n; ++s) {
      for (const LocalSegmentResult& slot : local_results[s][q]) {
        stats.events_delivered += slot.stats.events_delivered;
        stats.live_roles_final += slot.stats.live_roles_final;
        stats.buffer_nodes_final =
            std::max(stats.buffer_nodes_final, slot.stats.buffer_nodes_final);
        stats.peak_bytes = std::max(stats.peak_bytes, slot.stats.peak_bytes);
        stats.dfa_states = std::max(stats.dfa_states, slot.stats.dfa_states);
        stats.buffer.bytes_peak =
            std::max(stats.buffer.bytes_peak, slot.stats.buffer.bytes_peak);
        stats.projector.events_read += slot.stats.projector.events_read;
      }
    }
    writer.Flush();
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
    }
    stats.output_bytes = writer.bytes_written();
    stats.scan_passes = 0;
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.per_query[qi] = std::move(stats);
  }

  SharedScanStats& shared = result.shared;
  shared.scan_passes = 1;
  shared.shards = n;
  shared.shard_local_queries = locals.size();
  // The forwarded/peak counters describe the union-projected stream the
  // shards produced, whether or not any query replayed it — so they stay
  // comparable with the unsharded scan.
  shared.events_forwarded = total + 1;
  shared.replay_log_peak = total + 1;
  // Synthetic wrapper events (entry/exit paths plus per-shard EOD) are a
  // sharding artifact: subtract them so the counter stays comparable to
  // the unsharded scan, then count the document's own end once.
  shared.events_scanned = 1;
  for (size_t i = 0; i < n; ++i) {
    const ShardScanResult& shard = results[i];
    const ShardSlice& slice = plan.slices[i];
    shared.events_scanned += shard.scanner_events - slice.entry_path.size() -
                             slice.exit_path.size() - 1;
    shared.bytes_scanned += shard.bytes_scanned;
    shared.events_shared_skipped += shard.events_skipped;
    shared.shared_subtrees_skipped += shard.subtrees_skipped;
    shared.replay_arena_peak_bytes += shard.log.arena_peak_bytes();
    result.per_shard_arena_peak_bytes.push_back(shard.log.arena_peak_bytes());
    shared.merged_dfa_states =
        std::max(shared.merged_dfa_states, shard.dfa_states);
  }
  for (const ExecStats& per_query : result.per_query) {
    shared.events_demuxed += per_query.events_delivered;
  }
  PublishMultiQueryStats(result, GlobalMetrics(), &queries);
  return result;
}

Result<MultiQueryStats> MultiQueryEngine::ExecuteDomBatch(
    const std::vector<const CompiledQuery*>& queries,
    std::unique_ptr<ByteSource> input,
    const std::vector<std::ostream*>& outs) const {
  // Read the input and build the DOM once; every query shares it.
  std::string document;
  GCX_RETURN_IF_ERROR(ReadAll(input.get(), &document, governor_));
  uint64_t input_bytes = document.size();
  GCX_ASSIGN_OR_RETURN(
      std::unique_ptr<DomDocument> doc,
      ParseDom(document, queries.front()->options().scanner));
  uint64_t dom_bytes = DomSubtreeBytes(doc->root());

  MultiQueryStats result;
  result.projection = BatchProjection(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto start = std::chrono::steady_clock::now();
    XmlWriter writer(outs[i]);
    if (governor_ != nullptr) writer.set_governor(governor_);
    GCX_RETURN_IF_ERROR(
        EvalQueryOnDom(queries[i]->parsed(), doc.get(), &writer));
    if (governor_ != nullptr) {
      GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
    }
    ExecStats stats;
    stats.peak_bytes = dom_bytes;
    stats.output_bytes = writer.bytes_written();
    // As in the streaming batch, input accounting lives in result.shared
    // (scan_passes/input_bytes stay 0 per query: there was no private
    // read); projector/DFA counters are 0 just like solo ExecuteNaiveDom.
    stats.scan_passes = 0;
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.per_query.push_back(stats);
  }
  result.shared.scan_passes = 1;
  result.shared.bytes_scanned = input_bytes;
  PublishMultiQueryStats(result, GlobalMetrics(), &queries);
  return result;
}

// --- MultiQueryRun: resumable pump-while-ready execution ---------------------

struct MultiQueryRun::Impl {
  std::vector<const CompiledQuery*> queries;
  std::vector<std::ostream*> outs;
  EngineMode mode = EngineMode::kStreaming;
  State state = State::kRunnable;
  Status error;

  // Streaming / materialized-projection machinery (null in kNaiveDom).
  std::unique_ptr<StreamingBatch> batch;

  // kNaiveDom: the document accumulates here until EOF, then one
  // MultiQueryEngine::Execute over the buffered string does the rest.
  std::unique_ptr<ByteSource> dom_source;
  std::string dom_buffer;

  MultiQueryStats stats;
  bool stats_taken = false;

  RunGovernor* governor = nullptr;
  uint64_t dom_lease = 0;  ///< arena-ledger cursor for dom_buffer bytes
  bool evaluation_started = false;

  void Fail(Status status) {
    error = std::move(status);
    state = State::kFailed;
  }

  ~Impl() {
    if (governor != nullptr) governor->ReleaseArenaBytes(&dom_lease);
  }
};

MultiQueryRun::MultiQueryRun(std::vector<const CompiledQuery*> queries,
                             std::unique_ptr<ByteSource> input,
                             std::vector<std::ostream*> outs,
                             RunGovernor* governor)
    : impl_(std::make_unique<Impl>()) {
  impl_->queries = std::move(queries);
  impl_->outs = std::move(outs);
  impl_->governor = governor;
  Status valid = ValidateBatch(impl_->queries, impl_->outs);
  if (!valid.ok()) {
    impl_->Fail(std::move(valid));
    return;
  }
  impl_->mode = impl_->queries.front()->options().mode;
  if (impl_->mode == EngineMode::kNaiveDom) {
    impl_->dom_source = std::move(input);
    return;
  }

  // Every query, a lone one included, evaluates after the pump completed:
  // the log retains the union-projected stream until then, charged to the
  // governor, and each evaluator replays it with signOff-driven GC.
  impl_->batch = std::make_unique<StreamingBatch>(impl_->queries,
                                                  std::move(input), governor);
}

MultiQueryRun::~MultiQueryRun() = default;

MultiQueryRun::State MultiQueryRun::Step() {
  Impl& im = *impl_;
  if (im.state == State::kDone || im.state == State::kFailed) return im.state;

  if (im.mode == EngineMode::kNaiveDom) {
    char chunk[1 << 16];
    while (true) {
      if (im.governor != nullptr) {
        Status check = im.governor->Check();
        if (check.ok()) {
          check = im.governor->UpdateArenaBytes(&im.dom_lease,
                                                im.dom_buffer.size());
        }
        if (!check.ok()) {
          im.Fail(std::move(check));
          return im.state;
        }
      }
      ByteSource::ReadResult r = im.dom_source->Read(chunk, sizeof(chunk));
      if (r.state == ByteSource::ReadState::kWouldBlock) {
        im.state = State::kStalled;
        return im.state;
      }
      if (r.state == ByteSource::ReadState::kOk) {
        im.dom_buffer.append(chunk, r.bytes);
        continue;
      }
      if (r.state == ByteSource::ReadState::kError) {
        im.Fail(IoError(std::string("source read error: ") +
                        std::strerror(r.error)));
        return im.state;
      }
      break;  // EOF: the document is complete
    }
    im.evaluation_started = true;
    MultiQueryEngine engine;
    engine.set_governor(im.governor);
    Result<MultiQueryStats> stats =
        engine.Execute(im.queries, std::string_view(im.dom_buffer), im.outs);
    if (!stats.ok()) {
      im.Fail(stats.status());
      return im.state;
    }
    im.stats = std::move(stats).value();
    im.state = State::kDone;
    return im.state;
  }

  // Pump phase: advance the shared scan while the source is ready.
  Result<PumpState> pumped = im.batch->demux().PumpUntilStalledOrDone();
  if (!pumped.ok()) {
    im.Fail(pumped.status());
    return im.state;
  }
  if (*pumped == PumpState::kStalled) {
    im.state = State::kStalled;
    return im.state;
  }

  // Scan complete: the replay log holds the full union-projected stream,
  // so no evaluator can stall. Run them all.
  im.evaluation_started = true;
  Result<MultiQueryStats> stats = im.batch->Evaluate(im.outs);
  if (!stats.ok()) {
    im.Fail(stats.status());
    return im.state;
  }
  im.stats = std::move(stats).value();
  im.state = State::kDone;
  return im.state;
}

MultiQueryRun::State MultiQueryRun::state() const { return impl_->state; }

bool MultiQueryRun::evaluation_started() const {
  return impl_->evaluation_started;
}

Status MultiQueryRun::status() const {
  return impl_->state == State::kFailed ? impl_->error : Status::Ok();
}

int MultiQueryRun::ReadyFd() const {
  const Impl& im = *impl_;
  if (im.mode == EngineMode::kNaiveDom) {
    return im.dom_source != nullptr ? im.dom_source->ReadyFd() : -1;
  }
  return im.batch != nullptr ? im.batch->demux().ReadyFd() : -1;
}

Result<MultiQueryStats> MultiQueryRun::TakeStats() {
  Impl& im = *impl_;
  if (im.state == State::kFailed) return im.error;
  GCX_CHECK(im.state == State::kDone && !im.stats_taken);
  im.stats_taken = true;
  return std::move(im.stats);
}

}  // namespace gcx
