#include "core/engine.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dom_engine.h"
#include "core/stats_publish.h"
#include "eval/evaluator.h"
#include "eval/exec_context.h"
#include "xml/fd_source.h"
#include "xml/writer.h"
#include "xq/normalize.h"
#include "xq/parser.h"
#include "xq/printer.h"

namespace gcx {

std::vector<NamedEngineConfig> StandardEngineConfigs() {
  std::vector<NamedEngineConfig> out;
  out.push_back({"GCX", {}});
  EngineOptions no_gc;
  no_gc.enable_gc = false;
  out.push_back({"GCX-noGC", no_gc});
  EngineOptions projection;
  projection.mode = EngineMode::kMaterializedProjection;
  out.push_back({"Projection", projection});
  EngineOptions naive;
  naive.mode = EngineMode::kNaiveDom;
  out.push_back({"NaiveDom", naive});
  return out;
}

Result<CompiledQuery> CompiledQuery::Compile(std::string_view text,
                                             const EngineOptions& options) {
  GCX_ASSIGN_OR_RETURN(Query parsed, ParseQuery(text));
  return CompileParsed(std::move(parsed), options);
}

Result<CompiledQuery> CompiledQuery::CompileParsed(Query parsed,
                                                   const EngineOptions& options) {
  auto impl = std::make_shared<Impl>();
  impl->options = options;
  impl->parsed = parsed.Clone();
  impl->canonical_text = PrintQuery(impl->parsed);
  NormalizeOptions norm;
  norm.early_updates = options.early_updates;
  GCX_RETURN_IF_ERROR(Normalize(&parsed, norm));
  AnalysisOptions analysis;
  analysis.aggregate_roles = options.aggregate_roles;
  analysis.eliminate_redundant_roles = options.eliminate_redundant_roles;
  GCX_ASSIGN_OR_RETURN(impl->analyzed, Analyze(std::move(parsed), analysis));
  // Approximate residency cost: the compilation keeps two AST copies
  // (pre-normalization + rewritten) whose node count tracks the query
  // text, plus per-node analysis records. Deliberately coarse — the cache
  // byte budget needs monotone-with-size, not exact.
  impl->approx_bytes =
      sizeof(Impl) + 6 * impl->canonical_text.size() +
      impl->analyzed.projection.size() * (sizeof(ProjNode) + 48) +
      impl->analyzed.roles.size() * 96 + impl->analyzed.vars.size() * 64;
  CompiledQuery out;
  out.impl_ = std::move(impl);
  return out;
}

Result<ExecStats> Engine::Execute(const CompiledQuery& query,
                                  std::string_view input,
                                  std::ostream* out) const {
  return Execute(query, std::make_unique<StringSource>(input), out);
}

Result<ExecStats> Engine::Execute(const CompiledQuery& query,
                                  std::unique_ptr<ByteSource> input,
                                  std::ostream* out) const {
  if (query.options().mode == EngineMode::kNaiveDom) {
    return ExecuteNaiveDom(query, std::move(input), out);
  }
  return ExecuteStreaming(query, std::move(input), out);
}

Result<ExecStats> Engine::ExecuteStreaming(const CompiledQuery& query,
                                           std::unique_ptr<ByteSource> input,
                                           std::ostream* out) const {
  auto start = std::chrono::steady_clock::now();
  const EngineOptions& options = query.options();

  StreamExecContext ctx(&query.analyzed().projection, &query.analyzed().roles,
                        std::move(input), options.scanner);
  ctx.set_governor(governor_);
  if (!options.enable_gc ||
      options.mode == EngineMode::kMaterializedProjection) {
    ctx.buffer().set_gc_enabled(false);
  }
  if (trace_) {
    ctx.projector().set_trace([this, &ctx](const XmlEvent& event) {
      trace_(event, ctx.buffer(), ctx.tags());
    });
  }

  if (options.mode == EngineMode::kMaterializedProjection) {
    // Static projection à la Marian & Siméon: materialize the projected
    // document completely, then evaluate on it.
    while (true) {
      GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
      if (!more) break;
    }
  }

  XmlWriter writer(out);
  writer.set_governor(governor_);
  EvalOptions eval_options;
  eval_options.execute_signoffs =
      options.enable_gc && options.mode == EngineMode::kStreaming;
  Evaluator evaluator(&query.analyzed(), &ctx, &writer, eval_options);
  GCX_RETURN_IF_ERROR(evaluator.Run());
  if (governor_ != nullptr) {
    // Final checkpoint: an output that landed exactly on the cap passes,
    // one byte past it trips — even when the overrun happened after the
    // last input pull.
    GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
  }

  ExecStats stats;
  stats.buffer = ctx.buffer().stats();
  stats.projector = ctx.projector().stats();
  stats.peak_bytes = stats.buffer.bytes_peak;
  stats.input_bytes = ctx.scanner().bytes_consumed();
  stats.output_bytes = writer.bytes_written();
  stats.dfa_states = ctx.projector().dfa().num_states();
  stats.scan_passes = 1;
  stats.events_delivered = stats.projector.events_read;
  stats.live_roles_final = ctx.buffer().live_role_instances();
  stats.buffer_nodes_final = stats.buffer.nodes_current;
  stats.stalls = ctx.scanner().stalls();
  stats.eval = evaluator.stats();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());

  if (eval_options.execute_signoffs) {
    // Paper requirement (2): every assigned role was removed again.
    GCX_CHECK(ctx.buffer().live_role_instances() == 0);
  }
  return stats;
}

namespace {
void SerializeBufferNode(const BufferNode* node, const SymbolTable& tags,
                         XmlWriter* writer) {
  if (node->is_text) {
    writer->Text(node->text);
    return;
  }
  bool is_root = node->parent == nullptr;
  if (!is_root) writer->StartElement(tags.Name(node->tag));
  for (const BufferNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    SerializeBufferNode(c, tags, writer);
  }
  if (!is_root) writer->EndElement(tags.Name(node->tag));
}
}  // namespace

Result<ExecStats> Engine::Project(const CompiledQuery& query,
                                  std::string_view input,
                                  std::ostream* out) const {
  auto start = std::chrono::steady_clock::now();
  StreamExecContext ctx(&query.analyzed().projection, &query.analyzed().roles,
                        std::make_unique<StringSource>(input),
                        query.options().scanner);
  ctx.buffer().set_gc_enabled(false);
  while (true) {
    GCX_ASSIGN_OR_RETURN(bool more, ctx.Pull());
    if (!more) break;
  }
  XmlWriter writer(out);
  SerializeBufferNode(ctx.buffer().root(), ctx.tags(), &writer);

  ExecStats stats;
  stats.buffer = ctx.buffer().stats();
  stats.projector = ctx.projector().stats();
  stats.peak_bytes = stats.buffer.bytes_peak;
  stats.input_bytes = ctx.scanner().bytes_consumed();
  stats.output_bytes = writer.bytes_written();
  stats.dfa_states = ctx.projector().dfa().num_states();
  stats.scan_passes = 1;
  stats.events_delivered = stats.projector.events_read;
  stats.live_roles_final = ctx.buffer().live_role_instances();
  stats.buffer_nodes_final = stats.buffer.nodes_current;
  stats.stalls = ctx.scanner().stalls();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());
  return stats;
}

Result<ExecStats> Engine::ExecuteNaiveDom(const CompiledQuery& query,
                                          std::unique_ptr<ByteSource> input,
                                          std::ostream* out) const {
  auto start = std::chrono::steady_clock::now();
  // Read the entire input (Galax-like engines buffer everything), waiting
  // out any would-block stalls — bounded by the governor's deadline and
  // arena budget when one is installed.
  std::string document;
  GCX_RETURN_IF_ERROR(ReadAll(input.get(), &document, governor_));
  uint64_t input_bytes = document.size();
  GCX_ASSIGN_OR_RETURN(std::unique_ptr<DomDocument> doc,
                       ParseDom(document, query.options().scanner));
  XmlWriter writer(out);
  writer.set_governor(governor_);
  GCX_RETURN_IF_ERROR(EvalQueryOnDom(query.parsed(), doc.get(), &writer));
  if (governor_ != nullptr) {
    GCX_RETURN_IF_ERROR(governor_->CheckAll(/*force_clock=*/true));
  }

  ExecStats stats;
  stats.scan_passes = 1;
  stats.peak_bytes = DomSubtreeBytes(doc->root());
  stats.input_bytes = input_bytes;
  stats.output_bytes = writer.bytes_written();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PublishExecStats(stats, GlobalMetrics(), query.canonical_text());
  return stats;
}

}  // namespace gcx
