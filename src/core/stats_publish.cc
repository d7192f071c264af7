#include "core/stats_publish.h"

#include <cctype>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace gcx {

namespace {

const std::vector<uint64_t>& WallMsBounds() {
  static const std::vector<uint64_t>* bounds = new std::vector<uint64_t>{
      1, 5, 10, 50, 100, 500, 1000, 5000, 10000};
  return *bounds;
}

const std::vector<uint64_t>& OutputBytesBounds() {
  static const std::vector<uint64_t>* bounds = new std::vector<uint64_t>{
      1u << 10, 1u << 14, 1u << 18, 1u << 22, 1u << 26, 1u << 30};
  return *bounds;
}

/// Canonical query text → metric-name slug: a readable alphanumeric prefix
/// plus an FNV-1a hash suffix, so two queries sharing a 40-char prefix
/// still get distinct series and the name stays dot-free (dots would split
/// the nested-JSON export).
std::string QueryMetricSlug(std::string_view canonical) {
  uint64_t h = 1469598103934665603ull;
  for (char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::string slug;
  slug.reserve(50);
  bool last_was_sep = true;  // also swallows a leading separator run
  for (char c : canonical.substr(0, 40)) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += c;
      last_was_sep = false;
    } else if (!last_was_sep) {
      slug += '_';
      last_was_sep = true;
    }
  }
  char suffix[12];
  std::snprintf(suffix, sizeof(suffix), "_%08x",
                static_cast<unsigned>(h ^ (h >> 32)));
  return slug + suffix;
}

/// Cardinality guard for the query.* family: the first 64 distinct slugs
/// get their own series, everything after folds into `_other`. Admission is
/// process-wide and sticky — a registry reset (tests) does not revoke
/// already-admitted slugs, which only errs on the generous side.
bool AdmitQuerySlug(const std::string& slug) {
  static constexpr size_t kMaxQuerySeries = 64;
  static std::mutex* mu = new std::mutex;
  static std::set<std::string>* admitted = new std::set<std::string>;
  std::lock_guard<std::mutex> lock(*mu);
  if (admitted->count(slug) > 0) return true;
  if (admitted->size() >= kMaxQuerySeries) return false;
  admitted->insert(slug);
  return true;
}

}  // namespace

void PublishExecStats(const ExecStats& stats, const MetricsSink& sink,
                      std::string_view query_text) {
  if (!sink.active()) return;

  MetricsSink engine = sink.Sub("engine");
  engine.Add("runs_total", 1);
  engine.Add("output_bytes_total", stats.output_bytes);
  engine.Max("dfa_states", stats.dfa_states);
  engine.Observe("run_wall_ms",
                 static_cast<uint64_t>(stats.wall_seconds * 1000.0),
                 WallMsBounds());
  engine.Observe("run_output_bytes", stats.output_bytes, OutputBytesBounds());

  if (!query_text.empty()) {
    std::string slug = QueryMetricSlug(query_text);
    if (!AdmitQuerySlug(slug)) slug = "_other";
    sink.Sub("query").Sub(slug).Observe(
        "wall_ms", static_cast<uint64_t>(stats.wall_seconds * 1000.0),
        WallMsBounds());
  }

  if (stats.scan_passes > 0) {
    // A private input pass happened (solo run). Batched per-query stats
    // carry scan_passes == 0: their one shared pass is published from
    // MultiQueryStats::shared instead.
    MetricsSink scanner = sink.Sub("scanner");
    scanner.Add("bytes_total", stats.input_bytes);
    scanner.Add("events_total", stats.projector.events_read);
    scanner.Add("stalls_total", stats.stalls);
  }

  MetricsSink projector = sink.Sub("projector");
  projector.Add("events_total", stats.projector.events_read);
  projector.Add("elements_read_total", stats.projector.elements_read);
  projector.Add("elements_kept_total", stats.projector.elements_kept);
  projector.Add("elements_skipped_total", stats.projector.elements_skipped);
  projector.Add("text_kept_total", stats.projector.text_kept);
  projector.Add("text_skipped_total", stats.projector.text_skipped);

  MetricsSink eval = sink.Sub("eval");
  eval.Add("comparisons_total", stats.eval.comparisons);
  eval.Add("value_reads_total", stats.eval.value_reads);

  MetricsSink buffer = sink.Sub("buffer");
  buffer.Add("nodes_created_total", stats.buffer.nodes_created);
  buffer.Add("nodes_purged_total", stats.buffer.nodes_purged);
  buffer.Add("roles_assigned_total", stats.buffer.roles_assigned);
  buffer.Add("roles_removed_total", stats.buffer.roles_removed);
  buffer.Add("gc_runs_total", stats.buffer.gc_runs);
  buffer.Add("gc_nodes_visited_total", stats.buffer.gc_nodes_visited);
  buffer.Max("nodes_peak", stats.buffer.nodes_peak);
  buffer.Max("bytes_peak", stats.buffer.bytes_peak);
  sink.Sub("arena").Max("text_peak_bytes",
                        stats.buffer.text_arena_peak_bytes);
}

void PublishMultiQueryStats(const MultiQueryStats& stats,
                            const MetricsSink& sink,
                            const std::vector<const CompiledQuery*>* queries) {
  if (!sink.active()) return;

  const SharedScanStats& shared = stats.shared;
  MetricsSink scanner = sink.Sub("scanner");
  scanner.Add("bytes_total", shared.bytes_scanned);
  scanner.Add("events_total", shared.events_scanned);
  scanner.Add("stalls_total", shared.stalls);

  MetricsSink batch = sink.Sub("batch");
  batch.Add("runs_total", 1);
  batch.Add("queries_total", stats.per_query.size());
  batch.Add("events_forwarded_total", shared.events_forwarded);
  batch.Add("events_shared_skipped_total", shared.events_shared_skipped);
  batch.Add("shared_subtrees_skipped_total", shared.shared_subtrees_skipped);
  batch.Add("events_demuxed_total", shared.events_demuxed);
  batch.Max("merged_dfa_states", shared.merged_dfa_states);
  batch.Max("replay_log_peak", shared.replay_log_peak);
  batch.Max("replay_arena_peak_bytes", shared.replay_arena_peak_bytes);

  if (shared.shards > 0) {
    MetricsSink shard = sink.Sub("shard");
    shard.Add("runs_total", 1);
    shard.Max("shards", shared.shards);
    shard.Add("local_queries_total", shared.shard_local_queries);
    shard.Add("replay_queries_total",
              stats.per_query.size() - shared.shard_local_queries);
    for (size_t i = 0; i < stats.per_shard_arena_peak_bytes.size(); ++i) {
      shard.Sub(std::to_string(i))
          .Max("arena_peak_bytes", stats.per_shard_arena_peak_bytes[i]);
    }
  }

  for (size_t i = 0; i < stats.per_query.size(); ++i) {
    std::string_view query_text;
    if (queries != nullptr && i < queries->size()) {
      query_text = (*queries)[i]->canonical_text();
    }
    PublishExecStats(stats.per_query[i], sink, query_text);
  }
}

}  // namespace gcx
