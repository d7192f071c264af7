// The traced run: per-layer metrics from whole-call spans and isolation
// passes, all recorded from outside the program around public entry points.
//
// Every workload reports the same metric set, each measured on that
// workload's own document and queries ("the batch" is all of them in one
// MultiQueryEngine call):
//   xml         XmlScanner::Next alone over the documents.
//   projection  The same scan through ProjectedEventFilter over a MergedDfa
//               of the batch's queries, minus the scan alone.
//   engine      Engine::Execute of each query over each document, minus the
//               scan alone: projector + buffer/GC + evaluator + writer.
//   demux       MultiQueryEngine::Execute of the batch over each document,
//               minus the scan and prefilter passes.
//   analysis    Cold CompiledQuery::Compile of the queries.
//   admission   Two rounds of the batch over every document through a fresh
//   query_cache QueryCache and AdmissionController, at one shard per
//               hardware thread and again at one shard
//               (shard.speedup_vs_single); the second round finds its
//               compilations cached.
//   shard       PlanShards, then ScanShard over each slice serially and on
//               one thread per slice, then MultiQueryEngine::ExecuteSharded.
//   alloc       Heap allocations per scanner event over one untimed
//               operation of the workload's loop.
//   trace       The workload's loop traced against untraced.
//
// Two finer-grained approaches were measured and rejected:
//   * Per-event spans inside the scan loop: steady_clock::now() costs about
//     28 ns while a scanner event takes about 42 ns, so the clock would
//     dominate what it measures; even 1-in-64 sampled spans over-read scan
//     time about 2x.
//   * Timing the projector alone by draining it with no evaluator: without
//     the evaluator's signOffs nothing is purged, so Q6 over a 31 MB document
//     builds a 110 MB buffer where GCX holds 4 KB. That measures different
//     work, so projector cost is reported inside engine.post_scan_s.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "alloc_counter.h"
#include "bench.h"
#include "common/metrics.h"
#include "common/symbol_table.h"
#include "core/admission.h"
#include "core/event_filter.h"
#include "core/multi_engine.h"
#include "core/query_cache.h"
#include "core/shard.h"
#include "projection/merged_dfa.h"
#include "xml/scanner.h"

namespace perfbench {
namespace {

using gcx::CompiledQuery;

constexpr size_t kMaxReps = 5;

/// Shard count of the sharded layers: one per hardware thread.
size_t ShardCount() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Calls `pass` (which returns its seconds, or a negative value on failure)
/// at least once and at most kMaxReps times, stopping once another call
/// would exceed `budget` seconds. Returns the times of the calls.
template <typename Pass>
std::vector<double> Repeat(double budget, Pass pass) {
  std::vector<double> times;
  double used = 0;
  do {
    double seconds = pass();
    if (seconds < 0) return {};
    times.push_back(seconds);
    used += seconds;
  } while (times.size() < kMaxReps && used + times.back() <= budget);
  return times;
}

std::vector<const CompiledQuery*> BatchQueries(const Workload& w) {
  std::vector<const CompiledQuery*> queries;
  for (size_t t = 0; t < w.texts().size(); ++t) {
    queries.push_back(&w.compiled(t));
  }
  return queries;
}

std::vector<gcx::MergedDfaInput> DfaInputs(const Workload& w) {
  std::vector<gcx::MergedDfaInput> inputs;
  for (const CompiledQuery* q : BatchQueries(w)) {
    inputs.push_back({&q->analyzed().projection, &q->analyzed().roles});
  }
  return inputs;
}

/// Output sinks for a batch, checked against the references of `doc`.
class BatchSinks {
 public:
  BatchSinks(const Workload& w, size_t doc) {
    for (size_t t = 0; t < w.texts().size(); ++t) {
      sinks_.push_back(std::make_unique<CheckingBuf>());
      sinks_.back()->Reset(&w.Reference(t, doc));
      streams_.push_back(std::make_unique<std::ostream>(sinks_.back().get()));
      outs.push_back(streams_.back().get());
    }
  }
  uint64_t Mismatches() const {
    uint64_t n = 0;
    for (const auto& sink : sinks_) n += sink->Matches() ? 0 : 1;
    return n;
  }
  std::vector<std::ostream*> outs;

 private:
  std::vector<std::unique_ptr<CheckingBuf>> sinks_;
  std::vector<std::unique_ptr<std::ostream>> streams_;
};

struct ScanCounts {
  uint64_t events = 0;
  uint64_t bytes = 0;
  uint64_t forwarded = 0;
  uint64_t merged_dfa_states = 0;
  int backend = 0;
};

/// One scan of every document; with `filter`, each event also goes
/// through a ProjectedEventFilter over the batch's MergedDfa.
double ScanPass(const Workload& w, bool filter, ScanCounts* counts) {
  *counts = ScanCounts();
  std::vector<gcx::MergedDfaInput> inputs = DfaInputs(w);
  Clock::time_point start = Clock::now();
  for (const Doc& doc : w.docs()) {
    gcx::SymbolTable tags;
    gcx::XmlScanner scanner(std::make_unique<gcx::StringSource>(doc.bytes),
                            gcx::EngineOptions().scanner, &tags);
    std::unique_ptr<gcx::MergedDfa> dfa;
    std::unique_ptr<gcx::ProjectedEventFilter> prefilter;
    if (filter) {
      dfa = std::make_unique<gcx::MergedDfa>(inputs, &tags);
      prefilter = std::make_unique<gcx::ProjectedEventFilter>(dfa.get());
    }
    gcx::XmlEvent event;
    do {
      if (!scanner.Next(&event).ok()) return -1;
      ++counts->events;
      if (prefilter != nullptr) {
        auto action = prefilter->Apply(event);
        if (!action.ok()) return -1;
        if (*action == gcx::ProjectedEventFilter::Action::kForward) {
          ++counts->forwarded;
        }
      }
    } while (event.kind != gcx::XmlEvent::Kind::kEndOfDocument);
    counts->bytes += scanner.bytes_consumed();
    counts->backend = static_cast<int>(scanner.simd_backend());
    if (dfa != nullptr) {
      counts->merged_dfa_states =
          std::max<uint64_t>(counts->merged_dfa_states, dfa->num_states());
    }
  }
  return SecondsBetween(start, Clock::now());
}

struct SoloCounts {
  uint64_t pulls = 0;
  uint64_t nodes_created = 0;
  uint64_t nodes_purged = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_nodes_visited = 0;
  uint64_t bytes_peak = 0;
  uint64_t text_arena_peak = 0;
  uint64_t elements_read = 0;
  uint64_t elements_kept = 0;
  uint64_t dfa_states = 0;
  uint64_t output_bytes = 0;
  uint64_t failed = 0;
  uint64_t runs = 0;
};

/// Engine::Execute of every solo query over every document.
double SoloPass(const Workload& w, SoloCounts* counts) {
  *counts = SoloCounts();
  gcx::Engine engine;
  CheckingBuf sink;
  std::ostream out(&sink);
  double seconds = 0;
  for (size_t t = 0; t < w.texts().size(); ++t) {
    for (size_t d = 0; d < w.docs().size(); ++d) {
      sink.Reset(&w.Reference(t, d));
      Clock::time_point start = Clock::now();
      auto stats = engine.Execute(w.compiled(t), w.docs()[d].bytes, &out);
      seconds += SecondsBetween(start, Clock::now());
      ++counts->runs;
      if (!stats.ok() || !sink.Matches() || stats->live_roles_final != 0 ||
          stats->buffer_nodes_final != 1) {
        ++counts->failed;
        continue;
      }
      // Each evaluator pull advances the projector by one event.
      counts->pulls += stats->events_delivered;
      counts->nodes_created += stats->buffer.nodes_created;
      counts->nodes_purged += stats->buffer.nodes_purged;
      counts->gc_runs += stats->buffer.gc_runs;
      counts->gc_nodes_visited += stats->buffer.gc_nodes_visited;
      counts->bytes_peak =
          std::max(counts->bytes_peak, stats->buffer.bytes_peak);
      counts->text_arena_peak = std::max(counts->text_arena_peak,
                                         stats->buffer.text_arena_peak_bytes);
      counts->elements_read += stats->projector.elements_read;
      counts->elements_kept += stats->projector.elements_kept;
      counts->dfa_states = std::max(counts->dfa_states, stats->dfa_states);
      counts->output_bytes += stats->output_bytes;
    }
  }
  return seconds;
}

struct BatchCounts {
  uint64_t replay_log_peak = 0;
  uint64_t replay_arena_peak = 0;
  uint64_t events_demuxed = 0;
  uint64_t events_forwarded = 0;
  uint64_t failed = 0;
  uint64_t runs = 0;
};

/// MultiQueryEngine::Execute of the batch over every document.
double BatchPass(const Workload& w, BatchCounts* counts) {
  *counts = BatchCounts();
  gcx::MultiQueryEngine engine;
  std::vector<const CompiledQuery*> queries = BatchQueries(w);
  double seconds = 0;
  for (size_t d = 0; d < w.docs().size(); ++d) {
    BatchSinks sinks(w, d);
    Clock::time_point start = Clock::now();
    auto stats = engine.Execute(queries, w.docs()[d].bytes, sinks.outs);
    seconds += SecondsBetween(start, Clock::now());
    counts->runs += queries.size();
    if (!stats.ok()) {
      counts->failed += queries.size();
      continue;
    }
    counts->failed += sinks.Mismatches();
    const gcx::SharedScanStats& shared = stats->shared;
    counts->replay_log_peak =
        std::max(counts->replay_log_peak, shared.replay_log_peak);
    counts->replay_arena_peak =
        std::max(counts->replay_arena_peak, shared.replay_arena_peak_bytes);
    counts->events_demuxed += shared.events_demuxed;
    counts->events_forwarded += shared.events_forwarded;
  }
  return seconds;
}

struct AdmissionCounts {
  std::vector<double> submit_seconds;
  double run_seconds = 0;
  double run_seconds_single = 0;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t batches = 0;
  gcx::QueryCacheStats cache;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A fresh QueryCache and AdmissionController with the workload's documents
/// registered as stored content.
class Admission {
 public:
  Admission(const Workload& w, size_t shards)
      : controller(&cache, Limits(shards)), w_(w) {
    for (const Doc& doc : w.docs()) {
      controller.RegisterDocument(doc.id, std::string(doc.bytes));
    }
  }

  /// Submits the batch over every document, runs it and checks every
  /// output. Adds to `counts` (which keeps the sharded run's timings when
  /// `sharded`).
  void RunRound(bool sharded, AdmissionCounts* counts) {
    struct Submission {
      size_t text;
      size_t doc;
    };
    std::vector<Submission> round;
    for (size_t d = 0; d < w_.docs().size(); ++d) {
      for (size_t t = 0; t < w_.texts().size(); ++t) round.push_back({t, d});
    }
    while (sinks_.size() < round.size()) {
      sinks_.push_back(std::make_unique<CheckingBuf>());
      streams_.push_back(std::make_unique<std::ostream>(sinks_.back().get()));
    }
    std::vector<bool> admitted(round.size(), false);
    for (size_t s = 0; s < round.size(); ++s) {
      sinks_[s]->Reset(&w_.Reference(round[s].text, round[s].doc));
      Clock::time_point start = Clock::now();
      gcx::Status status =
          controller.Submit(w_.texts()[round[s].text], gcx::EngineOptions(),
                            w_.docs()[round[s].doc].id, streams_[s].get());
      if (sharded) {
        counts->submit_seconds.push_back(SecondsBetween(start, Clock::now()));
      }
      admitted[s] = status.ok();
    }
    Clock::time_point start = Clock::now();
    auto run = controller.Run();
    double seconds = SecondsBetween(start, Clock::now());
    (sharded ? counts->run_seconds : counts->run_seconds_single) += seconds;
    counts->attempted += round.size();
    if (!run.ok()) {
      counts->failed += round.size();
      return;
    }
    // A shed or rejected submission leaves its output short of the
    // reference, so each failure counts once here.
    for (size_t s = 0; s < round.size(); ++s) {
      if (!admitted[s] || !sinks_[s]->Matches()) ++counts->failed;
    }
    if (sharded) {
      counts->queries += run->queries;
      counts->batches += run->batches;
    }
  }

  gcx::QueryCache cache;
  gcx::AdmissionController controller;

 private:
  static gcx::AdmissionLimits Limits(size_t shards) {
    gcx::AdmissionLimits limits;
    limits.shards = shards;
    return limits;
  }

  const Workload& w_;
  std::vector<std::unique_ptr<CheckingBuf>> sinks_;
  std::vector<std::unique_ptr<std::ostream>> streams_;
};

/// Two admission rounds at ShardCount() shards and at one shard.
void AdmissionPass(const Workload& w, AdmissionCounts* counts) {
  Admission sharded(w, ShardCount());
  Admission single(w, 1);
  for (int r = 0; r < 2; ++r) {
    sharded.RunRound(true, counts);
    single.RunRound(false, counts);
    ++counts->rounds;
  }
  counts->cache = sharded.cache.stats();
}

struct ShardCounts {
  double plan_seconds = 0;
  double scan_cpu_seconds = 0;
  double scan_wall_seconds = 0;
  double skew = 0;  ///< max over documents
  uint64_t local_queries = 0;
  uint64_t failed = 0;
  uint64_t runs = 0;
};

/// PlanShards, serial and parallel ScanShard, and ExecuteSharded over
/// every document.
void ShardPass(const Workload& w, ShardCounts* counts) {
  *counts = ShardCounts();
  gcx::ShardOptions options;
  options.shards = ShardCount();
  std::vector<gcx::MergedDfaInput> inputs = DfaInputs(w);
  gcx::ScannerOptions scanner_options = gcx::EngineOptions().scanner;
  gcx::MultiQueryEngine engine;
  std::vector<const CompiledQuery*> queries = BatchQueries(w);
  for (size_t d = 0; d < w.docs().size(); ++d) {
    const std::string& doc = w.docs()[d].bytes;
    Clock::time_point start = Clock::now();
    gcx::ShardPlan plan = gcx::PlanShards(doc, options);
    counts->plan_seconds += SecondsBetween(start, Clock::now());
    if (plan.sharded) {
      gcx::SymbolTable tags;
      std::vector<double> slice_seconds;
      for (size_t i = 0; i < plan.slices.size(); ++i) {
        gcx::ShardScanResult result;
        Clock::time_point slice_start = Clock::now();
        gcx::ScanShard(doc, plan.slices[i], scanner_options, inputs, &tags,
                       options, &result, i);
        slice_seconds.push_back(SecondsBetween(slice_start, Clock::now()));
        if (!result.status.ok()) ++counts->failed;
      }
      double total = 0;
      double slowest = 0;
      for (double s : slice_seconds) {
        total += s;
        slowest = std::max(slowest, s);
      }
      counts->scan_cpu_seconds += total;
      counts->skew = std::max(counts->skew,
                              slowest / (total / slice_seconds.size()));

      std::vector<gcx::ShardScanResult> results(plan.slices.size());
      start = Clock::now();
      std::vector<std::thread> workers;
      for (size_t i = 0; i < plan.slices.size(); ++i) {
        workers.emplace_back([&, i] {
          gcx::ScanShard(doc, plan.slices[i], scanner_options, inputs, &tags,
                         options, &results[i], i);
        });
      }
      for (std::thread& worker : workers) worker.join();
      counts->scan_wall_seconds += SecondsBetween(start, Clock::now());
      for (const gcx::ShardScanResult& result : results) {
        if (!result.status.ok()) ++counts->failed;
      }
    }
    BatchSinks sinks(w, d);
    auto stats = engine.ExecuteSharded(queries, doc, sinks.outs, options);
    counts->runs += queries.size();
    if (!stats.ok()) {
      counts->failed += queries.size();
      continue;
    }
    counts->failed += sinks.Mismatches();
    counts->local_queries += stats->shared.shard_local_queries;
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

std::vector<Metric> MeasureLayers(Workload* w, double seconds,
                                  uint64_t* attempted, uint64_t* failed) {
  // The workload's own loop with operations alternately untraced and
  // traced (whole-call spans around each entry point); the pair of an
  // untraced and a traced operation runs the same input.
  Tracer tracer;
  LoopResult untraced;
  LoopResult traced;
  OpStats warm = w->RunOp(nullptr);
  *attempted += warm.results + warm.failed;
  *failed += warm.failed;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * 0.5));
  for (size_t i = 0; i < 4 || Clock::now() < deadline; ++i) {
    bool trace = i % 2 == 1;
    LoopResult* loop = trace ? &traced : &untraced;
    Clock::time_point start = Clock::now();
    OpStats op = w->RunOp(trace ? &tracer : nullptr);
    Absorb(op, SecondsBetween(start, Clock::now()), loop);
  }
  for (const LoopResult* loop : {&untraced, &traced}) {
    *attempted += loop->totals.results + loop->totals.failed;
    *failed += loop->totals.failed;
  }

  // Allocations per scanner event over one more operation, counted apart
  // from the timed ones: the shared counter is contended when shard
  // workers allocate.
  gcx::MetricsCounter* scanner_events =
      gcx::MetricsRegistry::Global().Counter("scanner.events_total");
  uint64_t events_before = scanner_events->value();
  uint64_t allocs = 0;
  {
    AllocCounterScope scope;
    OpStats op = w->RunOp(nullptr);
    allocs = scope.count();
    *attempted += op.results + op.failed;
    *failed += op.failed;
  }
  uint64_t loop_events = scanner_events->value() - events_before;

  const double probe_budget = seconds * 0.08;

  ScanCounts scan;
  double scan_s = Median(Repeat(probe_budget, [&] {
    return ScanPass(*w, false, &scan);
  }));
  ScanCounts filtered;
  double scan_filter_s = Median(Repeat(probe_budget, [&] {
    return ScanPass(*w, true, &filtered);
  }));
  SoloCounts solo;
  double solo_s = Median(Repeat(probe_budget, [&] {
    return SoloPass(*w, &solo);
  }));
  BatchCounts batch;
  double batch_s = Median(Repeat(probe_budget, [&] {
    return BatchPass(*w, &batch);
  }));
  double compile_s = Median(Repeat(probe_budget, [&] {
    Clock::time_point start = Clock::now();
    for (const std::string& text : w->texts()) {
      if (!CompiledQuery::Compile(text).ok()) return -1.0;
    }
    return SecondsBetween(start, Clock::now());
  }));
  AdmissionCounts admission;
  AdmissionPass(*w, &admission);
  ShardCounts shard;
  std::vector<double> plan_times;
  std::vector<double> cpu_times;
  std::vector<double> wall_times;
  Repeat(probe_budget, [&] {
    Clock::time_point start = Clock::now();
    ShardPass(*w, &shard);
    plan_times.push_back(shard.plan_seconds);
    cpu_times.push_back(shard.scan_cpu_seconds);
    wall_times.push_back(shard.scan_wall_seconds);
    return SecondsBetween(start, Clock::now());
  });
  *attempted += solo.runs + batch.runs + admission.attempted + shard.runs;
  *failed += solo.failed + batch.failed + admission.failed + shard.failed;
  if (scan_s <= 0 || scan_filter_s <= 0 || compile_s <= 0) ++*failed;

  const double n_queries = static_cast<double>(w->texts().size());
  const double prefilter_s = scan_filter_s - scan_s;
  const double post_scan_s = solo_s - n_queries * scan_s;
  const double post_prefilter_s = batch_s - scan_filter_s;
  const double untraced_op = untraced.wall_seconds / untraced.ops;
  std::vector<double> submits = admission.submit_seconds;
  const double stage_sum = n_queries * scan_s + post_scan_s;

  std::printf("traced loop spans (per call):\n");
  for (const auto& [name, total] : tracer.totals()) {
    std::printf("  %-30s %8llu calls %12.4f ms\n", name.c_str(),
                static_cast<unsigned long long>(total.count),
                total.seconds / total.count * 1e3);
  }
  std::printf("untraced wall per operation %.6f s, stage sum %.6f s\n",
              untraced_op, stage_sum);

  return {
      {"xml.scan_s", scan_s, "s"},
      {"xml.scan_mb_s", Ratio(scan.bytes / 1e6, scan_s), "MB/s"},
      {"xml.events", static_cast<double>(scan.events), "count"},
      {"xml.simd_backend", static_cast<double>(scan.backend), "id"},
      {"xml.output_bytes", static_cast<double>(solo.output_bytes), "bytes"},
      {"projection.prefilter_s", prefilter_s, "s"},
      {"projection.forward_ratio",
       Ratio(filtered.forwarded, filtered.events), "ratio"},
      {"projection.merged_dfa_states",
       static_cast<double>(filtered.merged_dfa_states), "count"},
      {"projection.keep_ratio", Ratio(solo.elements_kept, solo.elements_read),
       "ratio"},
      {"analysis.dfa_states", static_cast<double>(solo.dfa_states), "count"},
      {"engine.post_scan_s", post_scan_s, "s"},
      {"engine.scan_share", Ratio(n_queries * scan_s, solo_s), "ratio"},
      {"eval.pulls", static_cast<double>(solo.pulls), "count"},
      {"buffer.nodes_created", static_cast<double>(solo.nodes_created),
       "count"},
      {"buffer.nodes_purged", static_cast<double>(solo.nodes_purged), "count"},
      {"buffer.gc_runs", static_cast<double>(solo.gc_runs), "count"},
      {"buffer.gc_nodes_visited", static_cast<double>(solo.gc_nodes_visited),
       "count"},
      {"buffer.gc_visits_per_purge",
       Ratio(solo.gc_nodes_visited, solo.nodes_purged), "ratio"},
      {"buffer.bytes_peak", static_cast<double>(solo.bytes_peak), "bytes"},
      {"buffer.text_arena_peak_bytes",
       static_cast<double>(solo.text_arena_peak), "bytes"},
      {"demux.post_prefilter_s", post_prefilter_s, "s"},
      {"demux.replay_log_peak", static_cast<double>(batch.replay_log_peak),
       "count"},
      {"demux.events_forwarded", static_cast<double>(batch.events_forwarded),
       "count"},
      {"demux.replay_arena_peak_bytes",
       static_cast<double>(batch.replay_arena_peak), "bytes"},
      {"demux.events_demuxed", static_cast<double>(batch.events_demuxed),
       "count"},
      {"analysis.compile_ms", compile_s / n_queries * 1e3, "ms"},
      {"query_cache.hit_ratio",
       Ratio(admission.cache.hits + admission.cache.canonical_hits,
             admission.cache.lookups),
       "ratio"},
      {"query_cache.compiles", static_cast<double>(admission.cache.compiles),
       "count"},
      {"admission.submit_us", Median(submits) * 1e6, "us"},
      {"admission.run_s", admission.run_seconds / admission.rounds, "s"},
      {"admission.batches",
       static_cast<double>(admission.batches) / admission.rounds, "count"},
      {"admission.queries_per_batch",
       Ratio(admission.queries, admission.batches), "count"},
      {"shard.plan_s", Median(plan_times), "s"},
      {"shard.scan_cpu_s", Median(cpu_times), "s"},
      {"shard.scan_wall_s", Median(wall_times), "s"},
      {"shard.skew", shard.skew, "ratio"},
      {"shard.local_queries", static_cast<double>(shard.local_queries),
       "count"},
      {"shard.speedup_vs_single",
       Ratio(admission.run_seconds_single, admission.run_seconds), "ratio"},
      {"alloc.per_event", Ratio(allocs, loop_events), "ratio"},
      {"trace.overhead", Ratio(traced.wall_seconds, untraced.wall_seconds),
       "ratio"},
      {"trace.untraced_wall_s", untraced_op, "s"},
      {"trace.stage_sum_s", stage_sum, "s"},
  };
}

}  // namespace perfbench
