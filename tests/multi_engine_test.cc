// Unit tests for multi-query batched execution (src/core/multi_engine):
// batched output must be byte-identical to solo output for every query in
// the batch, the input must be scanned exactly once, the merged-DFA
// prefilter must skip subtrees no query needs, and the Sec. 3 safety
// requirements must hold per batched query.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/merged_projection.h"
#include "common/budget.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "core/multi_engine.h"
#include "projection/merged_dfa.h"
#include "test_sources.h"

namespace gcx {
namespace {

struct Batch {
  std::vector<CompiledQuery> compiled;
  std::vector<const CompiledQuery*> pointers;
};

Batch CompileBatch(const std::vector<std::string>& queries,
                   const EngineOptions& options = {}) {
  Batch batch;
  batch.compiled.reserve(queries.size());
  for (const std::string& text : queries) {
    auto compiled = CompiledQuery::Compile(text, options);
    GCX_CHECK(compiled.ok());
    batch.compiled.push_back(std::move(compiled).value());
  }
  for (const CompiledQuery& query : batch.compiled) {
    batch.pointers.push_back(&query);
  }
  return batch;
}

std::string SoloOutput(const CompiledQuery& query, const std::string& doc) {
  Engine engine;
  std::ostringstream out;
  auto stats = engine.Execute(query, doc, &out);
  GCX_CHECK(stats.ok());
  return out.str();
}

/// Runs the batch and checks every query's output against its solo run.
MultiQueryStats RunAndCompare(const Batch& batch, const std::string& doc) {
  std::vector<std::ostringstream> streams(batch.pointers.size());
  std::vector<std::ostream*> outs;
  for (std::ostringstream& s : streams) outs.push_back(&s);
  MultiQueryEngine engine;
  auto stats = engine.Execute(batch.pointers, doc, outs);
  GCX_CHECK(stats.ok());
  for (size_t i = 0; i < batch.pointers.size(); ++i) {
    EXPECT_EQ(streams[i].str(), SoloOutput(*batch.pointers[i], doc))
        << "query " << i << " diverges from its solo run";
  }
  return std::move(stats).value();
}

const char kDoc[] =
    "<site>"
    "<people><person><name>alice</name><age>7</age></person>"
    "<person><name>bob</name><age>9</age></person></people>"
    "<items><item><price>3</price></item><item><price>5</price></item>"
    "</items>"
    "<noise><blob>xxxxxxxx</blob><blob>yyyyyyyy</blob></noise>"
    "</site>";

TEST(MultiEngine, BatchMatchesSoloOutputs) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ for $p in /site/people/person return "
      "if ($p/age > 8) then $p/name else () }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  ASSERT_EQ(stats.per_query.size(), 4u);

  // One shared pass over the raw input; no query paid a private pass.
  EXPECT_EQ(stats.shared.scan_passes, 1u);
  EXPECT_EQ(stats.shared.bytes_scanned, std::string(kDoc).size());
  for (const ExecStats& q : stats.per_query) {
    EXPECT_EQ(q.scan_passes, 0u);
  }

  // Sec. 3 safety requirements per batched query (GC is on by default).
  for (const ExecStats& q : stats.per_query) {
    EXPECT_EQ(q.live_roles_final, 0u);
    EXPECT_EQ(q.buffer.roles_assigned, q.buffer.roles_removed);
  }
}

TEST(MultiEngine, ReusedEngineReportsPerRunStats) {
  // SharedScanStats/MultiQueryStats are per-Execute returns: a second
  // Execute on the same engine must report the run from zero rather than
  // accumulate the first run's counters.
  Batch batch = CompileBatch({
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ for $p in /site/people/person return $p/name }</r>",
  });
  MultiQueryEngine engine;
  auto run_once = [&]() -> MultiQueryStats {
    std::vector<std::ostringstream> streams(batch.pointers.size());
    std::vector<std::ostream*> outs;
    for (std::ostringstream& s : streams) outs.push_back(&s);
    auto stats = engine.Execute(batch.pointers, kDoc, outs);
    GCX_CHECK(stats.ok());
    for (size_t i = 0; i < batch.pointers.size(); ++i) {
      EXPECT_EQ(streams[i].str(), SoloOutput(*batch.pointers[i], kDoc)) << i;
    }
    return std::move(stats).value();
  };
  MultiQueryStats first = run_once();
  MultiQueryStats second = run_once();
  EXPECT_EQ(second.shared.scan_passes, 1u);
  EXPECT_EQ(second.shared.scan_passes, first.shared.scan_passes);
  EXPECT_EQ(second.shared.bytes_scanned, first.shared.bytes_scanned);
  EXPECT_EQ(second.shared.events_scanned, first.shared.events_scanned);
  EXPECT_EQ(second.shared.events_forwarded, first.shared.events_forwarded);
  EXPECT_EQ(second.shared.events_demuxed, first.shared.events_demuxed);
  EXPECT_EQ(second.shared.replay_log_peak, first.shared.replay_log_peak);
  ASSERT_EQ(second.per_query.size(), first.per_query.size());
  for (size_t i = 0; i < second.per_query.size(); ++i) {
    EXPECT_EQ(second.per_query[i].events_delivered,
              first.per_query[i].events_delivered)
        << i;
    EXPECT_EQ(second.per_query[i].output_bytes, first.per_query[i].output_bytes)
        << i;
  }
}

TEST(MultiEngine, PrefilterSkipsSubtreesNoQueryNeeds) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  // The <noise> subtree matches neither projection: the merged DFA must
  // drop it before it reaches any per-query projector.
  EXPECT_GE(stats.shared.shared_subtrees_skipped, 1u);
  EXPECT_GT(stats.shared.events_shared_skipped, 0u);
  EXPECT_EQ(stats.shared.events_scanned,
            stats.shared.events_forwarded + stats.shared.events_shared_skipped);
  // Every query sees only forwarded events.
  for (const ExecStats& q : stats.per_query) {
    EXPECT_LE(q.events_delivered, stats.shared.events_forwarded);
  }
}

TEST(MultiEngine, SingleQueryBatchMatchesSolo) {
  Batch batch =
      CompileBatch({"<r>{ for $i in /site/items/item return $i/price }</r>"});
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  EXPECT_EQ(stats.shared.scan_passes, 1u);
}

TEST(MultiEngine, DuplicateQueriesProduceIdenticalOutputs) {
  Batch batch = CompileBatch({
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
      "<r>{ sum(/site/items/item/price) }</r>",
  });
  RunAndCompare(batch, kDoc);
}

TEST(MultiEngine, AllStandardConfigsMatchSolo) {
  const std::vector<std::string> queries = {
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
      "<r>{ $root }</r>",
  };
  for (const NamedEngineConfig& config : StandardEngineConfigs()) {
    Batch batch = CompileBatch(queries, config.options);
    MultiQueryStats stats = RunAndCompare(batch, kDoc);
    EXPECT_EQ(stats.shared.scan_passes, 1u) << config.name;
  }
}

TEST(MultiEngine, WholeDocumentQueryDisablesSharedSkipping) {
  // {$root} keeps everything via an aggregate role on the root: nothing may
  // be skipped, and the other query must still see its data.
  Batch batch = CompileBatch({
      "<r>{ $root }</r>",
      "<r>{ count(/site/noise/blob) }</r>",
  });
  MultiQueryStats stats = RunAndCompare(batch, kDoc);
  EXPECT_EQ(stats.shared.shared_subtrees_skipped, 0u);
}

TEST(MultiEngine, MixedModeBatchIsRejected) {
  auto streaming = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", {});
  EngineOptions dom;
  dom.mode = EngineMode::kNaiveDom;
  auto naive = CompiledQuery::Compile("<r>{ count(/a/b) }</r>", dom);
  ASSERT_TRUE(streaming.ok() && naive.ok());
  std::ostringstream o1, o2;
  MultiQueryEngine engine;
  auto stats = engine.Execute({&*streaming, &*naive}, "<a><b/></a>",
                              {&o1, &o2});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiEngine, EmptyBatchIsRejected) {
  MultiQueryEngine engine;
  auto stats = engine.Execute({}, "<a/>", {});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiEngine, MalformedInputFailsTheBatch) {
  Batch batch = CompileBatch({
      "<r>{ count(/a/b) }</r>",
      "<r>{ for $x in /a/b return $x }</r>",
  });
  std::ostringstream o1, o2;
  MultiQueryEngine engine;
  auto stats = engine.Execute(batch.pointers, "<a><b></a>", {&o1, &o2});
  EXPECT_FALSE(stats.ok());
}

TEST(MultiQueryRun, PollableSingletonEvaluatesWithGcUnderTheArenaBudget) {
  // A lone query routed through MultiQueryRun (how the admission scheduler
  // executes a pollable singleton) must behave like its solo run: the
  // evaluator replays the pumped log with signOff-driven GC, so the buffer
  // peak equals the solo peak, and the retained log is charged to the
  // arena budget, so a budget smaller than the projected stream trips.
  std::string doc = "<site><items>";
  for (int i = 0; i < 8000; ++i) {
    doc += "<item><price>5</price><desc>";
    doc.append(64, 'x');
    doc += "</desc></item>";
  }
  doc += "</items></site>";

  Batch batch =
      CompileBatch({"<r>{ for $i in /site/items/item return $i/desc }</r>"});
  Engine engine;
  std::ostringstream solo_out;
  auto solo = engine.Execute(*batch.pointers.front(), doc, &solo_out);
  ASSERT_TRUE(solo.ok());

  auto source_for = [&doc](size_t stall_every) -> std::unique_ptr<ByteSource> {
    if (stall_every == 0) return std::make_unique<StringSource>(doc);
    return std::make_unique<WouldBlockEveryNSource>(doc, stall_every);
  };
  // Steps `run` to kDone or kFailed; kStalled sources are ready again on
  // the very next read.
  auto finish = [](MultiQueryRun& run) {
    MultiQueryRun::State state = run.Step();
    while (state == MultiQueryRun::State::kStalled ||
           state == MultiQueryRun::State::kRunnable) {
      state = run.Step();
    }
    return state;
  };

  for (size_t stall_every : {size_t{0}, size_t{4096}}) {
    std::ostringstream out;
    MultiQueryRun run(batch.pointers, source_for(stall_every), {&out});
    ASSERT_EQ(finish(run), MultiQueryRun::State::kDone)
        << run.status().message();
    auto stats = run.TakeStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(out.str(), solo_out.str()) << "stall_every=" << stall_every;
    EXPECT_EQ(stats->per_query[0].buffer.bytes_peak,
              solo->buffer.bytes_peak)
        << "stall_every=" << stall_every;

    RunBudget budget;
    budget.max_arena_bytes = 65536;
    RunGovernor governor(budget);
    std::ostringstream budgeted_out;
    MultiQueryRun budgeted(batch.pointers, source_for(stall_every),
                           {&budgeted_out}, &governor);
    ASSERT_EQ(finish(budgeted), MultiQueryRun::State::kFailed)
        << "stall_every=" << stall_every;
    EXPECT_EQ(budgeted.status().ToString(),
              "ResourceExhausted: arena byte budget of 65536 bytes exceeded");
  }
}

#ifndef GCX_METRICS_OFF
TEST(MultiEngineMetrics, EveryRunPublishesExactlyOnce) {
  // Whichever path executes a batch, it publishes one batch.runs_total
  // sample and one engine.runs_total sample per query into the global
  // registry — never zero, never twice.
  auto counter = [](const char* name) {
    std::map<std::string, uint64_t> snap = MetricsRegistry::Global().Snapshot();
    auto it = snap.find(name);
    return it == snap.end() ? uint64_t{0} : it->second;
  };
  auto expect_published_once = [&](const std::string& label, size_t queries,
                                   const std::function<void()>& run) {
    uint64_t batches = counter("batch.runs_total");
    uint64_t engines = counter("engine.runs_total");
    run();
    EXPECT_EQ(counter("batch.runs_total") - batches, 1u) << label;
    EXPECT_EQ(counter("engine.runs_total") - engines, queries) << label;
  };

  Batch pair = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ count(/site/items/item) }</r>",
  });
  Batch single = CompileBatch({"<r>{ count(/site/items/item) }</r>"});
  MultiQueryEngine engine;

  expect_published_once("Execute N=2", 2, [&] {
    std::ostringstream o1, o2;
    ASSERT_TRUE(engine.Execute(pair.pointers, kDoc, {&o1, &o2}).ok());
  });

  for (const Batch* batch : {&single, &pair}) {
    const size_t n = batch->pointers.size();
    expect_published_once("MultiQueryRun N=" + std::to_string(n), n, [&] {
      std::vector<std::ostringstream> streams(n);
      std::vector<std::ostream*> outs;
      for (std::ostringstream& stream : streams) outs.push_back(&stream);
      MultiQueryRun run(batch->pointers,
                        std::make_unique<WouldBlockEveryNSource>(kDoc, 16),
                        outs);
      MultiQueryRun::State state = run.Step();
      while (state == MultiQueryRun::State::kStalled) state = run.Step();
      ASSERT_EQ(state, MultiQueryRun::State::kDone) << run.status().message();
      ASSERT_TRUE(run.TakeStats().ok());
    });
  }

  // A document the planner can split: the count query evaluates inside the
  // shard workers, the $root-reading loop replays the merged logs.
  std::string items = "<site><items>";
  for (int i = 0; i < 300; ++i) {
    items += "<item><price>" + std::to_string(i % 7) + "</price></item>";
  }
  items += "</items></site>";
  Batch mixed = CompileBatch({
      "<c>{ count(/site/items/item) }</c>",
      "<r>{ for $i in /site/items/item return "
      "<o>{ count(/site/items/item) }</o> }</r>",
  });
  ShardOptions shard_options;
  shard_options.shards = 4;
  shard_options.min_shard_bytes = 1;
  expect_published_once("ExecuteSharded local + replay", 2, [&] {
    std::ostringstream o1, o2;
    auto stats =
        engine.ExecuteSharded(mixed.pointers, items, {&o1, &o2}, shard_options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->shared.shards, 0u);
    EXPECT_EQ(stats->shared.shard_local_queries, 1u);
  });

  ShardOptions declined = shard_options;
  declined.min_shard_bytes = items.size();  // too small to split in four
  expect_published_once("ExecuteSharded planner decline", 2, [&] {
    std::ostringstream o1, o2;
    auto stats =
        engine.ExecuteSharded(mixed.pointers, items, {&o1, &o2}, declined);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->shared.shards, 0u);
  });
}
#endif

TEST(MergedProjection, SummarizesSharedAndPrivatePaths) {
  Batch batch = CompileBatch({
      "<r>{ for $p in /site/people/person return $p/name }</r>",
      "<r>{ for $p in /site/people/person return $p/age }</r>",
  });
  std::vector<const ProjectionTree*> trees;
  for (const CompiledQuery* q : batch.pointers) {
    trees.push_back(&q->analyzed().projection);
  }
  MergedProjectionStats stats = SummarizeMergedProjection(trees);
  // site/people/person prefix chains are shared; name vs age tails differ.
  EXPECT_GT(stats.shared_paths, 0u);
  EXPECT_GT(stats.private_paths, 0u);
  EXPECT_EQ(stats.union_paths, stats.shared_paths + stats.private_paths);
  ASSERT_EQ(stats.per_query_paths.size(), 2u);
  EXPECT_GT(stats.SharedFraction(), 0.0);
}

TEST(MergedDfa, ProductStatesCombinePerQueryDfas) {
  Batch batch = CompileBatch({
      "<r>{ count(/a/b) }</r>",
      "<r>{ count(/a/c) }</r>",
  });
  std::vector<MergedDfaInput> inputs;
  for (const CompiledQuery* q : batch.pointers) {
    inputs.push_back({&q->analyzed().projection, &q->analyzed().roles});
  }
  SymbolTable tags;
  MergedDfa dfa(inputs, &tags);
  ASSERT_EQ(dfa.num_queries(), 2u);
  MergedDfa::State* a = dfa.Transition(dfa.initial(), tags.Intern("a"));
  ASSERT_EQ(a->parts.size(), 2u);
  EXPECT_FALSE(a->skippable);
  // Under <a>, <z> is dead for both queries; <b> is alive for the first.
  MergedDfa::State* z = dfa.Transition(a, tags.Intern("z"));
  EXPECT_TRUE(z->skippable);
  MergedDfa::State* b = dfa.Transition(a, tags.Intern("b"));
  EXPECT_FALSE(b->skippable);
  // Memoization: the same transition yields the same state object.
  EXPECT_EQ(dfa.Transition(dfa.initial(), tags.Intern("a")), a);
  EXPECT_GE(dfa.num_states(), 3u);
}

}  // namespace
}  // namespace gcx
