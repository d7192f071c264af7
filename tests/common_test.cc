// Unit tests for src/common: Status/Result, SymbolTable, Pool, Prng,
// string utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/pool.h"
#include "common/prng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/symbol_table.h"

namespace gcx {
namespace {

// --- Status ---------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = ParseError("bad token");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.message(), "bad token");
  EXPECT_EQ(status.ToString(), "ParseError: bad token");
}

TEST(Status, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(UnsupportedError("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(AnalysisError("x").code(), StatusCode::kAnalysisError);
  EXPECT_EQ(EvalError("x").code(), StatusCode::kEvalError);
  EXPECT_EQ(IoError("x").code(), StatusCode::kIoError);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(ParseError("a"), ParseError("a"));
  EXPECT_FALSE(ParseError("a") == ParseError("b"));
  EXPECT_FALSE(ParseError("a") == EvalError("a"));
}

TEST(Status, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kEvalError), "EvalError");
}

// --- Result ----------------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> result(41);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 41);
  EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> result = EvalError("boom");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "boom");
}

TEST(Result, MoveOnlyValues) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 7);
}

Result<int> Half(int n) {
  if (n % 2 != 0) return InvalidArgumentError("odd");
  return n / 2;
}

Result<int> Quarter(int n) {
  GCX_ASSIGN_OR_RETURN(int half, Half(n));
  GCX_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());   // 3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

Status FailWhenNegative(int n) {
  GCX_RETURN_IF_ERROR(n < 0 ? EvalError("negative") : Status::Ok());
  return Status::Ok();
}

TEST(Result, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailWhenNegative(1).ok());
  EXPECT_FALSE(FailWhenNegative(-1).ok());
}

// --- SymbolTable -------------------------------------------------------------

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable table;
  TagId a = table.Intern("bib");
  TagId b = table.Intern("book");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("bib"), a);
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTable, LookupWithoutIntern) {
  SymbolTable table;
  EXPECT_EQ(table.Lookup("ghost"), kInvalidTag);
  table.Intern("ghost");
  EXPECT_NE(table.Lookup("ghost"), kInvalidTag);
}

TEST(SymbolTable, NameRoundTrip) {
  SymbolTable table;
  TagId id = table.Intern("title");
  EXPECT_EQ(table.Name(id), "title");
  EXPECT_EQ(table.Name(kInvalidTag), "#none");
}

TEST(SymbolTable, DenseIds) {
  SymbolTable table;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Intern("t" + std::to_string(i)), i);
  }
}

TEST(SymbolTable, NameViewsStableAcrossGrowth) {
  // NameView hands out views into block storage that must survive arbitrary
  // later interning (the scanner's local cache and event.name rely on it).
  SymbolTable table;
  TagId first = table.Intern("first");
  std::string_view view = table.NameView(first);
  for (int i = 0; i < 5000; ++i) {
    table.Intern("grow" + std::to_string(i));
  }
  EXPECT_EQ(view, "first");
  EXPECT_EQ(table.NameView(first).data(), view.data());
}

TEST(SymbolTable, ConcurrentInterningIsConsistent) {
  // Racing scanners intern overlapping vocabularies into one shared table
  // (the multi-engine batch / concurrent-admission sharing pattern). Every
  // thread must observe one id per spelling and a correct reverse mapping.
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kTags = 200;
  std::vector<std::vector<TagId>> seen(kThreads,
                                       std::vector<TagId>(kTags, kInvalidTag));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&table, &seen, t] {
        Prng prng(1234u + static_cast<uint64_t>(t));
        auto intern_one = [&](int tag) {
          std::string name = "tag" + std::to_string(tag);
          TagId id = table.Intern(name);
          EXPECT_EQ(table.Name(id), name);  // lock-free read path
          EXPECT_EQ(table.Lookup(name), id);
          if (seen[t][tag] == kInvalidTag) {
            seen[t][tag] = id;
          } else {
            EXPECT_EQ(seen[t][tag], id);  // stable within a thread
          }
        };
        for (int round = 0; round < 3; ++round) {
          for (int i = 0; i < kTags; ++i) {
            // Randomized order so threads collide on first-sight interning.
            intern_one(static_cast<int>(prng.Next() % kTags));
          }
        }
        // Deterministic sweep so every thread records every tag.
        for (int tag = 0; tag < kTags; ++tag) intern_one(tag);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kTags));
  for (int tag = 0; tag < kTags; ++tag) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][tag], seen[0][tag]);  // and across threads
    }
  }
}

// --- ByteArena ----------------------------------------------------------------

TEST(ByteArena, AppendCopiesAndViewsStay) {
  ByteArena arena(64);
  uint32_t c1, c2;
  std::string one = "hello";
  std::string_view v1 = arena.Append(one, &c1);
  one = "clobbered";
  std::string_view v2 = arena.Append("world", &c2);
  EXPECT_EQ(v1, "hello");
  EXPECT_EQ(v2, "world");
  EXPECT_EQ(arena.stats().bytes_live, 10u);
  EXPECT_EQ(arena.stats().bytes_peak, 10u);
}

TEST(ByteArena, EmptyAppendIsNullChunk) {
  ByteArena arena;
  uint32_t chunk;
  std::string_view v = arena.Append("", &chunk);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(chunk, ByteArena::kNullChunk);
  arena.Release(chunk, 0);  // must be a no-op
  EXPECT_EQ(arena.stats().bytes_live, 0u);
}

TEST(ByteArena, ChunkRecyclingBoundsMemory) {
  // FIFO append/release (the replay-log pattern): far more bytes than the
  // arena may retain flow through, but chunks recycle so the reserved
  // backing stays ~one chunk.
  ByteArena arena(128);
  std::vector<std::pair<uint32_t, size_t>> live;
  for (int i = 0; i < 1000; ++i) {
    uint32_t chunk;
    std::string payload(17, static_cast<char>('a' + i % 26));
    arena.Append(payload, &chunk);
    live.push_back({chunk, payload.size()});
    if (live.size() > 3) {
      arena.Release(live.front().first, live.front().second);
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(arena.stats().bytes_appended, 17000u);
  EXPECT_LE(arena.stats().bytes_peak, 4u * 17u);
  // A handful of 128-byte chunks suffice for 17KB of traffic.
  EXPECT_LE(arena.stats().bytes_reserved, 512u);
  EXPECT_GT(arena.stats().chunks_recycled, 0u);
}

TEST(ByteArena, OversizedPayloadGetsDedicatedChunk) {
  ByteArena arena(32);
  uint32_t small_chunk, big_chunk;
  arena.Append("tiny", &small_chunk);
  std::string big(1000, 'b');
  std::string_view v = arena.Append(big, &big_chunk);
  EXPECT_EQ(v, big);
  EXPECT_NE(small_chunk, big_chunk);
  arena.Release(big_chunk, big.size());
  arena.Release(small_chunk, 4);
  EXPECT_EQ(arena.stats().bytes_live, 0u);
}

TEST(ByteArena, PeakTracksHighWater) {
  ByteArena arena(64);
  uint32_t a, b;
  arena.Append(std::string(40, 'x'), &a);
  arena.Append(std::string(40, 'y'), &b);
  arena.Release(a, 40);
  EXPECT_EQ(arena.stats().bytes_peak, 80u);
  EXPECT_EQ(arena.stats().bytes_live, 40u);
}

// --- Pool --------------------------------------------------------------------

struct Tracked {
  explicit Tracked(int* counter) : counter(counter) { ++*counter; }
  ~Tracked() { --*counter; }
  int* counter;
  char payload[48];
};

TEST(Pool, AllocateConstructsAndFreeDestroys) {
  int live = 0;
  Pool<Tracked, 4> pool;
  Tracked* a = pool.Allocate(&live);
  Tracked* b = pool.Allocate(&live);
  EXPECT_EQ(live, 2);
  EXPECT_EQ(pool.live(), 2u);
  pool.Free(a);
  pool.Free(b);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, RecyclesSlots) {
  int live = 0;
  Pool<Tracked, 2> pool;
  Tracked* a = pool.Allocate(&live);
  pool.Free(a);
  Tracked* b = pool.Allocate(&live);
  EXPECT_EQ(a, b);  // freelist reuse
  pool.Free(b);
}

TEST(Pool, GrowsAcrossChunks) {
  int live = 0;
  Pool<Tracked, 2> pool;
  std::vector<Tracked*> objs;
  for (int i = 0; i < 100; ++i) objs.push_back(pool.Allocate(&live));
  EXPECT_EQ(live, 100);
  EXPECT_GE(pool.reserved_bytes(), 100 * sizeof(Tracked));
  for (Tracked* obj : objs) pool.Free(obj);
  EXPECT_EQ(live, 0);
}

// --- Prng --------------------------------------------------------------------

TEST(Prng, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Prng, BetweenIsInclusive) {
  Prng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, ChanceExtremes) {
  Prng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0));
    EXPECT_TRUE(rng.Chance(1000));
  }
}

// --- strings ------------------------------------------------------------------

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \n"), "a b");
  EXPECT_EQ(TrimWhitespace("\t\r\n "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(Strings, IsAllWhitespace) {
  EXPECT_TRUE(IsAllWhitespace(""));
  EXPECT_TRUE(IsAllWhitespace(" \t\r\n"));
  EXPECT_FALSE(IsAllWhitespace(" x "));
}

TEST(Strings, ParseNumberAccepts) {
  EXPECT_DOUBLE_EQ(*ParseNumber("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("  -3.5 "), -3.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("0.0"), 0.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("+2"), 2.0);
  EXPECT_DOUBLE_EQ(*ParseNumber(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("5."), 5.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("-1.25E-2"), -0.0125);
  EXPECT_DOUBLE_EQ(*ParseNumber("\t7\n"), 7.0);
  // Out of range keeps strtod's rounding.
  EXPECT_TRUE(std::isinf(*ParseNumber("1e999")));
  EXPECT_DOUBLE_EQ(*ParseNumber("1e-999"), 0.0);
}

TEST(Strings, ParseNumberRejects) {
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("  ").has_value());
  EXPECT_FALSE(ParseNumber("12abc").has_value());
  EXPECT_FALSE(ParseNumber("1 2").has_value());
  EXPECT_FALSE(ParseNumber("person0").has_value());
  // Only the decimal form is a number; strtod's extensions are not.
  for (const char* text : {"0x10", "0X1p3", "inf", "-Infinity", "INF", "nan",
                           "NaN", "+nan", ".", "+", "-", "e5", "1e", "1e+",
                           "1.2.3", "--1", "+-1", "1_000"}) {
    EXPECT_FALSE(ParseNumber(text).has_value()) << text;
  }
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, FormatNumberIntegersAndFractions) {
  EXPECT_EQ(FormatNumber(0), "0");
  EXPECT_EQ(FormatNumber(-3), "-3");
  EXPECT_EQ(FormatNumber(6.5), "6.5");
}

TEST(Strings, FormatNumberNonFinite) {
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(FormatNumber(std::numeric_limits<double>::infinity()), "Infinity");
  EXPECT_EQ(FormatNumber(-std::numeric_limits<double>::infinity()),
            "-Infinity");
}

TEST(Strings, FormatNumberLargeIntegersKeepAllDigits) {
  // Exactly representable integers above 2^53 must render in full, not
  // collapse to %g scientific notation.
  EXPECT_EQ(FormatNumber(9007199254740994.0), "9007199254740994");  // 2^53+2
  EXPECT_EQ(FormatNumber(1e18), "1000000000000000000");
  EXPECT_EQ(FormatNumber(-1e18), "-1000000000000000000");
  // Beyond long long range the cast is skipped (no UB) and %g takes over.
  EXPECT_EQ(FormatNumber(1e19), "1e+19");
}

}  // namespace
}  // namespace gcx
