// Shared types of the repository benchmark.
//
// The benchmark runs one workload per invocation (see workloads.cc for the
// workloads and why each was chosen). An untraced run measures the
// end-to-end metrics; a traced run (layers.cc) measures the per-layer ones.
// Every call into the engine goes through a public entry point and is timed
// from outside.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Harrell-Davis estimate of the q-quantile (q in [0, 1]) of `values`; 0
/// when empty. It weights every order statistic by a beta density around
/// rank q*n instead of reading one or two of them, so it stays steady where
/// the samples have a gap at the quantile: solo_stream's latencies are four
/// query classes, and its median falls between the two fast ones and the
/// two slow ones.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Output sink that compares the bytes an engine writes against a
/// reference as they arrive, so checking a result costs no copy of it.
class CheckingBuf : public std::streambuf {
 public:
  void Reset(const std::string* reference) {
    reference_ = reference;
    pos_ = 0;
    ok_ = true;
  }
  /// True when exactly the reference was written.
  bool Matches() const {
    return ok_ && reference_ != nullptr && pos_ == reference_->size();
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Check(s, static_cast<size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      char ch = traits_type::to_char_type(c);
      Check(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void Check(const char* s, size_t n) {
    if (ok_ && (reference_ == nullptr || pos_ + n > reference_->size() ||
                std::memcmp(reference_->data() + pos_, s, n) != 0)) {
      ok_ = false;
    }
    pos_ += n;
  }

  const std::string* reference_ = nullptr;
  uint64_t pos_ = 0;
  bool ok_ = true;
};

/// One named document of a workload.
struct Doc {
  std::string id;
  std::string bytes;
};

/// What one closed-loop operation (one pass of the queries) produced.
struct OpStats {
  std::vector<double> latencies;  ///< seconds, one per result
  uint64_t results = 0;           ///< query results completed
  uint64_t failed = 0;            ///< mismatches and execution errors
  uint64_t served_bytes = 0;      ///< document bytes each result covers
  /// Sum of per-query BufferStats::bytes_peak.
  uint64_t held_bytes = 0;
};

/// Whole-call spans, recorded by the benchmark around the calls into each
/// layer and aggregated by name in memory.
class Tracer {
 public:
  struct Total {
    uint64_t count = 0;
    double seconds = 0;
  };
  void Span(const char* layer, Clock::time_point start, Clock::time_point end) {
    Total& total = totals_[layer];
    ++total.count;
    total.seconds += SecondsBetween(start, end);
  }
  const std::map<std::string, Total>& totals() const { return totals_; }

 private:
  std::map<std::string, Total> totals_;
};

/// A benchmark workload: one generated document, the queries streamed
/// over it, their reference outputs, and one closed-loop operation. The
/// per-layer probes (layers.cc) run the same document and queries through
/// single layers.
class Workload {
 public:
  Workload(std::vector<std::string> texts, double factor, uint64_t seed);

  /// One cold set-up: fresh compilations of the workload's queries.
  /// Returns its wall seconds, or a negative value on failure.
  double SetUpOnce() const;
  /// One closed-loop operation: one Engine::Execute per query, every
  /// output checked. `tracer` (may be null) receives whole-call spans.
  OpStats RunOp(Tracer* tracer);

  /// Compiles every text and computes every reference output (NaiveDom
  /// evaluation, Theorem 1) before timing starts. Returns false (with
  /// `*error`) on failure.
  bool Prepare(std::string* error);

  const std::vector<Doc>& docs() const { return docs_; }
  const std::vector<std::string>& texts() const { return texts_; }
  const gcx::CompiledQuery& compiled(size_t text) const {
    return compiled_[text];
  }
  /// Reference output of texts()[text] over docs()[doc].
  const std::string& Reference(size_t text, size_t doc) const {
    return references_.at({text, doc});
  }
  /// Flips one byte of one reference, so that the gate must fail.
  void CorruptReference();

 private:
  std::vector<Doc> docs_;
  std::vector<std::string> texts_;
  std::vector<gcx::CompiledQuery> compiled_;
  std::map<std::pair<size_t, size_t>, std::string> references_;
  gcx::Engine engine_;
  CheckingBuf sink_;
  std::ostream out_{&sink_};
};

/// Builds workload `name` from `seed`; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Totals of a closed loop of RunOp calls.
struct LoopResult {
  uint64_t ops = 0;
  double wall_seconds = 0;  ///< summed over operations
  OpStats totals;           ///< held_bytes is the maximum over operations
  /// Per-operation rates: document MB served and results completed per
  /// second of that operation.
  std::vector<double> mb_per_s;
  std::vector<double> results_per_s;
  /// Checked but untimed results and failures (the warm-up operation).
  uint64_t untimed_results = 0;
  uint64_t untimed_failed = 0;
  /// Cold set-up times sampled between operations (RunLoop only), and the
  /// number of set-ups that failed.
  std::vector<double> setup_seconds;
  uint64_t setup_failed = 0;
};

/// Folds one operation that took `seconds` into `result`.
void Absorb(const OpStats& op, double seconds, LoopResult* result);

/// Runs one untimed warm-up operation, then RunOp in a closed loop until
/// `seconds` have passed, sampling cold set-ups between operations.
LoopResult RunLoop(Workload* workload, double seconds);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs the traced run of `workload`: whole-call spans plus isolation
/// passes, within about `seconds`. Failed checks are added to `*failed`.
std::vector<Metric> MeasureLayers(Workload* workload, double seconds,
                                  uint64_t* attempted, uint64_t* failed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
