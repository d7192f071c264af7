// Heap-allocation counting for the per-layer `alloc.per_event` metric.
//
// alloc_counter.cc replaces the global operator new/delete for the whole
// benchmark binary. Counting is off until an AllocCounterScope is alive, so
// document generation, compilation and reference computation are excluded.
// The technique is the one bench/bench_util.h uses; the benchmark keeps its
// own copy so that its numbers do not depend on files outside perfbench/.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace perfbench {

extern std::atomic<uint64_t> g_alloc_count;
extern std::atomic<int> g_alloc_scopes;

/// RAII window: heap allocations made (on any thread) while a scope is
/// alive are counted.
class AllocCounterScope {
 public:
  AllocCounterScope() {
    start_ = g_alloc_count.load(std::memory_order_relaxed);
    g_alloc_scopes.fetch_add(1, std::memory_order_relaxed);
  }
  ~AllocCounterScope() { g_alloc_scopes.fetch_sub(1, std::memory_order_relaxed); }
  AllocCounterScope(const AllocCounterScope&) = delete;
  AllocCounterScope& operator=(const AllocCounterScope&) = delete;

  uint64_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed) - start_;
  }

 private:
  uint64_t start_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
