#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace perfbench {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<int> g_alloc_scopes{0};
}  // namespace perfbench

namespace {

void CountOne() {
  if (perfbench::g_alloc_scopes.load(std::memory_order_relaxed) > 0) {
    perfbench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountOne();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// Over-aligned forms, so an aligned allocation cannot bypass the counter.
void* operator new(std::size_t size, std::align_val_t align) {
  CountOne();
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc precondition
  void* p = std::aligned_alloc(a, rounded ? rounded : a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
