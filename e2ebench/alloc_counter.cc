#include "e2ebench/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

void* CountedAlloc(std::size_t n) noexcept {
  e2e::AllocCounters& c = e2e::g_alloc_counters;
  if (c.enabled.load(std::memory_order_relaxed)) {
    c.allocs.fetch_add(1, std::memory_order_relaxed);
    c.bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
