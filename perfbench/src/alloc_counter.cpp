// Allocation counter for nn.allocs_per_step, linked into the traced binary
// only (qhdl_perfbench_traced), so untraced runs and their pipe workers use
// the library's own operator new.
//
// Replacing the global operator new makes every allocation in this binary —
// the library included — bump a thread-local count; a trivially-constructed
// thread_local needs no initialization, so this is safe from any thread at
// any time.
#include <cstdlib>
#include <new>

#include "trace.hpp"

namespace {
thread_local std::uint64_t tls_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++tls_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// The whole unaligned family is replaced, so every pointer these deletes
// see came from malloc (the aligned overloads stay the library's, paired
// among themselves).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tls_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t thread_allocations() { return tls_allocations; }
bool counts_allocations() { return true; }

}  // namespace perfbench
