// The untraced binary (qhdl_perfbench) counts no allocations: it keeps the
// library's own operator new (see alloc_counter.cpp for the traced one).
#include "trace.hpp"

namespace perfbench {

std::uint64_t thread_allocations() { return 0; }
bool counts_allocations() { return false; }

}  // namespace perfbench
