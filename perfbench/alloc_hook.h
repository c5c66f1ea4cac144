#ifndef PERFBENCH_ALLOC_HOOK_H_
#define PERFBENCH_ALLOC_HOOK_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through global operator new (every form, every
/// thread of this process) since the process started. The counters live in
/// alloc_hook.cc, which replaces the global allocation functions.
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
};

AllocCount AllocSnapshot();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_HOOK_H_
