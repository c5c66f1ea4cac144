// Replaces the global allocation functions so the benchmark can count heap
// allocations in every thread of the process, including threads the xmlq
// libraries start (morsel lanes, server workers). Each thread adds into one
// of a fixed set of cache-line-sized shards, picked once per thread, so the
// count costs an uncontended relaxed add instead of a shared atomic.

#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr unsigned kShards = 64;

struct alignas(64) Shard {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};
};

Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};

Shard& MyShard() {
  thread_local Shard* shard =
      &g_shards[g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards];
  return *shard;
}

void Count(std::size_t size) {
  Shard& s = MyShard();
  s.calls.fetch_add(1, std::memory_order_relaxed);
  s.bytes.fetch_add(size, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count(size);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  // aligned_alloc wants a size that is a multiple of the alignment.
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

AllocCount AllocSnapshot() {
  AllocCount total;
  for (const Shard& s : g_shards) {
    total.calls += s.calls.load(std::memory_order_relaxed);
    total.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
