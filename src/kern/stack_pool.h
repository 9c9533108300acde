// The kernel stack pool.
//
// Under MK40 stacks flow constantly between threads, so allocation and free
// must be cheap: freed stacks park on a small cache (the paper's
// `stack_free_list`). The pool also keeps the statistics behind §3.4's
// headline numbers — stacks in use over time ("the number of kernel stacks
// was, on average, 2.002") and the high-water mark.
#ifndef MACHCONT_SRC_KERN_STACK_POOL_H_
#define MACHCONT_SRC_KERN_STACK_POOL_H_

#include <cstddef>
#include <cstdint>

#include "src/base/queue.h"
#include "src/base/spinlock.h"
#include "src/machine/stack.h"

namespace mkc {

struct StackPoolStats {
  std::uint64_t allocs = 0;        // Allocate() calls.
  std::uint64_t frees = 0;         // Free() calls.
  std::uint64_t cache_hits = 0;    // Allocations served from the free cache.
  std::uint64_t created = 0;       // Fresh host allocations.
  std::uint64_t destroyed = 0;     // Stacks released back to the host.
  std::uint64_t in_use = 0;        // Currently attached or in transit.
  std::uint64_t max_in_use = 0;    // High-water mark.
  std::uint64_t max_cached = 0;    // High-water mark of the free cache.
  // Time-averaged in-use count, sampled at every block (§3.4 methodology).
  std::uint64_t samples = 0;
  std::uint64_t sample_sum = 0;

  double AverageInUse() const {
    return samples == 0 ? 0.0 : static_cast<double>(sample_sum) / static_cast<double>(samples);
  }
};

class StackPool {
 public:
  StackPool(std::size_t stack_bytes, std::size_t cache_limit)
      : stack_bytes_(stack_bytes), cache_limit_(cache_limit) {}

  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // Returns a stack, from the cache when possible. The cache is LIFO: the
  // most recently freed (cache-warm) stack is handed out first.
  KernelStack* Allocate();

  // Returns `stack` to the cache (or to the host if the cache is full).
  void Free(KernelStack* stack);

  // Accounting for the per-CPU stack caches that sit in front of this pool
  // when the kernel simulates more than one processor. A stack recycled
  // through a CPU-local cache never touches the pool's free list, but it is
  // still an allocation/free of a pooled stack, so the global stats (and the
  // §3.4 in-use invariant) must see it.
  void NoteCacheAllocate();
  void NoteCacheFree();

  // Records one sample of the in-use count for the §3.4 average. This is
  // instrumentation, read on every block, not pool state that Allocate/Free
  // depend on; the simulation runs on one host thread, so it takes no lock.
  void SampleInUse() {
    ++stats_.samples;
    stats_.sample_sum += stats_.in_use;
  }

  const StackPoolStats& stats() const { return stats_; }
  std::size_t stack_bytes() const { return stack_bytes_; }
  std::size_t cached() const { return cache_.Size(); }

  void ResetStats();

  // Observer invoked after every Allocate/Free with the new pool shape; the
  // kernel installs one (to emit kStackPoolSize trace events) only when
  // tracing is enabled, so a disabled trace pays nothing here.
  using TraceHook = void (*)(void* ctx, std::uint64_t in_use, std::uint64_t cached);
  void SetTraceHook(TraceHook hook, void* ctx) {
    trace_hook_ = hook;
    trace_ctx_ = ctx;
  }

 private:
  std::size_t stack_bytes_;
  std::size_t cache_limit_;
  SpinLock lock_;
  IntrusiveQueue<KernelStack, &KernelStack::pool_link> cache_;
  StackPoolStats stats_;
  TraceHook trace_hook_ = nullptr;
  void* trace_ctx_ = nullptr;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_KERN_STACK_POOL_H_
