#include "src/kern/stack_pool.h"

#include <algorithm>

#include "src/base/panic.h"

namespace mkc {

StackPool::~StackPool() {
  MKC_ASSERT_MSG(stats_.in_use == 0, "stack pool destroyed with %llu stacks still in use",
                 static_cast<unsigned long long>(stats_.in_use));
  while (KernelStack* stack = cache_.DequeueHead()) {
    delete stack;
  }
}

KernelStack* StackPool::Allocate() {
  KernelStack* stack;
  {
    SpinLockGuard guard(lock_);
    ++stats_.allocs;
    stack = cache_.DequeueHead();
    if (stack != nullptr) {
      ++stats_.cache_hits;
    } else {
      stack = new KernelStack(stack_bytes_);
      ++stats_.created;
    }
    ++stats_.in_use;
    stats_.max_in_use = std::max(stats_.max_in_use, stats_.in_use);
  }
  if (trace_hook_ != nullptr) {
    trace_hook_(trace_ctx_, stats_.in_use, cache_.Size());
  }
  return stack;
}

void StackPool::Free(KernelStack* stack) {
  MKC_ASSERT(stack != nullptr);
  stack->CheckCanary();
  stack->owner = nullptr;
  {
    SpinLockGuard guard(lock_);
    ++stats_.frees;
    MKC_ASSERT(stats_.in_use > 0);
    --stats_.in_use;
    if (cache_.Size() < cache_limit_) {
      // LIFO: Allocate pops the head, so push the head. The just-freed stack
      // is the one whose lines are still warm in the cache.
      cache_.EnqueueHead(stack);
      stats_.max_cached = std::max(stats_.max_cached, static_cast<std::uint64_t>(cache_.Size()));
    } else {
      delete stack;
      ++stats_.destroyed;
    }
  }
  if (trace_hook_ != nullptr) {
    trace_hook_(trace_ctx_, stats_.in_use, cache_.Size());
  }
}

void StackPool::NoteCacheAllocate() {
  SpinLockGuard guard(lock_);
  ++stats_.allocs;
  ++stats_.cache_hits;
  ++stats_.in_use;
  stats_.max_in_use = std::max(stats_.max_in_use, stats_.in_use);
}

void StackPool::NoteCacheFree() {
  SpinLockGuard guard(lock_);
  ++stats_.frees;
  MKC_ASSERT(stats_.in_use > 0);
  --stats_.in_use;
}

void StackPool::ResetStats() {
  SpinLockGuard guard(lock_);
  std::uint64_t in_use = stats_.in_use;
  stats_ = StackPoolStats{};
  stats_.in_use = in_use;
  stats_.max_in_use = in_use;
}

}  // namespace mkc
