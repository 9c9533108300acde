// Microbenchmarks of the raw substrate primitives (google-benchmark).
//
// These underpin the table benches: the asymmetry between ContextSwitch
// (save + restore) and ContextJump (restore only) is the machine-level fact
// behind the stack-handoff optimization.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "src/base/queue.h"
#include "src/base/rng.h"
#include "src/base/spinlock.h"
#include "src/machine/context.h"
#include "src/machine/stack.h"

namespace mkc {
namespace {

constexpr std::size_t kStackSize = 64 * 1024;

struct PingPong {
  Context main_ctx;
  Context other_ctx;
  bool stop = false;
};

void PartnerEntry(void* /*pass*/, void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) {
    ContextSwitch(&pp->other_ctx, pp->main_ctx, nullptr);
  }
}

// One full save/restore round trip between two contexts.
void BM_ContextSwitchRoundTrip(benchmark::State& state) {
  std::vector<std::uint8_t> stack(kStackSize);
  PingPong pp;
  Context fresh = MakeContext(stack.data(), stack.size(), &PartnerEntry, &pp);
  ContextSwitch(&pp.main_ctx, fresh, nullptr);  // Partner now parked.
  for (auto _ : state) {
    ContextSwitch(&pp.main_ctx, pp.other_ctx, nullptr);
  }
  // Leave the partner suspended; its stack dies with this frame.
}
BENCHMARK(BM_ContextSwitchRoundTrip);

struct JumpState {
  Context main_ctx;
};

void JumpBackEntry(void* pass, void* /*arg*/) {
  auto* js = static_cast<JumpState*>(pass);
  ContextJump(js->main_ctx, nullptr);
}

// MakeContext + restore-only jump: the CallContinuation pattern.
void BM_MakeContextAndJump(benchmark::State& state) {
  std::vector<std::uint8_t> stack(kStackSize);
  JumpState js;
  for (auto _ : state) {
    Context fresh = MakeContext(stack.data(), stack.size(), &JumpBackEntry, nullptr);
    ContextSwitch(&js.main_ctx, fresh, &js);
  }
}
BENCHMARK(BM_MakeContextAndJump);

// Fresh-stack entry + restore-only jump back: the TrapEnter pattern (and,
// minus the save, CallContinuation's). No frame is built.
void BM_SwitchFreshAndJumpBack(benchmark::State& state) {
  std::vector<std::uint8_t> stack(kStackSize);
  JumpState js;
  for (auto _ : state) {
    ContextSwitchFresh(&js.main_ctx, stack.data(), stack.size(), &JumpBackEntry, nullptr, &js);
  }
}
BENCHMARK(BM_SwitchFreshAndJumpBack);

// Frame construction alone.
void BM_MakeContext(benchmark::State& state) {
  std::vector<std::uint8_t> stack(kStackSize);
  for (auto _ : state) {
    Context c = MakeContext(stack.data(), stack.size(), &JumpBackEntry, nullptr);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MakeContext);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

struct BenchNode {
  QueueEntry link;
};

void BM_IntrusiveQueueEnqueueDequeue(benchmark::State& state) {
  IntrusiveQueue<BenchNode, &BenchNode::link> queue;
  BenchNode node;
  for (auto _ : state) {
    queue.EnqueueTail(&node);
    benchmark::DoNotOptimize(queue.DequeueHead());
  }
}
BENCHMARK(BM_IntrusiveQueueEnqueueDequeue);

void BM_KernelStackAllocate(benchmark::State& state) {
  for (auto _ : state) {
    KernelStack stack(16 * 1024);
    benchmark::DoNotOptimize(stack.base());
  }
}
BENCHMARK(BM_KernelStackAllocate);

void BM_Rng(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_Rng);

}  // namespace
}  // namespace mkc

BENCHMARK_MAIN();
