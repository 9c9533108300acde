// Implementation of the Figure 3 machine-dependent control-transfer
// interface for the simulated machine.
#include "src/machine/machdep.h"

#include <cstring>

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/kern/kernel.h"
#include "src/kern/processor.h"
#include "src/machine/context.h"
#include "src/machine/cost_model.h"
#include "src/machine/cycle_model.h"
#include "src/task/task.h"

namespace mkc {
namespace {

// Changes the loaded address translation when the new thread belongs to a
// different task. Kernel-internal threads (task == nullptr) run against
// whatever map is loaded, as in the real kernel.
MKC_TRANSFER_PATH void PmapActivate(Kernel& k, Thread* new_thread) {
  Task* new_task = new_thread->task;
  if (new_task == nullptr || new_task == k.processor().loaded_task) {
    return;
  }
  k.processor().loaded_task = new_task;
  // Modeled TLB/root-pointer switch cost.
  k.cost_model().Account(CostOp::kPmapActivate, 2, 2);
  k.ChargeCycles(kCycPmapActivate);
  new_task->pmap.NoteActivation();
}

// Entry shim for freshly attached stacks: recovers the StackStartFn that
// StackAttach installed.
MKC_TRANSFER_PATH void AttachEntry(void* pass, void* arg) {
  auto* self = static_cast<Thread*>(arg);
  auto* old_thread = static_cast<Thread*>(pass);
  StackStartFn start = self->md.attach_start;
  self->md.attach_start = nullptr;
  MKC_ASSERT(start != nullptr);
  start(old_thread, self);
  Panic("stack start routine returned");
}

// Entry shim for CallContinuation's stack reset.
MKC_TRANSFER_PATH void ContinuationEntry(void* /*pass*/, void* arg) {
  auto* self = static_cast<Thread*>(arg);
  Continuation cont = self->md.pending_continuation;
  self->md.pending_continuation = nullptr;
  MKC_ASSERT(cont != nullptr);
  cont();
  Panic("continuation returned");
}

// The simulated machine's live kernel register files, one per CPU. A full
// context switch spills the invoking CPU's file to the outgoing thread's
// save area and refills it from the incoming thread's — real memory traffic
// a stack handoff never performs.
std::uint64_t g_live_kernel_regs[kMaxCpus][kKernelSaveAreaWords];

MKC_TRANSFER_PATH void SaveKernelRegs(Kernel& k, Thread* thread) {
  std::memcpy(thread->md.kernel_save_area, g_live_kernel_regs[k.processor().id],
              sizeof(g_live_kernel_regs[0]));
}

MKC_TRANSFER_PATH void RestoreKernelRegs(Kernel& k, Thread* thread) {
  std::memcpy(g_live_kernel_regs[k.processor().id], thread->md.kernel_save_area,
              sizeof(g_live_kernel_regs[0]));
}

// Resume-side half of the block-to-resume latency measurement: the blocking
// paths stamp Thread::block_start, and the two transfer primitives observe
// it here when the thread next gets the processor. Idle blocks have no
// registered histogram (null slot), so they cost one load and branch.
MKC_TRANSFER_PATH void RecordResumeLatency(Kernel& k, Thread* new_thread) {
  // Scheduler latency: stamped by ThreadSetrunOn (wakeup) or the preempt
  // requeue paths, consumed here when the thread actually gets a processor.
  // The recording shard is the *dispatching* CPU's — the CPU that paid the
  // scheduling delay.
  if (new_thread->runnable_start != 0) {
    Ticks delay = k.LatencyNow() - new_thread->runnable_start;
    LatencyHistogram* sched =
        new_thread->runnable_from == RunnableFrom::kWakeup
            ? k.processor().lat_wakeup_to_run
            : k.processor().lat_runq_wait;
    if (sched != nullptr) {
      sched->Record(delay);
    }
    new_thread->runnable_start = 0;
    new_thread->runnable_from = RunnableFrom::kNone;
  }
  if (new_thread->block_start == 0) {
    return;
  }
  Ticks start = new_thread->block_start;
  new_thread->block_start = 0;
  LatencyHistogram* hist =
      k.lat().block_to_resume[static_cast<int>(new_thread->block_reason)];
  if (hist != nullptr) {
    // block_start was stamped with LatencyNow (the machine frontier), so
    // measure against the same source: this CPU's clock may lag the stamp
    // when the thread was stolen across CPUs.
    hist->Record(k.LatencyNow() - start);
  }
}

}  // namespace

MKC_TRANSFER_PATH void StackAttach(Thread* thread, KernelStack* stack, StackStartFn start) {
  Kernel& k = ActiveKernel();
  MKC_ASSERT(thread->kernel_stack == nullptr);
  MKC_ASSERT(stack != nullptr);
  stack->owner = thread;
  thread->kernel_stack = stack;
  thread->md.attach_start = start;
  thread->md.kernel_ctx = MakeContext(stack->base(), stack->size(), AttachEntry, thread);
  // Frame construction: ~8 word stores.
  k.cost_model().Account(CostOp::kStackAttach, 0, 8);
  k.ChargeCycles(kCycStackAttach);
  // The attach belongs to the subject thread's request, not whoever happens
  // to be running (e.g. the scheduler attaching on a wakeup's behalf).
  k.TracePointSpan(thread->span_id, TraceEvent::kStackAttachEvt, thread->id);
}

MKC_TRANSFER_PATH KernelStack* StackDetach(Thread* thread) {
  Kernel& k = ActiveKernel();
  KernelStack* stack = thread->kernel_stack;
  MKC_ASSERT(stack != nullptr);
  thread->kernel_stack = nullptr;
  stack->owner = nullptr;
  k.cost_model().Account(CostOp::kStackDetach, 1, 2);
  k.ChargeCycles(kCycStackDetach);
  k.TracePointSpan(thread->span_id, TraceEvent::kStackDetachEvt, thread->id);
  return stack;
}

MKC_TRANSFER_PATH void StackHandoff(Thread* new_thread) {
  Kernel& k = ActiveKernel();
  Thread* old_thread = CurrentThread();
  Ticks transfer_start = k.clock().Now();
  MKC_ASSERT(new_thread != old_thread);
  MKC_ASSERT_MSG(old_thread->kernel_stack != nullptr, "handoff from a stackless thread");
  MKC_ASSERT_MSG(new_thread->kernel_stack == nullptr,
                 "handoff target already owns a kernel stack");
  MKC_ASSERT_MSG(!new_thread->md.kernel_ctx.valid(),
                 "handoff target has a preserved kernel context");

  // The entire machine-level cost of a handoff: pointer surgery plus an
  // address-space switch when the tasks differ. No register traffic — this
  // is the 83-instruction column of Table 4.
  KernelStack* stack = old_thread->kernel_stack;
  old_thread->kernel_stack = nullptr;
  stack->owner = new_thread;
  new_thread->kernel_stack = stack;

  PmapActivate(k, new_thread);
  k.processor().active_thread = new_thread;
  new_thread->last_cpu = k.processor().id;
  new_thread->quantum_start = k.clock().Now();
  k.cost_model().Account(CostOp::kStackHandoff, 3, 4);
  k.ChargeCycles(kCycStackHandoff);
  k.lat().transfer_handoff->Record(k.clock().Now() - transfer_start);
  RecordResumeLatency(k, new_thread);
  // Execution continues in the caller's frame, now owned by new_thread
  // ("stack_handoff returns as the new thread").
}

MKC_TRANSFER_PATH [[noreturn]] void CallContinuation(Continuation cont) {
  Kernel& k = ActiveKernel();
  Thread* thread = CurrentThread();
  MKC_ASSERT(cont != nullptr);
  MKC_ASSERT(thread->kernel_stack != nullptr);
  thread->md.pending_continuation = cont;
  // The modeled cost is the DS3100's: its call_continuation stores an
  // ~8-word frame at the stack base. The host builds no frame at all.
  k.cost_model().Account(CostOp::kCallContinuation, 0, 8);
  k.ChargeCycles(kCycCallContinuation);
  k.NoteContResume(cont);
  k.TracePoint(TraceEvent::kCallContinuation);
  // Reset to the base of the current stack, discarding all frames above —
  // this is what keeps arbitrarily long continuation chains from
  // overflowing the (single) kernel stack.
  ContextJumpFresh(thread->kernel_stack->base(), thread->kernel_stack->size(),
                   ContinuationEntry, thread, nullptr);
}

MKC_TRANSFER_PATH Thread* SwitchContext(Continuation cont, Thread* new_thread) {
  Kernel& k = ActiveKernel();
  Thread* old_thread = CurrentThread();
  Ticks transfer_start = k.clock().Now();
  MKC_ASSERT(new_thread != old_thread);
  MKC_ASSERT(old_thread->kernel_stack != nullptr);
  MKC_ASSERT_MSG(new_thread->kernel_stack != nullptr,
                 "switch to a stackless thread (attach a stack first)");
  MKC_ASSERT(new_thread->md.kernel_ctx.valid());

  PmapActivate(k, new_thread);
  k.processor().active_thread = new_thread;
  new_thread->last_cpu = k.processor().id;
  new_thread->state = ThreadState::kRunning;
  new_thread->quantum_start = k.clock().Now();

  Context target = new_thread->md.kernel_ctx;
  new_thread->md.kernel_ctx.reset();

  if (cont != nullptr) {
    // The caller blocked with a continuation: nothing of this flow is worth
    // saving. Restore-only switch.
    RestoreKernelRegs(k, new_thread);
    k.cost_model().Account(CostOp::kContextSwitch,
                           kKernelSaveAreaWords + kContextSwitchSavedWords, 0);
    k.ChargeCycles(kCycContextSwitchNoSave);
    k.TracePoint(TraceEvent::kSwitchContext, new_thread->id, 1);
    k.lat().transfer_switch->Record(k.clock().Now() - transfer_start);
    RecordResumeLatency(k, new_thread);
    ContextJump(target, old_thread);
  }

  // Full save and restore — the 250-instruction column of Table 4.
  SaveKernelRegs(k, old_thread);
  RestoreKernelRegs(k, new_thread);
  k.cost_model().Account(CostOp::kContextSwitch,
                         kKernelSaveAreaWords + kContextSwitchSavedWords,
                         kKernelSaveAreaWords + kContextSwitchSavedWords);
  k.ChargeCycles(kCycContextSwitch);
  k.TracePoint(TraceEvent::kSwitchContext, new_thread->id, 0);
  k.lat().transfer_switch->Record(k.clock().Now() - transfer_start);
  RecordResumeLatency(k, new_thread);
  void* pass = ContextSwitch(&old_thread->md.kernel_ctx, target, old_thread);
  // Rescheduled: `pass` is the thread that was running before us.
  return static_cast<Thread*>(pass);
}

MKC_TRANSFER_PATH [[noreturn]] void ThreadSyscallReturn(KernReturn value) {
  Kernel& k = ActiveKernel();
  Thread* thread = CurrentThread();
  MKC_ASSERT(thread->state == ThreadState::kRunning);

  // Exit register-restore policy (§3.3): MK40 must reload the aggressively
  // saved callee-saved registers from the MD structure; MK32's epilogue
  // restores them from the (per-thread) stack.
  if (k.UsesContinuations()) {
    std::memcpy(&thread->md.user_regs[kFullRegisterFileWords - kCalleeSavedRegs],
                thread->md.callee_saved_area, sizeof(thread->md.callee_saved_area));
    k.cost_model().Account(CostOp::kSyscallExit, 12 + kCalleeSavedRegs, 1);
    k.ChargeCycles(kCycSyscallExitMk40);
  } else {
    k.cost_model().Account(CostOp::kSyscallExit, 11, 1);
    k.ChargeCycles(kCycSyscallExitMk32);
  }

  // LRPC-style override (§4): return out of the kernel to a context other
  // than the one that was active at kernel entry.
  if (thread->md.user_continuation_override != nullptr) {
    auto target = thread->md.user_continuation_override;
    thread->md.user_ctx.reset();
    ContextJumpFresh(thread->md.user_stack, static_cast<std::size_t>(thread->md.user_stack_size),
                     [](void* pass, void* arg) {
                       auto fn = reinterpret_cast<void (*)(std::uint64_t)>(arg);
                       fn(reinterpret_cast<std::uint64_t>(pass));
                       Panic("user continuation override returned");
                     },
                     reinterpret_cast<void*>(target),
                     reinterpret_cast<void*>(
                         static_cast<std::uintptr_t>(static_cast<std::uint32_t>(value))));
  }

  k.TracePoint(TraceEvent::kSyscallReturn, static_cast<std::uint32_t>(value));
  Context user = thread->md.user_ctx;
  MKC_ASSERT_MSG(user.valid(), "syscall return with no saved user context");
  thread->md.user_ctx.reset();
  ContextJump(user, reinterpret_cast<void*>(
                        static_cast<std::uintptr_t>(static_cast<std::uint32_t>(value))));
}

MKC_TRANSFER_PATH [[noreturn]] void ThreadExceptionReturn() {
  Kernel& k = ActiveKernel();
  Thread* thread = CurrentThread();
  MKC_ASSERT(thread->state == ThreadState::kRunning);

  // Exceptions restore the full user register file in every model (§3.3:
  // "For exceptions and interrupts, the kernel entry routine must preserve
  // all user registers").
  k.cost_model().Account(CostOp::kExceptionExit, kFullRegisterFileWords, 1);
  k.ChargeCycles(kCycExceptionExit);

  k.TracePoint(TraceEvent::kExceptionReturn);
  Context user = thread->md.user_ctx;
  MKC_ASSERT_MSG(user.valid(), "exception return with no saved user context");
  thread->md.user_ctx.reset();
  ContextJump(user, nullptr);
}

}  // namespace mkc
