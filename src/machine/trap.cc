#include "src/machine/trap.h"

#include <cstring>

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/exc/exception.h"
#include "src/kern/kernel.h"
#include "src/machine/context.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"
#include "src/task/syscalls.h"
#include "src/vm/vm_system.h"

namespace mkc {
namespace {

// Quantum expiry: the interrupted thread's kernel context is worthless — it
// was about to run user code — so block with a continuation that simply
// returns to user level (§2.5, "Preemptive Scheduling").
MKC_TRANSFER_PATH void PreemptContinuation() { ThreadExceptionReturn(); }

MKC_TRANSFER_PATH [[noreturn]] void HandlePreempt(Thread* thread) {
  Kernel& k = ActiveKernel();
  if (k.run_queue().Empty()) {
    // Nobody else wants the processor: fresh quantum, straight back out.
    thread->quantum_start = k.clock().Now();
    ThreadExceptionReturn();
  }
  thread->state = ThreadState::kRunnable;
  ThreadBlock(&PreemptContinuation, BlockReason::kPreempt);
  // Process-model kernels: rescheduled with stack intact; unwind to user.
  ThreadExceptionReturn();
}

// First instruction executed on the kernel stack after a trap.
MKC_TRANSFER_PATH void KernelEntry(void* pass, void* arg) {
  auto* frame = static_cast<TrapFrame*>(pass);
  auto* thread = static_cast<Thread*>(arg);
  switch (frame->kind) {
    case TrapKind::kSyscall:
      SyscallDispatch(thread, frame);
      break;
    case TrapKind::kException:
      HandleException(thread, frame->code);
      break;
    case TrapKind::kPageFault:
      ActiveKernel().vm().HandleUserFault(thread, frame->code, frame->write_access);
      break;
    case TrapKind::kPreempt:
      HandlePreempt(thread);
      break;
  }
  Panic("trap handler returned");
}

// Applies the model's kernel-entry register-save policy (§3.3). The copies
// are real memory traffic; the accounted loads/stores state the policy.
MKC_TRANSFER_PATH void SaveUserState(Kernel& k, Thread* thread, TrapKind kind) {
  auto& md = thread->md;
  if (kind == TrapKind::kSyscall) {
    // Basic trap frame in both kernels.
    std::memcpy(md.trap_save_area, md.user_regs, sizeof(md.trap_save_area));
    if (k.UsesContinuations()) {
      // MK40: the compiler's prologue/epilogue contract is void once stacks
      // can be discarded, so entry must aggressively save all callee-saved
      // registers into the MD structure.
      std::memcpy(md.callee_saved_area,
                  &md.user_regs[kFullRegisterFileWords - kCalleeSavedRegs],
                  sizeof(md.callee_saved_area));
      k.cost_model().Account(CostOp::kSyscallEntry, 7,
                             kBasicTrapFrameWords + kCalleeSavedRegs);
      k.ChargeCycles(kCycSyscallEntryMk40);
    } else {
      k.cost_model().Account(CostOp::kSyscallEntry, 8, kBasicTrapFrameWords + 4);
      k.ChargeCycles(kCycSyscallEntryMk32);
    }
  } else {
    // Exceptions, faults, interrupts: all user registers, in every model.
    std::memcpy(md.trap_save_area, md.user_regs, sizeof(md.trap_save_area));
    std::memcpy(md.callee_saved_area,
                &md.user_regs[kFullRegisterFileWords - kCalleeSavedRegs],
                sizeof(md.callee_saved_area));
    k.cost_model().Account(CostOp::kExceptionEntry, kFullRegisterFileWords,
                           kFullRegisterFileWords);
    k.ChargeCycles(kCycExceptionEntry);
  }
}

}  // namespace

// PreemptContinuation is file-private, so its registry entry is made here.
void RegisterTrapContinuations(ContinuationRegistry& registry) {
  registry.Register(&PreemptContinuation, "preempt_continue");
}

MKC_TRANSFER_PATH std::uint64_t TrapEnter(TrapFrame* frame) {
  Kernel& k = ActiveKernel();
  Thread* thread = CurrentThread();
  MKC_ASSERT(thread->state == ThreadState::kRunning);
  MKC_ASSERT_MSG(thread->kernel_stack != nullptr, "running thread lost its kernel stack");
  MKC_ASSERT_MSG(!thread->md.user_ctx.valid(), "nested trap");

  SaveUserState(k, thread, frame->kind);
  k.TracePoint(TraceEvent::kTrapEnter, static_cast<std::uint32_t>(frame->kind));
  thread->md.trap_frame = frame;

  // Fresh kernel execution at the base of the thread's kernel stack (the
  // hardware loads SP with the kernel stack top and jumps to the handler).
  // Capturing the user context here IS creating the thread's user-level
  // continuation (§2.1).
  void* result = ContextSwitchFresh(&thread->md.user_ctx, thread->kernel_stack->base(),
                                    thread->kernel_stack->size(), &KernelEntry, thread, frame);
  // A ThreadSyscallReturn / ThreadExceptionReturn jumped back to us.
  return reinterpret_cast<std::uintptr_t>(result);
}

}  // namespace mkc
