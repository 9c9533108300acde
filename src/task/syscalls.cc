#include "src/task/syscalls.h"

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/ext/ext_state.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/kern/kernel.h"
#include "src/machine/machdep.h"
#include "src/task/task.h"
#include "src/vm/vm_system.h"

namespace mkc {
namespace {

// Voluntary reschedule: like preemption, the yielding thread's kernel
// context is worthless — its continuation just returns to user space.
MKC_TRANSFER_PATH void YieldContinuation() { ThreadSyscallReturn(KernReturn::kSuccess); }

// Handoff scheduling (Black '90, cited in §1.4): donate the processor to a
// named thread. Under MK40 with a stackless runnable target, this is a
// literal stack handoff — the cheapest possible directed switch.
MKC_TRANSFER_PATH [[noreturn]] void HandleThreadSwitchTo(Kernel& k, Thread* self,
                                                         ThreadSwitchToArgs* args) {
  Thread* target = nullptr;
  self->task->threads.ForEach([&](Thread* t) {
    if (t->id == args->target) {
      target = t;
    }
  });
  if (target == nullptr || target == self) {
    ThreadSyscallReturn(target == self ? KernReturn::kSuccess
                                       : KernReturn::kInvalidArgument);
  }
  if (target->state != ThreadState::kRunnable) {
    // Nothing to donate to: the target isn't waiting for the processor.
    ThreadSyscallReturn(KernReturn::kFailure);
  }
  if (IntrusiveQueue<Thread, &Thread::run_link>::OnAQueue(target)) {
    k.RunQueueRemove(target);
  }
  self->state = ThreadState::kRunnable;
  if (k.UsesContinuations() && k.config().enable_handoff && target->continuation != nullptr) {
    ThreadHandoff(&YieldContinuation, target, BlockReason::kThreadSwitch);
    // Running as the target, in the donor's frame.
    CallContinuation(TakeContinuation(target));
    // NOTREACHED
  }
  ThreadRunDirected(target, BlockReason::kThreadSwitch);
  ThreadSyscallReturn(KernReturn::kSuccess);
}

}  // namespace

// YieldContinuation is file-private (nothing outside this TU may call it),
// so its registry entry has to be made from here.
void RegisterSyscallContinuations(ContinuationRegistry& registry) {
  registry.Register(&YieldContinuation, "thread_yield_continue");
}

MKC_TRANSFER_PATH [[noreturn]] void SyscallDispatch(Thread* thread, TrapFrame* frame) {
  Kernel& k = ActiveKernel();
  switch (frame->number) {
    case Syscall::kNull:
      // Trap in, trap out: the Table 4 entry/exit probe.
      ThreadSyscallReturn(KernReturn::kSuccess);

    case Syscall::kMachMsg:
      HandleMachMsg(thread, static_cast<MachMsgArgs*>(frame->args));

    case Syscall::kThreadExit:
      k.ThreadTerminateSelf();

    case Syscall::kThreadSwitch: {
      if (k.run_queue().Empty()) {
        ThreadSyscallReturn(KernReturn::kSuccess);
      }
      thread->state = ThreadState::kRunnable;
      ThreadBlock(&YieldContinuation, BlockReason::kThreadSwitch);
      ThreadSyscallReturn(KernReturn::kSuccess);  // Process-model kernels.
    }

    case Syscall::kThreadSwitchTo:
      HandleThreadSwitchTo(k, thread, static_cast<ThreadSwitchToArgs*>(frame->args));

    case Syscall::kThreadSetPriority: {
      auto* args = static_cast<ThreadSetPriorityArgs*>(frame->args);
      if (args->priority < 0 || args->priority >= kNumPriorities) {
        ThreadSyscallReturn(KernReturn::kInvalidArgument);
      }
      thread->priority = args->priority;
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kPortAllocate: {
      auto* args = static_cast<PortAllocateArgs*>(frame->args);
      args->out_port = k.ipc().AllocatePort(thread->task);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kPortDestroy: {
      auto* args = static_cast<PortDestroyArgs*>(frame->args);
      if (k.ipc().Lookup(args->port) == nullptr) {
        ThreadSyscallReturn(KernReturn::kInvalidName);
      }
      k.ipc().DestroyPort(args->port);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kPortSetAllocate: {
      auto* args = static_cast<PortSetAllocateArgs*>(frame->args);
      args->out_set = k.ipc().AllocatePortSet(thread->task);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kPortSetAdd: {
      auto* args = static_cast<PortSetModifyArgs*>(frame->args);
      ThreadSyscallReturn(k.ipc().AddToSet(args->port, args->set));
    }

    case Syscall::kPortSetRemove: {
      auto* args = static_cast<PortSetModifyArgs*>(frame->args);
      ThreadSyscallReturn(k.ipc().RemoveFromSet(args->port));
    }

    case Syscall::kVmAllocate: {
      auto* args = static_cast<VmAllocateArgs*>(frame->args);
      if (args->size == 0) {
        ThreadSyscallReturn(KernReturn::kInvalidArgument);
      }
      args->out_addr = thread->task->map.Allocate(
          args->size, args->paged ? VmBacking::kPaged : VmBacking::kZeroFill);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kVmDeallocate: {
      auto* args = static_cast<VmDeallocateArgs*>(frame->args);
      ThreadSyscallReturn(k.vm().DeallocateRegion(thread->task, args->addr));
    }

    case Syscall::kVmProtect: {
      auto* args = static_cast<VmProtectArgs*>(frame->args);
      ThreadSyscallReturn(k.vm().ProtectRegion(thread->task, args->addr, args->writable));
    }

    case Syscall::kSetExceptionPort: {
      auto* args = static_cast<SetExceptionPortArgs*>(frame->args);
      thread->task->exception_port = args->port;
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kThreadCreate: {
      auto* args = static_cast<ThreadCreateArgs*>(frame->args);
      if (args->entry == nullptr) {
        ThreadSyscallReturn(KernReturn::kInvalidArgument);
      }
      Thread* t = k.CreateUserThread(thread->task, args->entry, args->arg, args->options);
      args->out_id = t->id;
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kTaskCreate: {
      auto* args = static_cast<TaskCreateArgs*>(frame->args);
      args->out_task = k.CreateTask(args->name);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kTaskTerminate: {
      auto* args = static_cast<TaskTerminateArgs*>(frame->args);
      Task* victim = args->task != nullptr ? args->task : thread->task;
      k.TerminateTask(victim);
      // Reached only when the victim was another task.
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kSetUserContinuation: {
      auto* args = static_cast<SetUserContinuationArgs*>(frame->args);
      thread->md.user_continuation_override = args->fn;
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kAsyncIoStart:
      HandleAsyncIoStart(thread, static_cast<AsyncIoArgs*>(frame->args));

    case Syscall::kUpcallPoolAdd:
      k.ext().upcalls.Park(thread, static_cast<UpcallParkArgs*>(frame->args));

    case Syscall::kSemCreate: {
      auto* args = static_cast<SemCreateArgs*>(frame->args);
      args->out_sem = k.ext().semaphores.Create(args->initial_count);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }

    case Syscall::kSemWait: {
      auto* args = static_cast<SemOpArgs*>(frame->args);
      ThreadSyscallReturn(k.ext().semaphores.Wait(thread, args->sem));
    }

    case Syscall::kSemSignal: {
      auto* args = static_cast<SemOpArgs*>(frame->args);
      ThreadSyscallReturn(k.ext().semaphores.Signal(args->sem));
    }

    case Syscall::kUpcallTrigger: {
      auto* args = static_cast<UpcallTriggerArgs*>(frame->args);
      args->delivered = k.ext().upcalls.Trigger(k, args->payload);
      ThreadSyscallReturn(KernReturn::kSuccess);
    }
  }
  Panic("unknown syscall %d", static_cast<int>(frame->number));
}

}  // namespace mkc
