// Figure 4 of the paper: thread_block, thread_handoff, thread_continue,
// thread_dispatch, built on the Figure 3 machine-dependent interface.
#include "src/core/control.h"

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"

namespace mkc {

MKC_TRANSFER_PATH Continuation TakeContinuation(Thread* thread) {
  Continuation cont = thread->continuation;
  thread->continuation = nullptr;
  return cont;
}

namespace {

// A still-runnable thread going back on the invoking CPU's queue
// (preemption-style block). Stamp it so its next dispatch records run-queue
// wait rather than wakeup→run delay.
MKC_TRANSFER_PATH void RequeuePreempted(Kernel& k, Thread* thread) {
  thread->runnable_start = k.LatencyNow();
  thread->runnable_from = RunnableFrom::kRequeue;
  k.run_queue().Enqueue(thread);
}

// Consults the recognition table for `resumed`'s continuation; returns only
// when no specialized handler completed the resume (no entry, recognition
// disabled, or the handler declined). `charged` says the caller already paid
// the recognition-check cycles — the mach_msg and exception fast-path sites
// charge unconditionally, while the scheduler handoff path pays only when a
// handler actually exists.
MKC_TRANSFER_PATH void ConsultHandoffRecognition(Kernel& k, Thread* resumed, bool charged) {
  if (!k.config().enable_recognition) {
    return;
  }
  RecognitionEntry* entry = k.recognition().Find(resumed->continuation);
  if (entry == nullptr || entry->on_handoff == nullptr) {
    return;
  }
  if (!charged) {
    k.ChargeCycles(kCycRecognitionCheck);
  }
  // Count the hit before dispatch: a successful handler never returns.
  ++entry->handoff_hits;
  if (entry->on_handoff(k, resumed)) {
    Panic("recognition on_handoff handler returned after completing a resume");
  }
  --entry->handoff_hits;
  ++entry->declines;
}

}  // namespace

MKC_TRANSFER_PATH [[noreturn]] void ResumeAfterHandoff(Thread* resumed) {
  Kernel& k = ActiveKernel();
  MKC_ASSERT(CurrentThread() == resumed);
  // Examining the continuation costs the same few cycles whether or not
  // recognition is enabled or succeeds (§2.4's pointer compare, now a table
  // probe).
  k.ChargeCycles(kCycRecognitionCheck);
  ConsultHandoffRecognition(k, resumed, /*charged=*/true);
  CallContinuation(TakeContinuation(resumed));
}

MKC_TRANSFER_PATH void ThreadDispatch(Thread* old_thread) {
  if (old_thread == nullptr) {
    return;  // First activation after boot: nothing preceded us.
  }
  Kernel& k = ActiveKernel();
  if (old_thread->continuation != nullptr && old_thread->kernel_stack != nullptr) {
    // The old thread blocked with a continuation: its stack holds nothing of
    // value. Return it to the free pool.
    KernelStack* stack = StackDetach(old_thread);
    k.FreeStack(stack);
  }
  if (old_thread->state == ThreadState::kRunnable) {
    // Preemption-style block: the old thread still wants the processor.
    RequeuePreempted(k, old_thread);
  }
}

MKC_TRANSFER_PATH [[noreturn]] void ThreadContinue(Thread* old_thread, Thread* self) {
  // Entry point of a freshly attached stack (installed by ThreadBlock's
  // attach path and by boot). Dispose of whoever ran before us, then run our
  // own continuation.
  MKC_ASSERT(CurrentThread() == self);
  ThreadDispatch(old_thread);
  Continuation cont = TakeContinuation(self);
  MKC_ASSERT_MSG(cont != nullptr, "thread resumed on a fresh stack without a continuation");
  cont();
  Panic("continuation returned");
}

namespace {

// Common core of ThreadBlock / ThreadRunDirected. `next` is null for
// scheduler selection, non-null for a directed switch.
MKC_TRANSFER_PATH void BlockCommon(Continuation cont, BlockReason reason, Thread* next) {
  Kernel& k = ActiveKernel();
  Thread* old_thread = CurrentThread();

  MKC_ASSERT_MSG(old_thread->state != ThreadState::kRunning,
                 "ThreadBlock called without updating the thread state "
                 "(set kWaiting/kRunnable/kHalted first)");

  // Under the process-model kernels, continuations do not exist: every
  // block preserves the stack, no matter what the (shared) call site asked
  // for. This is how one binary measures all three kernels of §3.1.
  if (!k.UsesContinuations()) {
    cont = nullptr;
  }
  k.NoteContBlock(cont);

  old_thread->block_reason = reason;
  // LatencyNow, not this CPU's clock: the resume may happen on another CPU
  // (work steal) whose clock could be behind the blocking CPU's.
  old_thread->block_start = k.LatencyNow();
  k.transfer_stats().RecordBlock(reason, cont != nullptr);
  k.TracePoint(TraceEvent::kBlock, static_cast<std::uint32_t>(reason), cont != nullptr);
  k.stack_pool().SampleInUse();

  Thread* new_thread = next != nullptr ? next : k.ThreadSelect();
  MKC_ASSERT(new_thread != old_thread);

  if (new_thread->continuation != nullptr) {
    if (cont != nullptr && k.config().enable_handoff) {
      // Both sides hold continuations: the cheap path. Hand the running
      // stack straight to the new thread and enter it through its
      // continuation.
      old_thread->continuation = cont;
      StackHandoff(new_thread);
      k.TracePoint(TraceEvent::kHandoff, old_thread->id);
      if (reason != BlockReason::kIdle) {
        ++k.transfer_stats().stack_handoffs;
      }
      if (old_thread->state == ThreadState::kRunnable) {
        RequeuePreempted(k, old_thread);
      }
      new_thread->state = ThreadState::kRunning;
      // Scheduler-path recognition: the resumed thread's continuation may
      // have a specialized handler (the generalized §2.4 — recognition is no
      // longer exclusive to the RPC handoff site). With recognition off or
      // no handler registered this costs nothing.
      ConsultHandoffRecognition(k, new_thread, /*charged=*/false);
      CallContinuation(TakeContinuation(new_thread));
      // NOTREACHED
    }
    // The new thread is stackless but we must preserve our own context (or
    // handoff is disabled): give the new thread a fresh stack that will
    // start in ThreadContinue.
    KernelStack* stack = k.AllocateStack();
    StackAttach(new_thread, stack, ThreadContinue);
  }

  old_thread->continuation = cont;
  Thread* prev = SwitchContext(cont, new_thread);
  // Only process-model blocks return here, once rescheduled.
  MKC_ASSERT(CurrentThread() == old_thread);
  ThreadDispatch(prev);
}

}  // namespace

MKC_TRANSFER_PATH void ThreadBlock(Continuation cont, BlockReason reason) {
  BlockCommon(cont, reason, nullptr);
}

MKC_TRANSFER_PATH void ThreadRunDirected(Thread* next, BlockReason reason) {
  MKC_ASSERT(next != nullptr);
  MKC_ASSERT_MSG(next->state != ThreadState::kRunning, "directed switch to a running thread");
  if (next->state == ThreadState::kRunnable && IntrusiveQueue<Thread, &Thread::run_link>::OnAQueue(next)) {
    // Pull the target off whichever CPU's run queue holds it: we are
    // scheduling it directly, here.
    ActiveKernel().RunQueueRemove(next);
  }
  BlockCommon(nullptr, reason, next);
}

MKC_TRANSFER_PATH void ThreadHandoff(Continuation cont, Thread* next, BlockReason reason) {
  Kernel& k = ActiveKernel();
  Thread* old_thread = CurrentThread();

  MKC_ASSERT_MSG(k.UsesContinuations() && k.config().enable_handoff,
                 "ThreadHandoff requires the continuation kernel with handoff enabled");
  MKC_ASSERT(cont != nullptr);
  MKC_ASSERT(next != nullptr && next != old_thread);
  MKC_ASSERT_MSG(next->continuation != nullptr, "handoff target must hold a continuation");
  MKC_ASSERT_MSG(old_thread->state != ThreadState::kRunning,
                 "ThreadHandoff called without updating the thread state");

  k.NoteContBlock(cont);
  old_thread->block_reason = reason;
  old_thread->block_start = k.LatencyNow();
  k.transfer_stats().RecordBlock(reason, /*with_continuation=*/true);
  k.TracePoint(TraceEvent::kBlock, static_cast<std::uint32_t>(reason), 1);
  k.stack_pool().SampleInUse();

  old_thread->continuation = cont;
  StackHandoff(next);
  k.TracePoint(TraceEvent::kHandoff, old_thread->id);
  ++k.transfer_stats().stack_handoffs;
  if (old_thread->state == ThreadState::kRunnable) {
    RequeuePreempted(k, old_thread);
  }
  next->state = ThreadState::kRunning;
  // Unlike ThreadBlock, we do NOT call next's continuation: the caller —
  // now running as `next`, inside the blocking thread's still-live frame —
  // gets the chance to examine it first (continuation recognition).
}

}  // namespace mkc
