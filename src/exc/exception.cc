// Exception delivery and reply, with both continuation-recognition fast
// paths of §2.5.
#include "src/exc/exception.h"

#include <cstring>

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"
#include "src/task/task.h"

namespace mkc {
namespace {

// Parks the faulting thread on its reply port as a kernel endpoint: the
// kernel itself will consume the server's reply, no user buffer involved.
MKC_TRANSFER_PATH void EnterKernelEndpointWait(Thread* thread, Port* reply_port) {
  auto& st = thread->Scratch<MsgWaitState>();
  st.user_buffer = nullptr;
  st.port = reply_port->id;
  st.rcv_limit = kMaxInlineBytes;
  st.options = 0;
  st.result = KernReturn::kSuccess;
  st.flags = kMsgWaitKernelEndpoint;
  reply_port->receivers.EnqueueTail(thread);
  thread->state = ThreadState::kWaiting;
}

// Resumes (or terminates) the faulting thread according to the deposited
// reply verdict. Runs as the faulting thread.
MKC_TRANSFER_PATH [[noreturn]] void ExceptionReplyFinish(Thread* thread) {
  Kernel& k = ActiveKernel();
  if (thread->exc_start != 0) {
    k.lat().exc_service->Record(k.LatencyNow() - thread->exc_start);
    thread->exc_start = 0;
    k.SpanEnd(SpanKind::kException);
  }
  auto& st = thread->Scratch<MsgWaitState>();
  if (st.result == KernReturn::kSuccess) {
    // Server handled it: restart the thread at user level, retrying/resuming
    // past the faulting instruction.
    ThreadExceptionReturn();
  }
  ++k.exc_stats().unhandled;
  k.ThreadTerminateSelf();
}

// Specialized resume handler for ExceptionReplyContinue
// (kern/recognition.h): a faulting thread whose reply verdict has already
// been deposited in its scratch (ExceptionHandleReply runs before any
// wakeup) finishes right in the inherited frame — the §2.5 reply fast path,
// now a table entry reachable from every handoff site, not just the reply
// handoff.
MKC_TRANSFER_PATH bool ExceptionReplyResumeRecognized(Kernel& k, Thread* faulter) {
  auto& st = faulter->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) == 0) {
    return false;  // No verdict yet (spurious wakeup): general path.
  }
  ++k.transfer_stats().recognitions;
  k.NoteContRecognition(&ExceptionReplyContinue);
  k.TracePoint(TraceEvent::kRecognition, 2);
  ++k.exc_stats().fast_replies;
  TakeContinuation(faulter);
  ExceptionReplyFinish(faulter);
}

// Process-model wait for the reply (MK32 / Mach 2.5).
MKC_TRANSFER_PATH [[noreturn]] void ExceptionReplyWaitProcessModel(Thread* thread,
                                                                   Port* reply_port) {
  Kernel& k = ActiveKernel();
  for (;;) {
    auto& st = thread->Scratch<MsgWaitState>();
    if ((st.flags & kMsgWaitDirectComplete) != 0) {
      ExceptionReplyFinish(thread);
    }
    // Spurious wakeup: wait again.
    reply_port->receivers.EnqueueTail(thread);
    thread->state = ThreadState::kWaiting;
    ThreadBlock(nullptr, BlockReason::kException);
    (void)k;
  }
}

}  // namespace

MKC_TRANSFER_PATH void ExceptionReplyContinue() {
  Thread* thread = CurrentThread();
  auto& st = thread->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) == 0) {
    // Spurious: re-block with ourselves (tail recursion).
    Kernel& k = ActiveKernel();
    Port* reply_port = k.ipc().Lookup(st.port);
    MKC_ASSERT(reply_port != nullptr);
    reply_port->receivers.EnqueueTail(thread);
    thread->state = ThreadState::kWaiting;
    ThreadBlock(ExceptionReplyContinue, BlockReason::kException);
    Panic("continuation block returned");
  }
  ExceptionReplyFinish(thread);
}

MKC_TRANSFER_PATH [[noreturn]] void HandleException(Thread* thread, std::uint64_t code) {
  Kernel& k = ActiveKernel();
  ++k.exc_stats().raised;
  thread->exc_start = k.LatencyNow();
  k.SpanBegin(SpanKind::kException);

  Task* task = thread->task;
  Port* exc_port = task != nullptr ? k.ipc().Lookup(task->exception_port) : nullptr;
  if (exc_port == nullptr) {
    ++k.exc_stats().unhandled;
    k.ThreadTerminateSelf();
  }

  if (thread->exc_reply_port == kInvalidPort) {
    thread->exc_reply_port = k.ipc().AllocatePort(nullptr);
  }
  Port* reply_port = k.ipc().Lookup(thread->exc_reply_port);
  MKC_ASSERT(reply_port != nullptr);

  k.ChargeCycles(kCycExcRequestBuild);
  ExcRequestBody req;
  req.thread = thread->id;
  req.task = task->id;
  req.code = code;
  req.reply_port = thread->exc_reply_port;
  MessageHeader hdr;
  hdr.dest = exc_port->id;
  hdr.reply = thread->exc_reply_port;
  hdr.msg_id = kExcRequestMsgId;
  hdr.size = sizeof(req);
  hdr.span = thread->span_id;  // The server works on the faulter's behalf.

  // The exception fast path exists only in the continuation kernel; MK32
  // never optimized exception handling (§3.3: "the exception handling path
  // had not been optimized in MK32 ... a 'best case' result for
  // continuations"), so both process-model kernels send the request through
  // the general message machinery.
  Thread* server =
      k.UsesContinuations() ? PopReceiverForDelivery(exc_port, sizeof(req)) : nullptr;
  if (server != nullptr) {
    // A server thread is already waiting: defer message creation and pass
    // the fault information directly (§2.5 fast path).
    ++k.exc_stats().fast_deliveries;
    DeliverDirect(server, hdr, &req);
    EnterKernelEndpointWait(thread, reply_port);

    if (k.config().enable_handoff) {
      ThreadHandoff(ExceptionReplyContinue, server, BlockReason::kException);
      // Running as the server, in the faulting thread's frame: the shared
      // recognition dispatch short-circuits a server parked in
      // MachMsgContinue (the first table entry), exactly as the old inline
      // pointer compare did.
      ResumeAfterHandoff(server);
      // NOTREACHED
    }
    k.ThreadSetrun(server);
    ThreadBlock(ExceptionReplyContinue, BlockReason::kException);
    Panic("continuation block returned");
  }

  // Slow path: create the request message and send it like any other.
  ++k.exc_stats().queued_deliveries;
  KMessage* kmsg = k.ipc().AllocKmsg(sizeof(req));  // May block (kMemoryAlloc).
  // The allocation can block, and the exception port may die meanwhile —
  // its slot reclaimed and the cached pointer dangling — so revalidate by
  // name; an unreachable handler means the exception goes unhandled, as if
  // the port had been dead at raise time.
  exc_port = k.ipc().Lookup(hdr.dest);
  if (exc_port == nullptr) {
    k.ipc().FreeKmsg(kmsg);
    ++k.exc_stats().unhandled;
    k.ThreadTerminateSelf();
  }
  kmsg->header = hdr;
  std::memcpy(kmsg->body, &req, sizeof(req));
  exc_port->messages.EnqueueTail(kmsg);
  k.TracePoint(TraceEvent::kIpcQueueDepth, exc_port->id,
               static_cast<std::uint32_t>(exc_port->messages.Size()));
  k.ChargeCycles(kCycMsgCopyBase + (sizeof(req) / 8) * kCycMsgCopyPerWord + kCycMsgQueueOp);
  if (Thread* waiter = PopReceiverForDelivery(exc_port, sizeof(req))) {
    // Process-model kernels wake the server through the general scheduler.
    k.ThreadSetrun(waiter);
  }

  EnterKernelEndpointWait(thread, reply_port);
  ThreadBlock(k.UsesContinuations() ? ExceptionReplyContinue : nullptr, BlockReason::kException);
  ExceptionReplyWaitProcessModel(thread, reply_port);
}

MKC_TRANSFER_PATH void ExceptionHandleReply(Thread* sender, MachMsgArgs* args, Thread* faulter) {
  Kernel& k = ActiveKernel();
  ++k.exc_stats().replies;

  // Interpret the reply in place, from the sender's user buffer — the
  // kernel-endpoint analog of DeliverDirect: no kmsg is ever built.
  k.ChargeCycles(kCycExcReplyParse);
  ExcReplyBody reply{};
  if (args->send_size >= sizeof(reply)) {
    std::memcpy(&reply, args->msg->body, sizeof(reply));
  }
  auto& st = faulter->Scratch<MsgWaitState>();
  st.result = reply.handled != 0 ? KernReturn::kSuccess : KernReturn::kFailure;
  st.flags |= kMsgWaitDirectComplete;

  const bool rcv_phase = (args->options & kMsgRcvOpt) != 0;
  Port* rport = rcv_phase ? k.ipc().Lookup(args->rcv_port) : nullptr;
  // As on the RPC path: only park the server on its receive port if no
  // request is already queued there.
  const bool rcv_clear = rport != nullptr && !PortHasQueuedMessages(rport);

  if (k.UsesContinuations() && k.config().enable_handoff && rcv_phase && rcv_clear) {
    // Return phase of the exception RPC, symmetric to the request: the
    // server blocks for its next request and hands the stack back to the
    // faulting thread.
    EnterReceiveWait(sender, args->msg, args->rcv_port, args->rcv_limit, args->options);
    ThreadHandoff(ChooseReceiveContinuation(args->options, args->rcv_limit), faulter,
                  BlockReason::kMessageReceive);
    // Running as the faulting thread: the recognition table's
    // ExceptionReplyContinue entry finishes the exception in place.
    ResumeAfterHandoff(faulter);
    // NOTREACHED
  }

  if (!k.UsesContinuations()) {
    // The process-model kernels treat the reply as an ordinary message: it
    // is materialized, queued and consumed by the kernel endpoint — extra
    // copies and queue traffic the MK40 path never pays.
    k.ChargeCycles(kCycKmsgAlloc + kCycMsgCopyBase + 2 * kCycMsgQueueOp + kCycKmsgFree);
  }

  // Wake the faulting thread through the scheduler and let the sender
  // continue into its own receive phase (MK32's direct-switch optimization
  // covered only the RPC path, not exceptions — §3.3).
  k.ThreadSetrun(faulter);
}

void RegisterExceptionRecognition(RecognitionTable& table) {
  table.Register(&ExceptionReplyContinue, &ExceptionReplyResumeRecognized, nullptr);
}

}  // namespace mkc
