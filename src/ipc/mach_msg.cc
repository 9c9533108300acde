// mach_msg: combined send/receive, with the continuation-based fast RPC path
// of §2.4 (Figure 2) and the queued slow path, selected per kernel model.
#include "src/ipc/mach_msg.h"

#include <cstring>

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/exc/exception.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/ool.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"
#include "src/vm/vm_system.h"

namespace mkc {
namespace {

// Message bodies at or above this size route their kernel copy through the
// pageable kernel copy buffer, which can fault (process-model block, §2.5).
constexpr std::uint32_t kKernelBufferTouchThreshold = 768;

MKC_TRANSFER_PATH void AccountCopy(Kernel& k, std::uint32_t bytes) {
  std::uint64_t words = bytes / 8 + 2;  // Body plus header.
  k.cost_model().Account(CostOp::kMsgCopy, words, words);
  k.ChargeCycles(kCycMsgCopyBase + words * kCycMsgCopyPerWord);
}

MKC_TRANSFER_PATH void CopyIn(Kernel& k, KMessage* kmsg, const UserMessage* msg,
                              std::uint32_t size) {
  kmsg->header = msg->header;
  kmsg->header.size = size;
  std::memcpy(kmsg->body, msg->body, size);
  AccountCopy(k, size);
}

MKC_TRANSFER_PATH void CopyOut(Kernel& k, UserMessage* msg, const KMessage* kmsg) {
  msg->header = kmsg->header;
  std::memcpy(msg->body, kmsg->body, kmsg->header.size);
  AccountCopy(k, kmsg->header.size);
  // Every queued-path receive finishes here, on the receiving thread: adopt
  // the sender's span so the request's causal chain survives the queue.
  k.SpanAdopt(CurrentThread(), kmsg->header.span);
}

MKC_TRANSFER_PATH void WakeOneBlockedSender(Kernel& k, Port* port) {
  if (Thread* sender = port->blocked_senders.DequeueHead()) {
    sender->wait_result = KernReturn::kSuccess;
    k.ThreadSetrun(sender);
  }
}

// The "extra processing on every receive" that constrained receivers need
// (§2.4): a body-parsing pass, here a checksum over the received words.
void StrictReceiveChecks(Kernel& k, const UserMessage* msg) {
  // The user buffer carries no alignment guarantee, so assemble each word
  // with memcpy instead of a (possibly misaligned) uint64_t load.
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < msg->header.size / 8; ++i) {
    std::uint64_t word;
    std::memcpy(&word, msg->body + i * 8, sizeof(word));
    sum ^= word;
  }
  // The checksum's value is irrelevant; the loads are the cost.
  k.cost_model().Account(CostOp::kMsgCopy, msg->header.size / 8, 0);
  (void)sum;
}

bool StrictOptions(std::uint32_t options, std::uint32_t rcv_limit) {
  return (options & kMsgRcvStrictOpt) != 0 || rcv_limit < kMaxInlineBytes;
}

// Completes the current thread's receive. Shared by the two receive
// continuations; re-blocks (tail-recursively, with the same continuation) on
// spurious wakeups. MK40 only.
MKC_TRANSFER_PATH [[noreturn]] void FinishReceiveContinuation(bool strict) {
  Kernel& k = ActiveKernel();
  Thread* t = CurrentThread();
  auto& st = t->Scratch<MsgWaitState>();

  if ((st.flags & kMsgWaitDirectComplete) != 0) {
    if (strict && st.result == KernReturn::kSuccess) {
      StrictReceiveChecks(k, st.user_buffer);
    }
    ThreadSyscallReturn(st.result);
  }
  if (st.result != KernReturn::kSuccess) {
    ThreadSyscallReturn(st.result);
  }

  Port* port = k.ipc().Lookup(st.port);
  if (port == nullptr) {
    ThreadSyscallReturn(KernReturn::kRcvPortDied);
  }
  Port* from = nullptr;
  if (KMessage* head = PeekQueuedFor(port, &from)) {
    if (head->header.size > st.rcv_limit) {
      ++k.ipc().stats().rcv_too_large;
      ThreadSyscallReturn(KernReturn::kRcvTooLarge);
    }
    KMessage* kmsg = from->messages.DequeueHead();
    k.TracePoint(TraceEvent::kIpcQueueDepth, from->id,
                 static_cast<std::uint32_t>(from->messages.Size()));
    kmsg->header.seqno = from->next_seqno++;
    CopyOut(k, st.user_buffer, kmsg);
    OolDeliverFromKmsg(k, t->task, kmsg, st.user_buffer);
    k.ipc().FreeKmsg(kmsg);
    WakeOneBlockedSender(k, from);
    if (strict) {
      StrictReceiveChecks(k, st.user_buffer);
    }
    ThreadSyscallReturn(KernReturn::kSuccess);
  }

  // Spurious wakeup: wait again, with ourselves as the continuation.
  port->receivers.EnqueueTail(t);
  t->state = ThreadState::kWaiting;
  ++t->wait_seq;
  ThreadBlock(strict ? MachMsgSlowContinue : MachMsgContinue, BlockReason::kMessageReceive);
  Panic("continuation block returned");
}

// Specialized resume handler for MachMsgContinue (kern/recognition.h): the
// §2.4 recognition fast path, now the first entry in the recognition table.
// A recognized receiver whose message was already delivered by DeliverDirect
// completes its mach_msg right in the inherited frame, skipping the general
// continuation entirely. Declines (queued-path or spurious wakeups) fall
// back to FinishReceiveContinuation via the full continuation.
MKC_TRANSFER_PATH bool ReceiveResumeRecognized(Kernel& k, Thread* receiver) {
  auto& st = receiver->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) == 0) {
    return false;  // Nothing delivered in place: run the general path.
  }
  ++k.transfer_stats().recognitions;
  ++k.ipc().stats().receive_recognitions;
  k.NoteContRecognition(&MachMsgContinue);
  k.TracePoint(TraceEvent::kRecognition, 1);
  TakeContinuation(receiver);
  ThreadSyscallReturn(st.result);
}

// Send phase. Returns a status for the caller to act on; DOES NOT return at
// all when the fast RPC path transfers control away.
MKC_TRANSFER_PATH KernReturn MsgSendPhase(Thread* t, MachMsgArgs* args) {
  Kernel& k = ActiveKernel();
  UserMessage* msg = args->msg;
  if (msg == nullptr || args->send_size > kMaxInlineBytes) {
    return KernReturn::kSendMsgTooLarge;
  }
  msg->header.size = args->send_size;
  msg->header.bits = 0;
  // Unconditional store: t->span_id is always 0 when tracing is disabled,
  // so this is the send path's entire span-propagation cost.
  msg->header.span = t->span_id;
  if ((args->options & kMsgOolOpt) != 0) {
    if (args->send_size < sizeof(OolDescriptor)) {
      return KernReturn::kInvalidArgument;
    }
    MarkMessageOol(msg->header);
  }
  k.ChargeCycles(kCycMsgPhaseBase + kCycPortLookup);
  Port* port = k.ipc().Lookup(msg->header.dest);
  if (port == nullptr) {
    return KernReturn::kSendInvalidDest;
  }
  ++k.ipc().stats().messages_sent;

  const bool rcv_phase = (args->options & kMsgRcvOpt) != 0;
  Thread* receiver = PopReceiverForDelivery(port, args->send_size);

  if (receiver != nullptr &&
      (receiver->Scratch<MsgWaitState>().flags & kMsgWaitKernelEndpoint) != 0) {
    // The waiting receiver is the kernel itself (a faulting thread parked on
    // its exception reply port): interpret the message in place.
    ExceptionHandleReply(t, args, receiver);  // May not return.
    return KernReturn::kSuccess;
  }

  if (receiver != nullptr && k.model() != ControlTransferModel::kMach25 &&
      args->send_size >= kKernelBufferTouchThreshold) {
    // Even direct copies of large bodies run through the pageable kernel
    // copy buffer, which can fault (process-model block, §2.5).
    k.vm().KernelBufferTouch(msg->header.msg_id);
  }
  if (receiver != nullptr) {
    if (k.model() != ControlTransferModel::kMach25) {
      // Direct delivery consumes this port's next sequence number; the
      // Mach 2.5 path stamps at dequeue time instead.
      msg->header.seqno = port->next_seqno++;
    }
    switch (k.model()) {
      case ControlTransferModel::kMK40: {
        DeliverDirect(receiver, msg->header, msg->body);
        if (MessageCarriesOol(msg->header)) {
          OolTransferDirect(k, t->task, receiver->task,
                            receiver->Scratch<MsgWaitState>().user_buffer);
        }
        // Wakeup-side recognition: a receiver with a specialized on_wakeup
        // handler (the netipc protocol threads) absorbs the delivery right
        // here in the sender's context and is re-parked without ever
        // becoming runnable — no handoff, no scheduler pass. The sender
        // just continues (to its own receive phase, under a combined
        // send/receive).
        if (k.ConsultWakeupRecognition(receiver)) {
          return KernReturn::kSuccess;
        }
        Port* rport = rcv_phase ? k.ipc().Lookup(args->rcv_port) : nullptr;
        // The fast path may only park us on the receive port if nothing is
        // already queued there — otherwise the queued message would wait
        // behind a blocked receiver forever.
        if (rcv_phase && k.config().enable_handoff && rport != nullptr &&
            !PortHasQueuedMessages(rport)) {
          // --- Figure 2 fast path ---------------------------------------
          // Sender blocks with mach_msg_continue (in its scratch: the
          // receive parameters) and hands its stack to the receiver.
          ++k.ipc().stats().fast_rpc_handoffs;
          EnterReceiveWait(t, msg, args->rcv_port, args->rcv_limit, args->options,
                           args->timeout);
          ThreadHandoff(ChooseReceiveContinuation(args->options, args->rcv_limit), receiver,
                        BlockReason::kMessageReceive);
          ResumeAfterHandoff(receiver);
          // NOTREACHED
        }
        // Send-only (or fast path unavailable): the receiver got its
        // message by direct copy; wake it through the scheduler — on this
        // CPU, where the just-copied message is cache-hot.
        k.ThreadSetrunOn(receiver, k.processor().id);
        return KernReturn::kSuccess;
      }
      case ControlTransferModel::kMK32: {
        DeliverDirect(receiver, msg->header, msg->body);
        if (MessageCarriesOol(msg->header)) {
          OolTransferDirect(k, t->task, receiver->task,
                            receiver->Scratch<MsgWaitState>().user_buffer);
        }
        Port* rport = rcv_phase ? k.ipc().Lookup(args->rcv_port) : nullptr;
        if (rcv_phase && rport != nullptr && !PortHasQueuedMessages(rport)) {
          // MK32's RPC optimization: skip the scheduler, context-switch
          // straight to the receiver (full register save — no handoff).
          EnterReceiveWait(t, msg, args->rcv_port, args->rcv_limit, args->options,
                           args->timeout);
          ThreadRunDirected(receiver, BlockReason::kMessageReceive);
          ProcessModelReceiveFinish(t);
          // NOTREACHED
        }
        k.ThreadSetrunOn(receiver, k.processor().id);
        return KernReturn::kSuccess;
      }
      case ControlTransferModel::kMach25:
        // Mach 2.5 always queues; the popped receiver is woken below, after
        // the message is on the queue, and rescheduled generally.
        break;
    }
  }

  // --- Queued path -----------------------------------------------------
  while (port->messages.Size() >= port->qlimit) {
    ++k.ipc().stats().send_full_blocks;
    t->wait_result = KernReturn::kSuccess;
    port->blocked_senders.EnqueueTail(t);
    t->state = ThreadState::kWaiting;
    ThreadBlock(nullptr, BlockReason::kMsgSend);  // Process model in every kernel.
    if (t->wait_result != KernReturn::kSuccess) {
      return t->wait_result;
    }
    // The block may have outlived the port: revalidate the name instead of
    // the cached pointer, which dangles once DestroyPort reclaims the slot.
    port = k.ipc().Lookup(msg->header.dest);
    if (port == nullptr) {
      return KernReturn::kSendInvalidDest;
    }
  }
  KMessage* kmsg = k.ipc().AllocKmsg(args->send_size);  // May block (kMemoryAlloc).
  if (args->send_size >= kKernelBufferTouchThreshold) {
    k.vm().KernelBufferTouch(msg->header.msg_id);  // May block (kKernelFault).
  }
  CopyIn(k, kmsg, msg, args->send_size);
  if (MessageCarriesOol(kmsg->header)) {
    KernReturn kr = OolCaptureIntoKmsg(k, t->task, kmsg);
    if (kr != KernReturn::kSuccess) {
      k.ipc().FreeKmsg(kmsg);
      return kr;
    }
  }
  // The kmsg allocation, kernel-buffer touch and OOL capture above can all
  // block, and the destination may die meanwhile — its slot reclaimed and
  // the cached pointer dangling — so revalidate by name and fail the send.
  port = k.ipc().Lookup(msg->header.dest);
  if (port == nullptr) {
    k.ipc().FreeKmsg(kmsg);
    return KernReturn::kSendInvalidDest;
  }
  port->messages.EnqueueTail(kmsg);
  k.TracePoint(TraceEvent::kIpcQueueDepth, port->id,
               static_cast<std::uint32_t>(port->messages.Size()));
  k.ChargeCycles(kCycMsgQueueOp);
  ++k.ipc().stats().queued_sends;
  if (receiver != nullptr) {
    // Mach 2.5: wake through the general scheduler, on the sending CPU —
    // the queued message it will dequeue is hot in this CPU's cache.
    k.ThreadSetrunOn(receiver, k.processor().id);
  }
  return KernReturn::kSuccess;
}

// Receive phase; never returns.
MKC_TRANSFER_PATH [[noreturn]] void MsgReceivePhase(Thread* t, MachMsgArgs* args) {
  Kernel& k = ActiveKernel();
  k.ChargeCycles(kCycMsgPhaseBase + kCycPortLookup);
  Port* port = k.ipc().Lookup(args->rcv_port);
  if (port == nullptr || args->msg == nullptr) {
    ThreadSyscallReturn(KernReturn::kNotReceiver);
  }
  const bool strict = StrictOptions(args->options, args->rcv_limit);

  Port* from = nullptr;
  if (KMessage* head = PeekQueuedFor(port, &from)) {
    if (head->header.size > args->rcv_limit) {
      ++k.ipc().stats().rcv_too_large;
      ThreadSyscallReturn(KernReturn::kRcvTooLarge);
    }
    KMessage* kmsg = from->messages.DequeueHead();
    k.TracePoint(TraceEvent::kIpcQueueDepth, from->id,
                 static_cast<std::uint32_t>(from->messages.Size()));
    kmsg->header.seqno = from->next_seqno++;
    CopyOut(k, args->msg, kmsg);
    OolDeliverFromKmsg(k, t->task, kmsg, args->msg);
    k.ipc().FreeKmsg(kmsg);
    WakeOneBlockedSender(k, from);
    if (strict) {
      StrictReceiveChecks(k, args->msg);
    }
    ThreadSyscallReturn(KernReturn::kSuccess);
  }

  EnterReceiveWait(t, args->msg, args->rcv_port, args->rcv_limit, args->options,
                   args->timeout);
  ThreadBlock(k.UsesContinuations()
                  ? ChooseReceiveContinuation(args->options, args->rcv_limit)
                  : nullptr,
              BlockReason::kMessageReceive);
  // Only the process-model kernels return from the block.
  ProcessModelReceiveFinish(t);
}

}  // namespace

MKC_TRANSFER_PATH Continuation ChooseReceiveContinuation(std::uint32_t options,
                                                         std::uint32_t rcv_limit) {
  return StrictOptions(options, rcv_limit) ? MachMsgSlowContinue : MachMsgContinue;
}

MKC_TRANSFER_PATH void EnterReceiveWait(Thread* thread, UserMessage* buffer, PortId port_id,
                                        std::uint32_t rcv_limit, std::uint32_t options,
                                        Ticks timeout) {
  Kernel& k = ActiveKernel();
  Port* port = k.ipc().Lookup(port_id);
  MKC_ASSERT(port != nullptr);
  auto& st = thread->Scratch<MsgWaitState>();
  st.user_buffer = buffer;
  st.port = port_id;
  st.rcv_limit = rcv_limit;
  st.options = options;
  st.result = KernReturn::kSuccess;
  st.flags = 0;
  port->receivers.EnqueueTail(thread);
  thread->state = ThreadState::kWaiting;
  ++thread->wait_seq;

  if (timeout != 0) {
    Kernel* kp = &k;
    std::uint32_t armed_seq = thread->wait_seq;
    k.events().Post(k.clock().Now() + timeout, [kp, thread, armed_seq] {
      // Fire only if the very wait we were armed for is still in progress.
      if (thread->wait_seq != armed_seq || thread->state != ThreadState::kWaiting) {
        return;
      }
      auto& ws = thread->Scratch<MsgWaitState>();
      if ((ws.flags & kMsgWaitDirectComplete) != 0) {
        return;
      }
      Port* p = kp->ipc().Lookup(ws.port);
      if (p != nullptr && IntrusiveQueue<Thread, &Thread::ipc_link>::OnAQueue(thread)) {
        p->receivers.Remove(thread);
      }
      ws.result = KernReturn::kRcvTimedOut;
      ws.flags |= kMsgWaitDirectComplete;
      // A specialized on_wakeup handler (the netipc engine's retransmit
      // timer) services the timeout inline and re-parks the thread.
      if (kp->ConsultWakeupRecognition(thread)) {
        return;
      }
      kp->ThreadSetrun(thread);
    });
  }
}

MKC_TRANSFER_PATH Thread* PopReceiverForDelivery(Port* port, std::uint32_t size) {
  Thread* receiver = PopEligibleReceiver(port, size);
  if (receiver == nullptr && port->owner_set != nullptr) {
    receiver = PopEligibleReceiver(port->owner_set, size);
  }
  return receiver;
}

MKC_TRANSFER_PATH KMessage* PeekQueuedFor(Port* rcv_port, Port** from) {
  if (!rcv_port->is_set) {
    *from = rcv_port;
    return rcv_port->messages.PeekHead();
  }
  // Rotate the member list so successive receives drain members fairly.
  std::size_t n = rcv_port->members.Size();
  for (std::size_t i = 0; i < n; ++i) {
    Port* member = rcv_port->members.DequeueHead();
    rcv_port->members.EnqueueTail(member);
    if (KMessage* head = member->messages.PeekHead()) {
      *from = member;
      return head;
    }
  }
  *from = nullptr;
  return nullptr;
}

MKC_TRANSFER_PATH bool PortHasQueuedMessages(Port* port) {
  Port* from = nullptr;
  return PeekQueuedFor(port, &from) != nullptr;
}

MKC_TRANSFER_PATH Thread* PopEligibleReceiver(Port* port, std::uint32_t size) {
  Kernel& k = ActiveKernel();
  for (;;) {
    Thread* receiver = port->receivers.DequeueHead();
    if (receiver == nullptr) {
      return nullptr;
    }
    auto& st = receiver->Scratch<MsgWaitState>();
    if (st.rcv_limit >= size) {
      return receiver;
    }
    // This receiver's buffer can't take the message: fail its receive and
    // keep looking (real Mach returns MACH_RCV_TOO_LARGE to that receiver).
    st.result = KernReturn::kRcvTooLarge;
    st.flags |= kMsgWaitDirectComplete;
    ++k.ipc().stats().rcv_too_large;
    k.ThreadSetrun(receiver);
  }
}

MKC_TRANSFER_PATH void DeliverDirect(Thread* receiver, const MessageHeader& header,
                                     const void* body) {
  Kernel& k = ActiveKernel();
  auto& st = receiver->Scratch<MsgWaitState>();
  MKC_ASSERT(header.size <= st.rcv_limit);
  MKC_ASSERT(st.user_buffer != nullptr);
  st.user_buffer->header = header;
  std::memcpy(st.user_buffer->body, body, header.size);
  AccountCopy(k, header.size);
  st.result = KernReturn::kSuccess;
  st.flags |= kMsgWaitDirectComplete;
  ++k.ipc().stats().direct_copies;
  k.SpanAdopt(receiver, header.span);
}

MKC_TRANSFER_PATH [[noreturn]] void ProcessModelReceiveFinish(Thread* thread) {
  Kernel& k = ActiveKernel();
  MKC_ASSERT(!k.UsesContinuations());
  for (;;) {
    auto& st = thread->Scratch<MsgWaitState>();
    const bool strict = StrictOptions(st.options, st.rcv_limit);
    if ((st.flags & kMsgWaitDirectComplete) != 0) {
      if (strict && st.result == KernReturn::kSuccess) {
        StrictReceiveChecks(k, st.user_buffer);
      }
      ThreadSyscallReturn(st.result);
    }
    if (st.result != KernReturn::kSuccess) {
      ThreadSyscallReturn(st.result);
    }
    Port* port = k.ipc().Lookup(st.port);
    if (port == nullptr) {
      ThreadSyscallReturn(KernReturn::kRcvPortDied);
    }
    Port* from = nullptr;
    if (KMessage* head = PeekQueuedFor(port, &from)) {
      if (head->header.size > st.rcv_limit) {
        ++k.ipc().stats().rcv_too_large;
        ThreadSyscallReturn(KernReturn::kRcvTooLarge);
      }
      KMessage* kmsg = from->messages.DequeueHead();
      k.TracePoint(TraceEvent::kIpcQueueDepth, from->id,
                   static_cast<std::uint32_t>(from->messages.Size()));
      kmsg->header.seqno = from->next_seqno++;
      CopyOut(k, st.user_buffer, kmsg);
      OolDeliverFromKmsg(k, thread->task, kmsg, st.user_buffer);
      k.ipc().FreeKmsg(kmsg);
      WakeOneBlockedSender(k, from);
      if (strict) {
        StrictReceiveChecks(k, st.user_buffer);
      }
      ThreadSyscallReturn(KernReturn::kSuccess);
    }
    // Spurious wakeup: wait again (stack and registers preserved).
    port->receivers.EnqueueTail(thread);
    thread->state = ThreadState::kWaiting;
    ++thread->wait_seq;
    ThreadBlock(nullptr, BlockReason::kMessageReceive);
  }
}

MKC_TRANSFER_PATH void MachMsgContinue() { FinishReceiveContinuation(/*strict=*/false); }

MKC_TRANSFER_PATH void MachMsgSlowContinue() {
  ++ActiveKernel().ipc().stats().slow_continuations;
  FinishReceiveContinuation(/*strict=*/true);
}

void RegisterIpcRecognition(RecognitionTable& table) {
  // MachMsgSlowContinue is deliberately not registered: constrained
  // receivers ("unusual options", §2.4) must run their full continuation —
  // the per-receive extra processing defeats recognition by design.
  table.Register(&MachMsgContinue, &ReceiveResumeRecognized, nullptr);
}

MKC_TRANSFER_PATH [[noreturn]] void HandleMachMsg(Thread* thread, MachMsgArgs* args) {
  if ((args->options & kMsgSendOpt) != 0) {
    KernReturn kr = MsgSendPhase(thread, args);  // May transfer away.
    if (kr != KernReturn::kSuccess) {
      ThreadSyscallReturn(kr);
    }
  }
  if ((args->options & kMsgRcvOpt) != 0) {
    MsgReceivePhase(thread, args);
    // NOTREACHED
  }
  ThreadSyscallReturn(KernReturn::kSuccess);
}

}  // namespace mkc
