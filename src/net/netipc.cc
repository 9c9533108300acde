#include "src/net/netipc.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>

#include "src/base/kern_return.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/ipc/ipc_space.h"
#include "src/ipc/mach_msg.h"
#include "src/ipc/ool.h"
#include "src/ipc/port.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/net/link.h"
#include "src/task/task.h"
#include "src/vm/object.h"
#include "src/vm/vm_map.h"

namespace mkc {
namespace {

// Copy cost for a wire (de)serialization or local re-injection, identical to
// mach_msg's AccountCopy so a forwarded message is costed like a local one.
void AccountNetCopy(Kernel& k, std::uint32_t bytes) {
  std::uint64_t words = bytes / 8 + 2;
  k.cost_model().Account(CostOp::kMsgCopy, words, words);
  k.ChargeCycles(kCycMsgCopyBase + words * kCycMsgCopyPerWord);
}

}  // namespace

void NetIpcRecvContinue() { ActiveKernel().netipc()->OutboundStep(); }
void NetIpcAckContinue() { ActiveKernel().netipc()->EngineStep(); }

NetIpc::NetIpc(Kernel& kernel, int node_id, Network& net)
    : kernel_(kernel), node_id_(node_id), net_(net) {
  task_ = kernel_.CreateTask("netmsg");
  proxy_set_ = kernel_.ipc().AllocatePortSet(task_);
  ack_port_ = kernel_.ipc().AllocatePort(task_);
  // The two protocol threads. Their loop bodies double as their block
  // continuations, so under MK40 an idle netmsg server holds zero kernel
  // stacks — the paper's Table 5 economy applied to the network server.
  out_thread_ = kernel_.CreateKernelThread("netipc-out", &NetIpcRecvContinue);
  engine_thread_ = kernel_.CreateKernelThread("netipc-engine", &NetIpcAckContinue);
  // CreateKernelThread makes taskless threads; these two receive messages
  // (OOL regions land in the receiver's map), so give them the netmsg task.
  out_thread_->task = task_;
  engine_thread_->task = task_;
  kernel_.ipc().SetPortDeathHook(&NetIpc::OnPortDeath, this);
  kernel_.SetNetIpc(this);
  // Late-constructed subsystem: the kernel's registry cannot know these
  // continuations, so the profiler learns their names here.
  kernel_.continuations().Register(&NetIpcRecvContinue, "netipc_recv_continue");
  kernel_.continuations().Register(&NetIpcAckContinue, "netipc_ack_continue");
  // Wakeup-side recognition (kern/recognition.h): deliveries to the parked
  // protocol threads are serviced inline in the waker's context and the
  // threads re-parked, so the steady-state forwarding path schedules no
  // thread at all. Unregistered in the destructor — the table outlives us.
  kernel_.recognition().Register(&NetIpcRecvContinue, nullptr,
                                 &NetIpc::OutboundWakeupRecognized);
  kernel_.recognition().Register(&NetIpcAckContinue, nullptr,
                                 &NetIpc::EngineWakeupRecognized);

  // net.* metrics exist only on clustered kernels (NetIpc is constructed
  // only when nnodes > 1), keeping single-node metrics JSON byte-identical.
  auto& m = kernel_.metrics();
  m.SetLabel("node", std::to_string(node_id_));
  m.RegisterCounter("net.bytes_tx", &stats_.bytes_tx);
  m.RegisterCounter("net.bytes_rx", &stats_.bytes_rx);
  m.RegisterCounter("net.packets_tx", &stats_.packets_tx);
  m.RegisterCounter("net.packets_rx", &stats_.packets_rx);
  m.RegisterCounter("net.drops", &stats_.drops);
  m.RegisterCounter("net.dups", &stats_.dups);
  m.RegisterCounter("net.queue_full", &stats_.queue_full);
  m.RegisterCounter("net.retransmits", &stats_.retransmits);
  m.RegisterCounter("net.give_ups", &stats_.give_ups);
  m.RegisterCounter("net.acks_tx", &stats_.acks_tx);
  m.RegisterCounter("net.acks_rx", &stats_.acks_rx);
  m.RegisterCounter("net.dead_tx", &stats_.dead_tx);
  m.RegisterCounter("net.dead_rx", &stats_.dead_rx);
  m.RegisterCounter("net.rx_backpressure", &stats_.rx_backpressure);
  m.RegisterCounter("net.rx_dup_data", &stats_.rx_dup_data);
  m.RegisterCounter("net.msgs_out", &stats_.msgs_out);
  m.RegisterCounter("net.msgs_in", &stats_.msgs_in);
  m.RegisterCounter("net.proxy_gcs", &stats_.proxy_gcs);
  m.RegisterGauge("net.proxy_table", &stats_.proxy_table);
  m.RegisterCounter("net.reorders", &stats_.reorders);
  m.RegisterCounter("net.acks_piggybacked", &stats_.acks_piggybacked);
  m.RegisterCounter("net.frames_coalesced", &stats_.frames_coalesced);
  m.RegisterCounter("net.fast_retransmits", &stats_.fast_retransmits);
  m.RegisterCounter("net.rx_ooo_buffered", &stats_.rx_ooo_buffered);
  m.RegisterGauge("net.rx_ooo_hw", &stats_.rx_ooo_hw);
  m.RegisterCounter("net.bytes_goodput", &stats_.bytes_goodput);
  m.RegisterCounter("net.ool_pulls", &stats_.ool_pulls);
  m.RegisterCounter("net.ool_pushes", &stats_.ool_pushes);
  m.RegisterCounter("net.ool_bytes_pulled", &stats_.ool_bytes_pulled);
  m.RegisterCounter("net.ool_pull_fails", &stats_.ool_pull_fails);
}

NetIpc::~NetIpc() {
  kernel_.recognition().Unregister(&NetIpcRecvContinue);
  kernel_.recognition().Unregister(&NetIpcAckContinue);
  kernel_.ipc().SetPortDeathHook(nullptr, nullptr);
  kernel_.SetNetIpc(nullptr);
  for (Channel& ch : channels_) {
    for (auto& entry : ch.unacked) {
      kernel_.ipc().FreeKmsg(entry.kmsg);
    }
  }
}

void NetIpc::AttachPeers(std::vector<NetIpc*> peers) {
  peers_ = std::move(peers);
  channels_.resize(peers_.size());
  stage_.resize(peers_.size());
}

PortId NetIpc::BindProxy(int node, PortId port) {
  const auto key = std::make_pair(node, port);
  auto it = remote_to_proxy_.find(key);
  if (it != remote_to_proxy_.end()) {
    return it->second;
  }
  PortId proxy = kernel_.ipc().AllocatePort(task_);
  kernel_.ipc().AddToSet(proxy, proxy_set_);
  remote_to_proxy_[key] = proxy;
  proxy_out_[proxy] = RemoteRef{node, port};
  stats_.proxy_table = proxy_out_.size();
  return proxy;
}

// ---------------------------------------------------------------------------
// Outbound: the netipc-out protocol thread.

void NetIpc::OutboundStep() {
  Kernel& k = kernel_;
  Thread* self = out_thread_;
  MKC_ASSERT(CurrentThread() == self);

  // One burst, one batch scope: small packets emitted while draining (data,
  // piggybacked acks, engine controls from a nested kick) coalesce per peer.
  BeginBatch();

  auto& st = self->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) != 0) {
    // A local sender copied straight into out_buf_. Normally the wakeup-side
    // recognition handler (OutboundWakeupRecognized) forwards the message in
    // the sender's own context and this body never runs; we only get here
    // when it declined — kmsg zone dry, a queued backlog, an OOL capture —
    // or when recognition is disabled and the sender woke us the general
    // way.
    st.flags = 0;
    if (st.result == KernReturn::kSuccess) {
      HandleOutboundDirect(/*can_block=*/true);
    }
  }

  // Drain anything that went through the queued send path on a proxy port.
  Port* set = k.ipc().Lookup(proxy_set_);
  MKC_ASSERT(set != nullptr);
  Port* from = nullptr;
  while (PeekQueuedFor(set, &from) != nullptr) {
    KMessage* kmsg = from->messages.DequeueHead();
    k.TracePoint(TraceEvent::kIpcQueueDepth, from->id,
                 static_cast<std::uint32_t>(from->messages.Size()));
    // A queued send's captured OOL object rides the kmsg; take it for the
    // export table before FreeKmsg would drop it.
    std::unique_ptr<VmObject> qool;
    if (kmsg->ool_object != nullptr) {
      qool.reset(kmsg->ool_object);
      kmsg->ool_object = nullptr;
    }
    ForwardMessage(kmsg->header, kmsg->body,
                   static_cast<std::uint32_t>(kmsg->ool_size),
                   /*can_block=*/true, std::move(qool));
    k.ipc().FreeKmsg(kmsg);
    if (Thread* sender = from->blocked_senders.DequeueHead()) {
      sender->wait_result = KernReturn::kSuccess;
      k.ThreadSetrun(sender);
    }
  }

  FlushBatch();

  // Nothing left: block in a fresh receive on the proxy set. Under MK40 the
  // continuation discards this stack; the process models keep it and loop
  // through KernelThreadRunner.
  EnterReceiveWait(self, &out_buf_, proxy_set_, kMaxInlineBytes, 0, 0);
  ThreadBlock(k.UsesContinuations() ? &NetIpcRecvContinue : nullptr,
              BlockReason::kMessageReceive);
}

bool NetIpc::HandleOutboundDirect(bool can_block) {
  MessageHeader header = out_buf_.header;
  std::uint32_t ool_size = 0;
  std::unique_ptr<VmObject> ool_obj;
  if (MessageCarriesOol(header) && header.size >= sizeof(OolDescriptor)) {
    // The direct send path already installed the OOL region into the netmsg
    // task's map and rewrote the descriptor. Take the object back out and
    // park it in the export table until the receiving node pulls it (or
    // never does). The capture mutates the netmsg map, so it only runs on
    // the protocol thread — OutboundWakeupRecognized declines OOL messages.
    MKC_ASSERT(can_block);
    OolDescriptor desc;
    std::memcpy(&desc, out_buf_.body, sizeof(desc));
    ool_size = static_cast<std::uint32_t>(desc.size);
    VmSize removed = 0;
    ool_obj = task_->map.Remove(desc.addr, &removed);
  }
  // A no-block decline mutates nothing; the general path redoes it.
  return ForwardMessage(header, out_buf_.body, ool_size, can_block,
                        std::move(ool_obj));
}

// Specialized wakeup handler for NetIpcRecvContinue (kern/recognition.h): a
// local send to a proxy port already copied the message into out_buf_
// (DeliverDirect), so forward it to the wire right here — in the sender's
// context — and re-park the protocol thread without it ever becoming
// runnable. The paper's recognition idea applied at the wakeup site instead
// of the resume site: the thread's continuation tells us everything its
// general body would do, so we do it on the current stack.
bool NetIpc::OutboundWakeupRecognized(Kernel& k, Thread* waiter) {
  NetIpc* self = k.netipc();
  if (self == nullptr || waiter != self->out_thread_) {
    return false;
  }
  auto& st = waiter->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) == 0 ||
      st.result != KernReturn::kSuccess) {
    return false;  // Nothing delivered in place: run the general body.
  }
  // OOL sends capture the region out of the netmsg map into the export
  // table — a map mutation that belongs on the protocol thread, not in a
  // waker's (possibly event) context.
  if (MessageCarriesOol(self->out_buf_.header) &&
      self->out_buf_.header.size >= sizeof(OolDescriptor)) {
    return false;
  }
  // A queued backlog on the proxy set needs the general drain loop; don't
  // re-park the thread over unserviced work.
  Port* set = k.ipc().Lookup(self->proxy_set_);
  Port* from = nullptr;
  if (set == nullptr || PeekQueuedFor(set, &from) != nullptr) {
    return false;
  }
  if (!self->HandleOutboundDirect(/*can_block=*/false)) {
    return false;  // Kmsg zone dry: the protocol thread may block; we cannot.
  }
  st.flags = 0;
  k.NoteContRecognition(&NetIpcRecvContinue);
  k.TracePoint(TraceEvent::kRecognition, 3);
  if (waiter->block_start != 0) {
    waiter->block_start = k.LatencyNow();  // Re-parked: restart the block clock.
  }
  EnterReceiveWait(waiter, &self->out_buf_, self->proxy_set_, kMaxInlineBytes,
                   0, 0);
  return true;
}

bool NetIpc::ForwardMessage(const MessageHeader& header, const void* body,
                            std::uint32_t ool_size, bool can_block,
                            std::unique_ptr<VmObject> ool_obj) {
  Kernel& k = kernel_;
  auto it = proxy_out_.find(header.dest);
  if (it == proxy_out_.end()) {
    return true;  // Not (or no longer) a proxy; the message has nowhere to go.
  }
  const int dst_node = it->second.node;

  // The wakeup-handler path cannot block: take the wire kmsg up front with
  // TryAllocKmsg, so a dry zone declines before any protocol state mutates
  // and the general path can redo the whole forward from scratch.
  KMessage* wk = nullptr;
  if (!can_block) {
    wk = k.ipc().TryAllocKmsg(kWireHeaderBytes + header.size);
    if (wk == nullptr) {
      return false;
    }
  }

  WireHeader wire;
  wire.kind = static_cast<std::uint32_t>(WireKind::kData);
  wire.src_node = static_cast<std::uint32_t>(node_id_);
  wire.reply_node = static_cast<std::uint32_t>(node_id_);
  wire.ool_size = ool_size;
  wire.mach = header;
  wire.mach.dest = it->second.port;

  // Rewrite the reply right for the wire: a proxy reply port forwards to
  // its true home; a genuine local port is exported by name so the remote
  // node can bind a proxy back to us (and so we can broadcast its death).
  PortId local_reply = kInvalidPort;
  if (header.reply != kInvalidPort) {
    auto rit = proxy_out_.find(header.reply);
    if (rit != proxy_out_.end()) {
      wire.reply_node = static_cast<std::uint32_t>(rit->second.node);
      wire.mach.reply = rit->second.port;
    } else {
      exported_[header.reply].insert(dst_node);
      local_reply = header.reply;
    }
  }

  if (header.size > kMaxWireBody) {
    // Too big for one wire packet: fail the sender dead-name style, the
    // same way an exhausted retransmit budget does.
    if (wk != nullptr) {
      k.ipc().FreeKmsg(wk);
    }
    ++stats_.give_ups;
    FailEntry(Unacked{nullptr, 0, local_reply, 0, 0});
    return true;
  }

  // Lazy OOL: the payload does not ride the DATA packet. The captured
  // object parks in the export table under a fresh cookie; the receiver
  // installs an unpulled placeholder and the bytes move only if touched.
  if (ool_obj != nullptr && ool_size > 0) {
    wire.ool_cookie = next_ool_cookie_++;
    ool_exports_[wire.ool_cookie] = OolExport{std::move(ool_obj), ool_size};
  }
  AccountNetCopy(k, header.size);
  ++stats_.msgs_out;
  k.TracePointSpan(header.span, TraceEvent::kNetTx,
                   static_cast<std::uint32_t>(dst_node),
                   kWireHeaderBytes + header.size);
  SendSequenced(dst_node, wire, body, header.size, local_reply, wk);
  return true;
}

// ---------------------------------------------------------------------------
// Sequenced send path.

void NetIpc::SendSequenced(int dst_node, WireHeader& wire, const void* body,
                           std::uint32_t body_bytes, PortId local_reply,
                           KMessage* wk) {
  Kernel& k = kernel_;
  Channel& ch = channel(dst_node);
  wire.seq = ch.tx_next++;
  StampAck(wire, dst_node, /*count_piggyback=*/true);
  // The serialized packet lives in a zone kmsg until acked, so retransmits
  // reuse the bytes. May block on zone exhaustion unless the caller
  // pre-allocated.
  if (wk == nullptr) {
    wk = k.ipc().AllocKmsg(kWireHeaderBytes + body_bytes);
  }
  std::uint32_t len = WireSerialize(wire, body, body_bytes, wk->body,
                                    wk->body_capacity);
  MKC_ASSERT(len != 0);
  wk->header.size = len;
  const Ticks now = k.clock().Now();
  ch.unacked.push_back(Unacked{wk, wire.seq, local_reply, now + ch.rto, 1, now,
                               wire.kind, wire.ool_cookie});
  TransmitPacket(dst_node, wk->body, len);
  // The engine may be parked in an untimed receive (it had nothing unacked
  // when it last blocked): wake it so it arms the retransmit deadline.
  KickEngine();
}

std::uint64_t NetIpc::BuildSack(const Channel& ch) const {
  std::uint64_t sack = 0;
  for (const auto& [seq, raw] : ch.rx_ooo) {
    const std::uint32_t d = seq - ch.rx_expected;
    if (d < kNetRxWindow) {
      sack |= std::uint64_t{1} << d;
    }
  }
  return sack;
}

void NetIpc::StampAck(WireHeader& wire, int dst_node, bool count_piggyback) {
  Channel& ch = channel(dst_node);
  wire.ack = ch.rx_expected - 1;
  wire.sack = BuildSack(ch);
  if (ch.ack_pending) {
    // This packet carries the ack state a standalone ACK would have; the
    // delayed-ack obligation is settled for free.
    ch.ack_pending = false;
    if (count_piggyback) {
      ++stats_.acks_piggybacked;
    }
  }
}

void NetIpc::RestampAck(KMessage* wk, int dst_node) {
  // A retransmitted packet should carry current ack state, not the state at
  // first transmit: patch the serialized extension fields in place.
  Channel& ch = channel(dst_node);
  const std::uint64_t sack = BuildSack(ch);
  const std::uint32_t ack = ch.rx_expected - 1;
  std::memcpy(wk->body + offsetof(WireHeader, sack), &sack, sizeof(sack));
  std::memcpy(wk->body + offsetof(WireHeader, ack), &ack, sizeof(ack));
}

// ---------------------------------------------------------------------------
// Inbound: packet arrival (event context) and the netipc-engine thread.

void NetIpc::DeliverWire(const std::byte* bytes, std::uint32_t len) {
  Kernel& k = kernel_;
  ++stats_.packets_rx;
  stats_.bytes_rx += len;

  // Hand the packet to the engine thread as a message on the ack port, so
  // all protocol work happens in thread context (this runs inside a
  // virtual-time event and must not block).
  Port* ap = k.ipc().Lookup(ack_port_);
  MKC_ASSERT(ap != nullptr);
  MessageHeader h;
  h.dest = ack_port_;
  h.size = len;
  if (Thread* receiver = PopEligibleReceiver(ap, len)) {
    DeliverDirect(receiver, h, bytes);
    // Wakeup-side recognition: the engine's handler services the packet
    // right here, inside the delivering event, and re-parks the thread —
    // steady-state protocol processing schedules nothing.
    if (k.ConsultWakeupRecognition(receiver)) {
      return;
    }
    k.ThreadSetrun(receiver);
    if (receiver == engine_thread_) {
      engine_waiting_ = false;
    }
    return;
  }
  if (ap->messages.Size() >= ap->qlimit) {
    ++stats_.rx_backpressure;  // Engine swamped: drop, sender retransmits.
    return;
  }
  KMessage* kmsg = k.ipc().TryAllocKmsg(len);
  if (kmsg == nullptr) {
    ++stats_.rx_backpressure;
    return;
  }
  kmsg->header = h;
  std::memcpy(kmsg->body, bytes, len);
  AccountNetCopy(k, len);
  ap->messages.EnqueueTail(kmsg);
  k.ChargeCycles(kCycMsgQueueOp);
}

void NetIpc::EngineStep() {
  Thread* self = engine_thread_;
  MKC_ASSERT(CurrentThread() == self);
  engine_waiting_ = false;

  auto& st = self->Scratch<MsgWaitState>();
  if ((st.flags & kMsgWaitDirectComplete) != 0) {
    st.flags = 0;
    if (st.result == KernReturn::kSuccess) {
      // One packet can answer with a burst (fast retransmits for every SACK
      // hole it exposes); batch them so the burst rides one frame.
      BeginBatch();
      HandleWirePacket(engine_buf_.body, engine_buf_.header.size);
      FlushBatch();
    }
    // kRcvTimedOut is the retransmit timer firing — fall through to the
    // scan. This is the satellite's point: the timeout resumes us through
    // NetIpcAckContinue on a fresh stack, not by unwinding a saved one.
  }

  EngineServiceAndPark(/*from_handler=*/false);
}

void NetIpc::EngineServiceAndPark(bool from_handler) {
  Kernel& k = kernel_;
  Thread* self = engine_thread_;

  // Controls, retransmits and forwarded data emitted below stage into one
  // batch scope per service round (flushed just before the park).
  BeginBatch();

  Port* ap = k.ipc().Lookup(ack_port_);
  MKC_ASSERT(ap != nullptr);
  while (KMessage* kmsg = ap->messages.DequeueHead()) {
    HandleWirePacket(kmsg->body, kmsg->header.size);
    k.ipc().FreeKmsg(kmsg);
  }

  // Service every due deadline, then park on the earliest remaining one;
  // no deadline → wait forever (KickEngine re-arms us when traffic
  // restarts), so an idle cluster schedules no events and can terminate.
  // Transmit charges advance the virtual clock mid-scan, so a deadline
  // computed early in a burst can already be due by the time we would park
  // on it — loop until the earliest survivor is strictly in the future,
  // which is exactly the invariant the assert pins down: an armed engine
  // timer never points into the past.
  Ticks next = 0;
  while (true) {
    RetransmitScan();
    // Pull expiry: an import whose OOL_DATA train stalled past its deadline
    // dead-names its touchers instead of wedging them forever.
    std::vector<std::pair<int, std::uint32_t>> expired;
    const Ticks now = k.clock().Now();
    for (const auto& [key, imp] : imports_) {
      if (imp.deadline <= now) {
        expired.push_back(key);
      }
    }
    for (const auto& key : expired) {
      MarkImportFailed(key.first, key.second);
    }
    FlushAcks();
    next = 0;
    for (const Channel& ch : channels_) {
      for (auto it = ch.unacked.begin(); it != ch.unacked.end(); ++it) {
        if (it->sacked && it != ch.unacked.begin()) {
          continue;  // Parked at the receiver; no deadline to honor.
        }
        if (next == 0 || it->deadline < next) {
          next = it->deadline;
        }
      }
      if (ch.ack_pending && (next == 0 || ch.ack_deadline < next)) {
        next = ch.ack_deadline;
      }
    }
    for (const auto& [key, imp] : imports_) {
      if (next == 0 || imp.deadline < next) {
        next = imp.deadline;
      }
    }
    if (next == 0 || next > k.clock().Now()) {
      break;
    }
  }
  const Ticks now = k.clock().Now();
  MKC_ASSERT(next == 0 || next > now);
  const Ticks timeout = next != 0 ? next - now : 0;

  FlushBatch();
  engine_waiting_ = true;
  EnterReceiveWait(self, &engine_buf_, ack_port_, kMaxInlineBytes, 0, timeout);
  if (!from_handler) {
    ThreadBlock(k.UsesContinuations() ? &NetIpcAckContinue : nullptr,
                BlockReason::kMessageReceive);
  }
  // from_handler: the engine never stopped being blocked — EnterReceiveWait
  // re-enqueued it (and bumped wait_seq, invalidating any stale timeout);
  // its continuation is still NetIpcAckContinue, so it is again a
  // well-formed parked waiter without ever having been scheduled.
}

// Specialized wakeup handler for NetIpcAckContinue (kern/recognition.h).
// Three wakeup flavors reach the parked engine, and all are serviced inline
// in the waker's context: a direct-delivered wire packet (DeliverWire), the
// retransmit timeout (EnterReceiveWait's timer event), and a KickEngine
// deadline re-arm (no kMsgWaitDirectComplete at all). Each ends with the
// engine re-parked in a fresh timed receive, never scheduled.
bool NetIpc::EngineWakeupRecognized(Kernel& k, Thread* waiter) {
  NetIpc* self = k.netipc();
  if (self == nullptr || waiter != self->engine_thread_) {
    return false;
  }
  auto& st = waiter->Scratch<MsgWaitState>();
  const bool direct = (st.flags & kMsgWaitDirectComplete) != 0;
  if (direct && st.result != KernReturn::kSuccess &&
      st.result != KernReturn::kRcvTimedOut) {
    return false;  // Unexpected verdict: let the general body sort it out.
  }
  self->engine_waiting_ = false;
  k.NoteContRecognition(&NetIpcAckContinue);
  k.TracePoint(TraceEvent::kRecognition, 4);
  if (direct) {
    st.flags = 0;
    if (st.result == KernReturn::kSuccess) {
      // As in EngineStep: the packet's response burst shares one frame.
      self->BeginBatch();
      self->HandleWirePacket(self->engine_buf_.body,
                             self->engine_buf_.header.size);
      self->FlushBatch();
    }
    // kRcvTimedOut is the retransmit timer: nothing to deliver, the scan
    // below does the work — on the event's stack, not a resumed thread's.
  }
  if (waiter->block_start != 0) {
    waiter->block_start = k.LatencyNow();  // Re-parked: restart the block clock.
  }
  self->EngineServiceAndPark(/*from_handler=*/true);
  return true;
}

void NetIpc::KickEngine() {
  if (!engine_waiting_ || engine_thread_->state != ThreadState::kWaiting) {
    return;
  }
  Port* ap = kernel_.ipc().Lookup(ack_port_);
  if (ap != nullptr &&
      IntrusiveQueue<Thread, &Thread::ipc_link>::OnAQueue(engine_thread_)) {
    ap->receivers.Remove(engine_thread_);
  }
  engine_waiting_ = false;
  // The engine's wakeup handler treats a kick (no deposited message) as
  // "recompute the deadline and re-park" — no scheduling round trip.
  if (kernel_.ConsultWakeupRecognition(engine_thread_)) {
    return;
  }
  kernel_.ThreadSetrun(engine_thread_);  // Spurious wake: EngineStep re-arms.
}

void NetIpc::HandleWirePacket(const std::byte* bytes, std::uint32_t len) {
  WireHeader wire;
  const std::byte* body = nullptr;
  std::uint32_t body_bytes = 0;
  if (!WireDeserialize(bytes, len, &wire, &body, &body_bytes)) {
    return;
  }
  // The header's node ids index the peer and channel tables: a corrupted
  // one is dropped like an unparsable packet, before it touches any state.
  if (wire.src_node >= peers_.size() ||
      wire.src_node == static_cast<std::uint32_t>(node_id_) ||
      wire.reply_node >= peers_.size()) {
    return;
  }
  const int src = static_cast<int>(wire.src_node);
  Channel& ch = channel(src);

  switch (static_cast<WireKind>(wire.kind)) {
    case WireKind::kFrameBatch: {
      // Coalesced frame: unpack the [u32 len][packet] records and process
      // each as if it had arrived alone. Sub-packets are never batches.
      const std::byte* p = body;
      std::uint32_t remaining = body_bytes;
      while (remaining >= sizeof(std::uint32_t)) {
        std::uint32_t sublen = 0;
        std::memcpy(&sublen, p, sizeof(sublen));
        p += sizeof(sublen);
        remaining -= sizeof(sublen);
        if (sublen == 0 || sublen > remaining) {
          break;  // Corrupt framing: drop the rest; retransmission recovers.
        }
        HandleWirePacket(p, sublen);
        p += sublen;
        remaining -= sublen;
      }
      return;
    }
    case WireKind::kAck:
      ++stats_.acks_rx;
      ProcessAckInfo(src, ch, wire.ack, wire.sack);
      return;
    case WireKind::kDead:
      // The remote destination died after consuming `seq` in order, so its
      // cumulative ack already covers it: pop through seq, failing the exact
      // entry back to the local sender.
      ++stats_.dead_rx;
      PopAcked(ch, wire.seq);
      ProcessAckInfo(src, ch, wire.ack, wire.sack);
      return;
    case WireKind::kPortDeath: {
      auto it = remote_to_proxy_.find(std::make_pair(src, wire.seq));
      if (it != remote_to_proxy_.end()) {
        PortId proxy = it->second;
        remote_to_proxy_.erase(it);
        proxy_out_.erase(proxy);
        ++stats_.proxy_gcs;
        stats_.proxy_table = proxy_out_.size();
        // Maps first, then the port: DestroyPort re-enters OnPortDeath,
        // which must find nothing.
        kernel_.ipc().DestroyPort(proxy);
      }
      return;
    }
    case WireKind::kData:
    case WireKind::kOolPull:
    case WireKind::kOolData:
      HandleSequenced(src, ch, wire, body, bytes, len);
      return;
  }
}

// ---------------------------------------------------------------------------
// Sequenced receive path.

void NetIpc::HandleSequenced(int src, Channel& ch, const WireHeader& wire,
                             const std::byte* body, const std::byte* packet,
                             std::uint32_t packet_len) {
  // Every sequenced packet piggybacks ack state for the reverse direction.
  ProcessAckInfo(src, ch, wire.ack, wire.sack);

  if (wire.seq < ch.rx_expected) {
    ++stats_.rx_dup_data;
    ScheduleAck(src, 0);  // Re-ack immediately so the sender's window moves.
    return;
  }
  if (wire.seq > ch.rx_expected) {
    // A gap: hold the raw packet for in-order replay if it fits the SACK
    // window; either way ack immediately so the bitmap reports the hole and
    // the sender fast-retransmits exactly the missing packets.
    const std::uint32_t gap = wire.seq - ch.rx_expected;
    if (gap < kNetRxWindow) {
      auto [it, inserted] = ch.rx_ooo.emplace(
          wire.seq, std::vector<std::byte>(packet, packet + packet_len));
      if (inserted) {
        ++stats_.rx_ooo_buffered;
        if (ch.rx_ooo.size() > stats_.rx_ooo_hw) {
          stats_.rx_ooo_hw = ch.rx_ooo.size();
        }
        AccountNetCopy(kernel_, packet_len);
      }
    }
    ScheduleAck(src, 0);
    return;
  }
  if (!DeliverSequenced(src, ch, wire, body, wire.mach.size)) {
    return;  // Backpressure: no ack, no advance; the sender retransmits.
  }
  DrainOoo(src, ch);
}

bool NetIpc::DeliverSequenced(int src, Channel& ch, const WireHeader& wire,
                              const std::byte* body, std::uint32_t body_bytes) {
  InjectResult r;
  switch (static_cast<WireKind>(wire.kind)) {
    case WireKind::kOolPull:
      r = HandleOolPull(wire);
      break;
    case WireKind::kOolData:
      r = HandleOolChunk(wire, body_bytes);
      break;
    default:
      r = InjectLocal(wire, body);
      break;
  }
  switch (r) {
    case InjectResult::kOk:
      ++ch.rx_expected;
      // The common case rides outbound data (StampAck); the delayed-ack
      // timer only fires for one-way traffic with no reverse packets.
      ScheduleAck(src, kNetAckDelay);
      return true;
    case InjectResult::kDead:
      ++ch.rx_expected;
      SendControl(src, WireKind::kDead, wire.seq);
      return true;
    case InjectResult::kBackpressure:
      ++stats_.rx_backpressure;
      return false;
  }
  return false;
}

void NetIpc::DrainOoo(int src, Channel& ch) {
  while (true) {
    auto it = ch.rx_ooo.begin();
    // Entries below rx_expected are stale (the sender retransmitted an
    // in-order copy past a backpressure stall): drop them.
    while (it != ch.rx_ooo.end() && it->first < ch.rx_expected) {
      it = ch.rx_ooo.erase(it);
    }
    if (it == ch.rx_ooo.end() || it->first != ch.rx_expected) {
      return;
    }
    WireHeader wire;
    const std::byte* body = nullptr;
    std::uint32_t body_bytes = 0;
    if (!WireDeserialize(it->second.data(),
                         static_cast<std::uint32_t>(it->second.size()), &wire,
                         &body, &body_bytes)) {
      ch.rx_ooo.erase(it);  // Cannot happen: it deserialized on arrival.
      continue;
    }
    if (!DeliverSequenced(src, ch, wire, body, wire.mach.size)) {
      return;  // Backpressure: keep it buffered; a retransmit retries us.
    }
    ch.rx_ooo.erase(it);
  }
}

void NetIpc::ProcessAckInfo(int node, Channel& ch, std::uint32_t ack,
                            std::uint64_t sack) {
  const Ticks now = kernel_.clock().Now();
  auto acked = ch.unacked.begin();
  for (; acked != ch.unacked.end() && acked->seq <= ack; ++acked) {
    if (acked->attempts == 1) {
      // Karn's rule: only never-retransmitted entries give unambiguous
      // round-trip samples.
      ObserveRtt(ch, now - acked->sent_at);
    }
    kernel_.ipc().FreeKmsg(acked->kmsg);
  }
  ch.unacked.erase(ch.unacked.begin(), acked);
  if (ch.unacked.empty()) {
    return;
  }
  // SACK: bit i covers seq ack+1+i. Mark what the receiver holds so the
  // retransmit scan skips it.
  std::uint32_t highest_sacked = 0;
  bool any_sacked = false;
  for (auto& entry : ch.unacked) {
    const std::uint32_t d = entry.seq - ack;
    if (d >= 1 && d - 1 < kNetRxWindow &&
        ((sack >> (d - 1)) & std::uint64_t{1}) != 0) {
      entry.sacked = true;
    }
    if (entry.sacked) {
      highest_sacked = entry.seq;
      any_sacked = true;
    }
  }
  if (!any_sacked) {
    return;
  }
  // Fast retransmit: a hole below a SACKed packet is loss evidence — the
  // link model reorders by at most one bounded delay, so waiting out the
  // full RTO just stretches the tail. One shot per entry; the RTO path
  // still backs off if the resend is lost too.
  for (auto& entry : ch.unacked) {
    if (entry.seq >= highest_sacked) {
      break;
    }
    if (entry.sacked || entry.fast_retx ||
        entry.attempts >= kNetMaxSendAttempts) {
      continue;
    }
    entry.fast_retx = true;
    ++entry.attempts;
    ++stats_.retransmits;
    ++stats_.fast_retransmits;
    std::uint32_t shift = entry.attempts - 1;
    if (shift > kNetMaxBackoffShift) {
      shift = kNetMaxBackoffShift;
    }
    entry.deadline = now + (ch.rto << shift);
    RestampAck(entry.kmsg, node);
    TransmitPacket(node, entry.kmsg->body, entry.kmsg->header.size);
  }
}

void NetIpc::ObserveRtt(Channel& ch, Ticks sample) {
  if (ch.srtt == 0) {
    ch.srtt = sample;
    ch.rttvar = sample / 2;
  } else {
    const Ticks err = sample > ch.srtt ? sample - ch.srtt : ch.srtt - sample;
    ch.rttvar = (3 * ch.rttvar + err) / 4;
    ch.srtt = (7 * ch.srtt + sample) / 8;
  }
  Ticks rto = ch.srtt + 4 * ch.rttvar;
  if (rto < kNetMinRto) {
    rto = kNetMinRto;  // Floor: above delayed-ack flush + one transit.
  }
  if (rto > kNetRetransmitBase) {
    rto = kNetRetransmitBase;
  }
  ch.rto = rto;
}

void NetIpc::ScheduleAck(int src, Ticks delay) {
  Channel& ch = channel(src);
  const Ticks deadline = kernel_.clock().Now() + delay;
  if (!ch.ack_pending || deadline < ch.ack_deadline) {
    ch.ack_deadline = deadline;
  }
  ch.ack_pending = true;
}

void NetIpc::FlushAcks() {
  const Ticks now = kernel_.clock().Now();
  for (std::size_t node = 0; node < channels_.size(); ++node) {
    const Channel& ch = channels_[node];
    if (ch.ack_pending && ch.ack_deadline <= now) {
      // SendControl stamps the current ack/SACK and clears ack_pending.
      SendControl(static_cast<int>(node), WireKind::kAck, ch.rx_expected - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Local injection and controls.

NetIpc::InjectResult NetIpc::InjectLocal(const WireHeader& wire,
                                         const std::byte* body) {
  Kernel& k = kernel_;
  Port* port = k.ipc().Lookup(wire.mach.dest);
  if (port == nullptr) {
    return InjectResult::kDead;
  }

  MessageHeader h = wire.mach;
  if (h.reply != kInvalidPort && static_cast<int>(wire.reply_node) != node_id_) {
    // Bind (or reuse) a proxy for the sender's reply port, so the local
    // server's reply takes the same transparent path back.
    h.reply = BindProxy(static_cast<int>(wire.reply_node), wire.mach.reply);
  }

  // From here this is a genuine local mach_msg send, costed as one.
  k.ChargeCycles(kCycMsgPhaseBase + kCycPortLookup);
  ++k.ipc().stats().messages_sent;
  ++stats_.msgs_in;
  stats_.bytes_goodput += h.size;
  k.TracePointSpan(h.span, TraceEvent::kNetRx, wire.src_node,
                   kWireHeaderBytes + h.size);

  const bool mach25 = k.model() == ControlTransferModel::kMach25;
  if (!mach25) {
    Thread* receiver = PopReceiverForDelivery(port, h.size);
    if (receiver != nullptr &&
        (receiver->Scratch<MsgWaitState>().flags & kMsgWaitKernelEndpoint) != 0) {
      // Kernel-endpoint waiters (exception replies) are not netipc's to
      // complete; put it back and fall to the queue.
      port->receivers.EnqueueHead(receiver);
      receiver = nullptr;
    }
    if (receiver != nullptr) {
      h.seqno = port->next_seqno++;
      DeliverDirect(receiver, h, body);
      if (MessageCarriesOol(h) && wire.ool_size > 0) {
        // Re-materialize the OOL region receiver-side. With a pull cookie it
        // is installed *unpulled*: a kPaged object whose first touch issues
        // OOL_PULL back to the source (NORMA copy-on-reference). Otherwise
        // the pages are zero-fill — the copy-on-reference contents stay
        // behind on the sending node.
        std::unique_ptr<VmObject> object;
        if (wire.ool_cookie != 0) {
          object = std::make_unique<VmObject>(VmBacking::kPaged,
                                              PageRound(wire.ool_size));
          object->remote_pull = RemotePull::kUnpulled;
          object->remote_src = wire.src_node;
          object->remote_cookie = wire.ool_cookie;
          object->remote_size = wire.ool_size;
        } else {
          object = std::make_unique<VmObject>(VmBacking::kZeroFill,
                                              PageRound(wire.ool_size));
        }
        OolDescriptor desc;
        desc.size = wire.ool_size;
        desc.addr = OolInstall(k, receiver->task, std::move(object), desc.size);
        std::memcpy(receiver->Scratch<MsgWaitState>().user_buffer->body, &desc,
                    sizeof(desc));
      }
      // Multi-hop forwarding: if the local destination is itself a proxy,
      // the receiver is our own netipc-out thread and its wakeup handler
      // forwards the message onward without scheduling it.
      if (k.ConsultWakeupRecognition(receiver)) {
        return InjectResult::kOk;
      }
      k.ThreadSetrunOn(receiver, k.processor().id);
      return InjectResult::kOk;
    }
  }

  // Queued path. Unlike a local sender we cannot block on a full queue or
  // an empty zone — we are the engine thread, and stalling it would stall
  // every channel — so both become backpressure: no ack, sender retransmits.
  if (port->messages.Size() >= port->qlimit) {
    return InjectResult::kBackpressure;
  }
  KMessage* kmsg = k.ipc().TryAllocKmsg(h.size);
  if (kmsg == nullptr) {
    return InjectResult::kBackpressure;
  }
  kmsg->header = h;
  std::memcpy(kmsg->body, body, h.size);
  AccountNetCopy(k, h.size);
  if (MessageCarriesOol(h) && wire.ool_size > 0) {
    if (wire.ool_cookie != 0) {
      auto* obj = new VmObject(VmBacking::kPaged, PageRound(wire.ool_size));
      obj->remote_pull = RemotePull::kUnpulled;
      obj->remote_src = wire.src_node;
      obj->remote_cookie = wire.ool_cookie;
      obj->remote_size = wire.ool_size;
      kmsg->ool_object = obj;
    } else {
      kmsg->ool_object =
          new VmObject(VmBacking::kZeroFill, PageRound(wire.ool_size));
    }
    kmsg->ool_size = wire.ool_size;
  }
  Thread* receiver = mach25 ? PopReceiverForDelivery(port, h.size) : nullptr;
  port->messages.EnqueueTail(kmsg);
  k.TracePoint(TraceEvent::kIpcQueueDepth, port->id,
               static_cast<std::uint32_t>(port->messages.Size()));
  k.ChargeCycles(kCycMsgQueueOp);
  ++k.ipc().stats().queued_sends;
  if (receiver != nullptr) {
    k.ThreadSetrunOn(receiver, k.processor().id);
  }
  return InjectResult::kOk;
}

void NetIpc::SendControl(int dst_node, WireKind kind, std::uint32_t seq) {
  WireHeader wire;
  wire.kind = static_cast<std::uint32_t>(kind);
  wire.src_node = static_cast<std::uint32_t>(node_id_);
  wire.seq = seq;
  // Every control carries full ack state for its channel, which also
  // settles any pending delayed ack.
  Channel& ch = channel(dst_node);
  wire.ack = ch.rx_expected - 1;
  wire.sack = BuildSack(ch);
  ch.ack_pending = false;
  std::byte buf[kWireHeaderBytes];
  std::uint32_t len = WireSerialize(wire, nullptr, 0, buf, sizeof(buf));
  MKC_ASSERT(len == kWireHeaderBytes);
  if (kind == WireKind::kAck) {
    ++stats_.acks_tx;
  } else if (kind == WireKind::kDead) {
    ++stats_.dead_tx;
  }
  TransmitPacket(dst_node, buf, len);
}

void NetIpc::PopAcked(Channel& ch, std::uint32_t seq) {
  auto acked = ch.unacked.begin();
  for (; acked != ch.unacked.end() && acked->seq <= seq; ++acked) {
    if (acked->seq == seq) {
      FailEntry(*acked);  // The remote destination died: dead-name the sender.
    }
    kernel_.ipc().FreeKmsg(acked->kmsg);
  }
  ch.unacked.erase(ch.unacked.begin(), acked);
}

void NetIpc::FailEntry(const Unacked& entry) {
  if (static_cast<WireKind>(entry.kind) == WireKind::kData &&
      entry.ool_cookie != 0) {
    // The DATA carrying this lazy payload will never be delivered (or its
    // destination died unpulled): the export can never be pulled, drop it.
    ool_exports_.erase(entry.ool_cookie);
  }
  if (entry.local_reply == kInvalidPort) {
    return;
  }
  Port* port = kernel_.ipc().Lookup(entry.local_reply);
  if (port == nullptr) {
    return;
  }
  // Dead-name style: whoever is waiting for the reply learns the RPC died.
  while (Thread* receiver = port->receivers.DequeueHead()) {
    auto& st = receiver->Scratch<MsgWaitState>();
    st.result = KernReturn::kRcvPortDied;
    st.flags |= kMsgWaitDirectComplete;
    kernel_.ThreadSetrun(receiver);
  }
}

void NetIpc::RetransmitScan() {
  const Ticks now = kernel_.clock().Now();
  // Selective repeat: every entry carries its own deadline and is resent
  // alone — a loss costs one packet, not the window. SACKed entries sit at
  // the receiver and are skipped, except the *head*: a head both SACKed and
  // past its deadline means the receiver has it buffered but could not
  // deliver it (backpressure mid-drain), and only a retransmit retries that
  // delivery — so the head's deadline stays live for liveness.
  for (std::size_t n = 0; n < channels_.size(); ++n) {
    const int node = static_cast<int>(n);
    Channel& ch = channels_[n];
    bool gave_up = false;
    for (auto it = ch.unacked.begin(); it != ch.unacked.end(); ++it) {
      Unacked& entry = *it;
      if ((entry.sacked && it != ch.unacked.begin()) || entry.deadline > now) {
        continue;
      }
      if (entry.attempts >= kNetMaxSendAttempts) {
        gave_up = true;
        break;
      }
      ++stats_.retransmits;
      ++entry.attempts;
      std::uint32_t shift = entry.attempts - 1;
      if (shift > kNetMaxBackoffShift) {
        shift = kNetMaxBackoffShift;  // Backoff is capped, never unbounded.
      }
      entry.deadline = now + (ch.rto << shift);
      RestampAck(entry.kmsg, node);
      TransmitPacket(node, entry.kmsg->body, entry.kmsg->header.size);
    }
    if (gave_up) {
      // One entry exhausted its budget: the peer (or the link) is gone.
      // Fail the whole channel's window — selective repeat has no ordering
      // to salvage behind a permanently lost packet.
      GiveUpChannel(node, ch);
    }
  }
}

void NetIpc::GiveUpChannel(int node, Channel& ch) {
  for (auto& entry : ch.unacked) {
    ++stats_.give_ups;
    FailEntry(entry);
    if (static_cast<WireKind>(entry.kind) == WireKind::kOolPull &&
        entry.ool_cookie != 0) {
      // The pull request itself is undeliverable: fail the import so its
      // touchers unblock with a bad-access, not a hang.
      MarkImportFailed(node, entry.ool_cookie);
    }
    kernel_.ipc().FreeKmsg(entry.kmsg);
  }
  ch.unacked.clear();
}

// ---------------------------------------------------------------------------
// Lazy-pull OOL.

NetIpc::OolGate NetIpc::OolFaultPrepare(VmObject* object) {
  switch (object->remote_pull) {
    case RemotePull::kNone:
      return OolGate::kReady;
    case RemotePull::kFailed:
      return OolGate::kFailed;
    case RemotePull::kPulling:
      return OolGate::kWait;  // Ride the pull a first toucher issued.
    case RemotePull::kUnpulled:
      break;
  }
  object->remote_pull = RemotePull::kPulling;
  const auto key = std::make_pair(static_cast<int>(object->remote_src),
                                  object->remote_cookie);
  OolImport& imp = imports_[key];
  imp.object = object;
  imp.size = object->remote_size;
  imp.received = 0;
  imp.deadline = kernel_.clock().Now() + kNetOolPullDeadline;
  ++stats_.ool_pulls;
  // May block on kmsg-zone exhaustion — we are on the faulting thread,
  // which is allowed to. Concurrent touchers already see kPulling.
  RequestOolPull(static_cast<int>(object->remote_src), object->remote_cookie);
  return OolGate::kWait;
}

void NetIpc::RequestOolPull(int src_node, std::uint32_t cookie) {
  WireHeader wire;
  wire.kind = static_cast<std::uint32_t>(WireKind::kOolPull);
  wire.src_node = static_cast<std::uint32_t>(node_id_);
  wire.ool_cookie = cookie;
  SendSequenced(src_node, wire, nullptr, 0, kInvalidPort, nullptr);
}

NetIpc::InjectResult NetIpc::HandleOolPull(const WireHeader& wire) {
  auto it = ool_exports_.find(wire.ool_cookie);
  if (it == ool_exports_.end()) {
    return InjectResult::kOk;  // Already served or dropped: ack the dup pull.
  }
  const std::uint32_t total = it->second.size;
  const std::uint32_t nchunks = (total + kMaxWireBody - 1) / kMaxWireBody;
  // Reserve every chunk kmsg up front: either the whole OOL_DATA train goes
  // out, or nothing does and the unacked pull retransmits into a less-dry
  // zone later.
  std::vector<KMessage*> wks;
  wks.reserve(nchunks);
  for (std::uint32_t i = 0; i < nchunks; ++i) {
    const std::uint32_t off = i * kMaxWireBody;
    const std::uint32_t chunk = std::min(kMaxWireBody, total - off);
    KMessage* wk = kernel_.ipc().TryAllocKmsg(kWireHeaderBytes + chunk);
    if (wk == nullptr) {
      for (KMessage* w : wks) {
        kernel_.ipc().FreeKmsg(w);
      }
      return InjectResult::kBackpressure;
    }
    wks.push_back(wk);
  }
  // The simulation models OOL contents as zeros; what matters is that the
  // bytes cross the wire and are paid for.
  static const std::byte kZeros[kMaxWireBody] = {};
  const int dst = static_cast<int>(wire.src_node);
  for (std::uint32_t i = 0; i < nchunks; ++i) {
    const std::uint32_t off = i * kMaxWireBody;
    const std::uint32_t chunk = std::min(kMaxWireBody, total - off);
    WireHeader out;
    out.kind = static_cast<std::uint32_t>(WireKind::kOolData);
    out.src_node = static_cast<std::uint32_t>(node_id_);
    out.ool_size = total;
    out.ool_cookie = wire.ool_cookie;
    out.mach.msg_id = off;  // Chunk byte offset, for the curious tracer.
    out.mach.size = chunk;
    AccountNetCopy(kernel_, chunk);
    SendSequenced(dst, out, kZeros, chunk, kInvalidPort, wks[i]);
  }
  ++stats_.ool_pushes;
  stats_.ool_bytes_pulled += total;
  ool_exports_.erase(it);
  return InjectResult::kOk;
}

NetIpc::InjectResult NetIpc::HandleOolChunk(const WireHeader& wire,
                                            std::uint32_t body_bytes) {
  const auto key =
      std::make_pair(static_cast<int>(wire.src_node), wire.ool_cookie);
  auto it = imports_.find(key);
  if (it == imports_.end()) {
    return InjectResult::kOk;  // Pull already completed or failed: ack the dup.
  }
  AccountNetCopy(kernel_, body_bytes);
  stats_.bytes_goodput += body_bytes;
  OolImport& imp = it->second;
  imp.received += body_bytes;
  if (imp.received >= imp.size) {
    // Train complete. The object pages in from "disk" like any kPaged
    // object from here on; wake every toucher parked on it to retry the
    // fault through the normal path.
    VmObject* obj = imp.object;
    imports_.erase(it);
    obj->remote_pull = RemotePull::kNone;
    kernel_.ThreadWakeupAll(obj);
  }
  return InjectResult::kOk;
}

void NetIpc::MarkImportFailed(int src_node, std::uint32_t cookie) {
  const auto key = std::make_pair(src_node, cookie);
  auto it = imports_.find(key);
  if (it == imports_.end()) {
    return;
  }
  VmObject* obj = it->second.object;
  imports_.erase(it);
  obj->remote_pull = RemotePull::kFailed;
  ++stats_.ool_pull_fails;
  // Touchers wake, retry the fault, hit the kFailed gate and take a
  // bad-access exception — dead-name semantics for memory.
  kernel_.ThreadWakeupAll(obj);
}

// ---------------------------------------------------------------------------
// Small-frame coalescing.

void NetIpc::BeginBatch() { ++batch_depth_; }

void NetIpc::FlushBatch() {
  MKC_ASSERT(batch_depth_ > 0);
  if (--batch_depth_ > 0) {
    return;  // Nested scope: the outermost close flushes.
  }
  for (std::size_t node = 0; node < stage_.size(); ++node) {
    FlushStage(static_cast<int>(node), stage_[node]);
  }
}

void NetIpc::FlushStage(int dst_node, Stage& stage) {
  if (stage.count == 0) {
    return;
  }
  if (stage.count == 1) {
    // A lone packet gains nothing from framing: strip the record header and
    // send it raw.
    net_.Transmit(*this, *peers_[static_cast<std::size_t>(dst_node)],
                  stage.bytes.data() + sizeof(std::uint32_t),
                  static_cast<std::uint32_t>(stage.bytes.size()) -
                      static_cast<std::uint32_t>(sizeof(std::uint32_t)));
  } else {
    WireHeader wire;
    wire.kind = static_cast<std::uint32_t>(WireKind::kFrameBatch);
    wire.src_node = static_cast<std::uint32_t>(node_id_);
    wire.mach.size = static_cast<std::uint32_t>(stage.bytes.size());
    std::byte buf[kMaxInlineBytes];
    std::uint32_t len =
        WireSerialize(wire, stage.bytes.data(),
                      static_cast<std::uint32_t>(stage.bytes.size()), buf,
                      sizeof(buf));
    MKC_ASSERT(len != 0);
    ++stats_.frames_coalesced;
    net_.Transmit(*this, *peers_[static_cast<std::size_t>(dst_node)], buf, len);
  }
  stage.bytes.clear();
  stage.count = 0;
}

void NetIpc::TransmitPacket(int dst_node, const std::byte* bytes,
                            std::uint32_t len) {
  // Only small packets inside an open batch scope stage; everything else —
  // large DATA, emissions outside a burst — goes straight to the wire.
  if (batch_depth_ == 0 || len > kSmallKmsgBytes) {
    net_.Transmit(*this, *peers_[static_cast<std::size_t>(dst_node)], bytes,
                  len);
    return;
  }
  Stage& stage = stage_[static_cast<std::size_t>(dst_node)];
  if (kWireHeaderBytes + stage.bytes.size() + sizeof(std::uint32_t) + len >
      kMaxInlineBytes) {
    FlushStage(dst_node, stage);  // Frame full: ship it, start the next.
  }
  const std::uint32_t len32 = len;
  const std::byte* lp = reinterpret_cast<const std::byte*>(&len32);
  stage.bytes.insert(stage.bytes.end(), lp, lp + sizeof(len32));
  stage.bytes.insert(stage.bytes.end(), bytes, bytes + len);
  ++stage.count;
}

void NetIpc::OnPortDeath(void* ctx, PortId id) {
  NetIpc* self = static_cast<NetIpc*>(ctx);
  auto pit = self->proxy_out_.find(id);
  if (pit != self->proxy_out_.end()) {
    // A local proxy died: forget the binding (a later BindProxy for the
    // same remote port mints a fresh proxy).
    self->remote_to_proxy_.erase(
        std::make_pair(pit->second.node, pit->second.port));
    self->proxy_out_.erase(pit);
    self->stats_.proxy_table = self->proxy_out_.size();
  }
  auto eit = self->exported_.find(id);
  if (eit != self->exported_.end()) {
    // A port some peer holds a proxy for died: broadcast PORT_DEATH so the
    // remote entries are reclaimed, not leaked. Fire and forget — a lost
    // packet only delays GC until the remote proxy dies on its own.
    for (int node : eit->second) {
      WireHeader wire;
      wire.kind = static_cast<std::uint32_t>(WireKind::kPortDeath);
      wire.src_node = static_cast<std::uint32_t>(self->node_id_);
      wire.seq = id;
      std::byte buf[kWireHeaderBytes];
      std::uint32_t len = WireSerialize(wire, nullptr, 0, buf, sizeof(buf));
      self->net_.Transmit(*self, *self->peers_[static_cast<std::size_t>(node)],
                          buf, len);
    }
    self->exported_.erase(eit);
  }
}

}  // namespace mkc
