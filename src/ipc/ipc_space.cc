#include "src/ipc/ipc_space.h"

#include <new>

#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/ipc/mach_msg.h"
#include "src/vm/object.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"

namespace mkc {

IpcSpace::IpcSpace(Kernel& kernel, std::size_t kmsg_zone_limit)
    : kernel_(kernel), kmsg_zone_limit_(kmsg_zone_limit) {
  const std::size_t depth = kernel.config().kmsg_magazine_depth;
  kmsg_small_zone_ = std::make_unique<Zone>(kernel, "kmsg.small",
                                            sizeof(KMessage) + kSmallKmsgBytes, depth,
                                            kCycKmsgAlloc, kCycKmsgFree);
  kmsg_full_zone_ = std::make_unique<Zone>(kernel, "kmsg.full",
                                           sizeof(KMessage) + kMaxInlineBytes, depth,
                                           kCycKmsgAlloc, kCycKmsgFree);
}

IpcSpace::~IpcSpace() {
  // Release messages still queued on ports. The zones own the backing
  // blocks and free them in their destructors; here we only drop payloads
  // the messages were carrying and empty the queues, so the Port
  // destructors never touch zone memory after it is gone.
  for (auto& port : ports_) {
    if (port == nullptr) {
      continue;
    }
    while (KMessage* kmsg = port->messages.DequeueHead()) {
      delete kmsg->ool_object;  // Undelivered out-of-line payload.
      kmsg->~KMessage();
    }
  }
}

PortId IpcSpace::AllocatePort(Task* owner) {
  auto port = std::make_unique<Port>();
  port->owner = owner;
  if (!free_slots_.empty()) {
    std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    port->id = MakePortId(slot, port_gens_[slot]);
    ports_[slot] = std::move(port);
    return ports_[slot]->id;
  }
  std::uint32_t slot = static_cast<std::uint32_t>(ports_.size());
  MKC_ASSERT_MSG(slot + 1 < kPortIndexMask, "port table exceeds the 20-bit name space");
  port->id = MakePortId(slot, 0);
  ports_.push_back(std::move(port));
  port_gens_.push_back(0);
  return ports_.back()->id;
}

PortId IpcSpace::AllocatePortSet(Task* owner) {
  PortId id = AllocatePort(owner);
  Lookup(id)->is_set = true;
  return id;
}

KernReturn IpcSpace::AddToSet(PortId port_id, PortId set_id) {
  Port* port = Lookup(port_id);
  Port* set = Lookup(set_id);
  if (port == nullptr || set == nullptr || !set->is_set || port->is_set) {
    return KernReturn::kInvalidName;
  }
  if (port->owner_set != nullptr) {
    return KernReturn::kInvalidRight;
  }
  port->owner_set = set;
  set->members.EnqueueTail(port);
  return KernReturn::kSuccess;
}

KernReturn IpcSpace::RemoveFromSet(PortId port_id) {
  Port* port = Lookup(port_id);
  if (port == nullptr || port->owner_set == nullptr) {
    return KernReturn::kInvalidName;
  }
  port->owner_set->members.Remove(port);
  port->owner_set = nullptr;
  return KernReturn::kSuccess;
}

void IpcSpace::DestroyPort(PortId id) {
  Port* port = Lookup(id);
  if (port == nullptr) {
    return;
  }
  if (death_hook_ != nullptr) {
    // Dead-name notification while the port is still intact: the hook may
    // look the port up but must not destroy ports itself.
    death_hook_(death_hook_ctx_, id);
  }
  port->alive = false;
  while (KMessage* kmsg = port->messages.DequeueHead()) {
    FreeKmsg(kmsg);
  }
  // Fail out waiting receivers: deposit the error in their wait state and
  // let them complete through their continuation / process-model resume.
  while (Thread* receiver = port->receivers.DequeueHead()) {
    auto& st = receiver->Scratch<MsgWaitState>();
    st.result = KernReturn::kRcvPortDied;
    st.flags |= kMsgWaitDirectComplete;
    kernel_.ThreadSetrun(receiver);
  }
  while (Thread* sender = port->blocked_senders.DequeueHead()) {
    sender->wait_result = KernReturn::kSendInvalidDest;
    kernel_.ThreadSetrun(sender);
  }
  // Detach set relationships in both directions before the object dies: a
  // member must not keep a back-pointer into a reclaimed set, and a dead
  // member must not linger on a surviving set's member list.
  while (Port* member = port->members.DequeueHead()) {
    member->owner_set = nullptr;
  }
  if (port->owner_set != nullptr) {
    port->owner_set->members.Remove(port);
    port->owner_set = nullptr;
  }
  std::uint32_t slot = PortSlotOf(port->id);
  port_gens_[slot] = (port_gens_[slot] + 1) & kPortGenMask;  // Stale names now miss.
  ports_[slot].reset();  // Free immediately so stale derefs are loud under ASan.
  free_slots_.push_back(slot);
}

void IpcSpace::DestroyTaskPorts(Task* task) {
  for (auto& port : ports_) {
    if (port != nullptr && port->alive && port->owner == task) {
      DestroyPort(port->id);  // May reclaim the slot and reset `port`.
    }
  }
}

bool IpcSpace::AbortThreadWait(Thread* thread) {
  for (auto& port : ports_) {
    if (port == nullptr) {
      continue;
    }
    if (port->receivers.RemoveFirstIf([thread](Thread* t) { return t == thread; }) != nullptr) {
      return true;
    }
    if (port->blocked_senders.RemoveFirstIf([thread](Thread* t) { return t == thread; }) !=
        nullptr) {
      return true;
    }
  }
  return false;
}

Zone& IpcSpace::ZoneForBody(std::uint32_t body_bytes) {
  if (body_bytes <= kSmallKmsgBytes) {
    return *kmsg_small_zone_;
  }
  return *kmsg_full_zone_;
}

KMessage* IpcSpace::ConstructKmsg(Zone& zone, std::uint32_t capacity) {
  // The element is the struct plus its trailing body storage; reconstructing
  // on every allocation means a recycled element can never leak stale state.
  auto* kmsg = new (zone.Alloc()) KMessage;
  kmsg->body = reinterpret_cast<std::byte*>(kmsg + 1);
  kmsg->body_capacity = capacity;
  return kmsg;
}

KMessage* IpcSpace::AllocKmsg(std::uint32_t body_bytes) {
  // Zone exhaustion blocks under the process model — one of the paper's
  // "memory allocation" rows that never use continuations (§3.2). The cap
  // is shared across both size classes, as the single zone's was.
  while (kmsg_in_flight_ >= kmsg_zone_limit_) {
    ++stats_.kmsg_alloc_blocks;
    kernel_.AssertWait(&kmsg_zone_limit_);
    ThreadBlock(nullptr, BlockReason::kMemoryAlloc);
  }
  ++kmsg_in_flight_;
  Zone& zone = ZoneForBody(body_bytes);
  return ConstructKmsg(zone, static_cast<std::uint32_t>(zone.elem_size() - sizeof(KMessage)));
}

KMessage* IpcSpace::TryAllocKmsg(std::uint32_t body_bytes) {
  if (kmsg_in_flight_ >= kmsg_zone_limit_) {
    return nullptr;
  }
  ++kmsg_in_flight_;
  Zone& zone = ZoneForBody(body_bytes);
  return ConstructKmsg(zone, static_cast<std::uint32_t>(zone.elem_size() - sizeof(KMessage)));
}

void IpcSpace::FreeKmsg(KMessage* kmsg) {
  MKC_ASSERT(kmsg_in_flight_ > 0);
  // Undelivered out-of-line payload (e.g. the port died): a scoped owner
  // drops it however this function exits.
  std::unique_ptr<VmObject> ool(kmsg->ool_object);
  kmsg->ool_object = nullptr;
  kmsg->ool_size = 0;
  --kmsg_in_flight_;
  Zone& zone = kmsg->body_capacity <= kSmallKmsgBytes ? *kmsg_small_zone_ : *kmsg_full_zone_;
  kmsg->~KMessage();
  zone.Free(kmsg);
  kernel_.ThreadWakeupOne(&kmsg_zone_limit_);
}

void IpcSpace::ResetZoneStats() {
  kmsg_small_zone_->ResetStats();
  kmsg_full_zone_->ResetStats();
}

}  // namespace mkc
