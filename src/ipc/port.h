// Ports: kernel message queues with waiting-thread queues attached.
#ifndef MACHCONT_SRC_IPC_PORT_H_
#define MACHCONT_SRC_IPC_PORT_H_

#include <cstdint>

#include "src/base/queue.h"
#include "src/base/types.h"
#include "src/ipc/message.h"
#include "src/kern/thread.h"

namespace mkc {

struct Task;

// Generation-tagged port names. A PortId packs (generation << 20) |
// (slot + 1): 20 bits of table index, 12 bits of generation. A fresh slot
// starts at generation 0, so its name is simply slot + 1;
// DestroyPort bumps the slot's generation, so any name minted before the
// destroy decodes to a mismatched generation and Lookup fails it — stale
// names are detected in O(1) while the slot itself is reused immediately.
// The generation wraps at 4096 reuses of one slot, after which a name from
// 4096 lifetimes ago would alias (the classic tagged-handle tradeoff).
inline constexpr std::uint32_t kPortIndexBits = 20;
inline constexpr std::uint32_t kPortIndexMask = (1u << kPortIndexBits) - 1;
inline constexpr std::uint32_t kPortGenMask = (1u << (32 - kPortIndexBits)) - 1;

inline constexpr PortId MakePortId(std::uint32_t slot, std::uint32_t gen) {
  return ((gen & kPortGenMask) << kPortIndexBits) | ((slot + 1) & kPortIndexMask);
}
// Slot index, or ~0u for the invalid name (index bits all zero).
inline constexpr std::uint32_t PortSlotOf(PortId id) {
  return (id & kPortIndexMask) == 0 ? ~0u : (id & kPortIndexMask) - 1;
}
inline constexpr std::uint32_t PortGenOf(PortId id) { return id >> kPortIndexBits; }

struct Port {
  PortId id = kInvalidPort;
  Task* owner = nullptr;
  bool alive = true;

  // Port sets: a set is itself a Port whose receivers wait for messages on
  // any member. Members carry a back-pointer to their set.
  bool is_set = false;
  Port* owner_set = nullptr;      // Set this port belongs to, if any.
  QueueEntry set_link;            // Membership linkage.
  IntrusiveQueue<Port, &Port::set_link> members;  // Valid when is_set.
  std::size_t rr_cursor = 0;      // Round-robin receive fairness over members.

  // Queued messages (slow path only).
  IntrusiveQueue<KMessage, &KMessage::queue_link> messages;
  std::size_t qlimit = 64;

  // Delivery sequence number, stamped into every message received from this
  // port (Mach's msgh_seqno): receivers can detect gaps and reordering.
  std::uint32_t next_seqno = 1;

  // Threads blocked waiting to receive from this port. Under MK40 these
  // threads hold continuations and no kernel stacks.
  IntrusiveQueue<Thread, &Thread::ipc_link> receivers;

  // Threads blocked because the message queue was full.
  IntrusiveQueue<Thread, &Thread::ipc_link> blocked_senders;

  ~Port() {
    // Messages are owned by the kmsg zone; receivers/senders must have been
    // flushed by PortDestroy or kernel teardown.
    while (messages.DequeueHead() != nullptr) {
    }
    while (receivers.DequeueHead() != nullptr) {
    }
    while (blocked_senders.DequeueHead() != nullptr) {
    }
    while (Port* member = members.DequeueHead()) {
      member->owner_set = nullptr;
    }
  }
};

}  // namespace mkc

#endif  // MACHCONT_SRC_IPC_PORT_H_
