// The kernel's port table and kmsg zones, plus IPC statistics.
#ifndef MACHCONT_SRC_IPC_IPC_SPACE_H_
#define MACHCONT_SRC_IPC_IPC_SPACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/queue.h"
#include "src/ipc/port.h"
#include "src/kern/zone.h"

namespace mkc {

class Kernel;

struct IpcStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t fast_rpc_handoffs = 0;   // Figure 2 fast path taken on send.
  std::uint64_t direct_copies = 0;       // Sender copied straight to receiver.
  std::uint64_t queued_sends = 0;        // Message materialized as a kmsg.
  std::uint64_t receive_recognitions = 0;  // mach_msg_continue recognized.
  std::uint64_t slow_continuations = 0;  // Strict-option receive finishes.
  std::uint64_t rcv_too_large = 0;
  std::uint64_t kmsg_alloc_blocks = 0;   // Zone-exhaustion blocks.
  std::uint64_t send_full_blocks = 0;    // Queue-full sender blocks.
};

class IpcSpace {
 public:
  explicit IpcSpace(Kernel& kernel, std::size_t kmsg_zone_limit = 1024);
  ~IpcSpace();

  IpcSpace(const IpcSpace&) = delete;
  IpcSpace& operator=(const IpcSpace&) = delete;

  // Creates a port owned by `owner` (may be null for kernel-internal ports).
  // The name comes from the slot freelist and carries the slot's current
  // generation.
  PortId AllocatePort(Task* owner);

  // Creates a port set: receivers on the set get messages sent to any
  // member port.
  PortId AllocatePortSet(Task* owner);

  // Moves `port` into `set` (a port belongs to at most one set).
  KernReturn AddToSet(PortId port, PortId set);

  // Removes `port` from its set, if any.
  KernReturn RemoveFromSet(PortId port);

  // Returns the port for `id`, or nullptr if invalid/stale/dead.
  Port* Lookup(PortId id) {
    const std::uint32_t slot = PortSlotOf(id);
    if (slot >= ports_.size()) {  // Also rejects kInvalidPort (slot == ~0u).
      return nullptr;
    }
    if (port_gens_[slot] != PortGenOf(id)) {
      return nullptr;  // Stale name: the slot has been reused since.
    }
    Port* port = ports_[slot].get();
    return (port != nullptr && port->alive) ? port : nullptr;
  }

  // Marks the port dead: flushes queued messages and fails out any waiting
  // receivers with kRcvPortDied. The slot is then reclaimed (the Port
  // object is freed and the generation bumped, so stale names miss) and
  // pushed on the freelist for O(1) reuse.
  void DestroyPort(PortId id);

  // Dead-name notification: invoked at the top of DestroyPort for every port
  // that actually dies, before its queues are flushed. The netipc server
  // (src/net/netipc.h) uses this to garbage-collect proxy state — both the
  // local tables and, via PORT_DEATH packets, the remote proxies pointing
  // here — instead of leaking them. At most one hook per space.
  using PortDeathHook = void (*)(void* ctx, PortId id);
  void SetPortDeathHook(PortDeathHook hook, void* ctx) {
    death_hook_ = hook;
    death_hook_ctx_ = ctx;
  }

  // Destroys every port owned by `task` (task termination).
  void DestroyTaskPorts(Task* task);

  // Removes `thread` from any port receiver/sender queue it is parked on
  // (linear scan; used by task termination). Returns true if found.
  bool AbortThreadWait(Thread* thread);

  // kmsg zones, size-classed by body bytes (≤ kSmallKmsgBytes rides the
  // small zone). Allocate may block
  // (process model, kMemoryAlloc) when the shared in-flight cap is hit —
  // one of the paper's non-continuation block sites.
  KMessage* AllocKmsg(std::uint32_t body_bytes = kMaxInlineBytes);
  // Non-blocking variant for contexts that must not block (event callbacks,
  // the idle path). Returns nullptr when the zone is exhausted.
  KMessage* TryAllocKmsg(std::uint32_t body_bytes = kMaxInlineBytes);
  void FreeKmsg(KMessage* kmsg);

  IpcStats& stats() { return stats_; }
  const IpcStats& stats() const { return stats_; }
  std::size_t kmsg_in_flight() const { return kmsg_in_flight_; }

  Zone& kmsg_small_zone() { return *kmsg_small_zone_; }
  const Zone& kmsg_small_zone() const { return *kmsg_small_zone_; }
  Zone& kmsg_full_zone() { return *kmsg_full_zone_; }
  const Zone& kmsg_full_zone() const { return *kmsg_full_zone_; }
  void ResetZoneStats();

  // Port-table shape, for tests and Table 5 accounting: total slots ever
  // carved and how many sit reclaimed on the freelist.
  std::size_t port_table_size() const { return ports_.size(); }
  std::size_t port_slots_free() const { return free_slots_.size(); }

 private:
  // Places a fresh KMessage over a zone element and returns it; shared by
  // the blocking and non-blocking allocators.
  KMessage* ConstructKmsg(Zone& zone, std::uint32_t capacity);
  Zone& ZoneForBody(std::uint32_t body_bytes);

  Kernel& kernel_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::uint32_t> port_gens_;     // Current generation per slot.
  std::vector<std::uint32_t> free_slots_;    // Reclaimed slots (LIFO).
  std::unique_ptr<Zone> kmsg_small_zone_;
  std::unique_ptr<Zone> kmsg_full_zone_;
  std::size_t kmsg_in_flight_ = 0;
  std::size_t kmsg_zone_limit_;
  IpcStats stats_;
  PortDeathHook death_hook_ = nullptr;
  void* death_hook_ctx_ = nullptr;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_IPC_IPC_SPACE_H_
