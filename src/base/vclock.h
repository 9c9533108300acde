// Virtual time.
//
// The reproduction has no hardware clock interrupts. Instead, simulated user
// work and simulated device activity advance a virtual clock, and deferred
// activity (pageout "disk" completions, network packet arrival, timeouts) is
// queued on an event queue that the idle path drains in timestamp order.
// DESIGN.md documents this substitution for the paper's clock interrupts.
#ifndef MACHCONT_SRC_BASE_VCLOCK_H_
#define MACHCONT_SRC_BASE_VCLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/types.h"

namespace mkc {

class VirtualClock {
 public:
  Ticks Now() const { return now_; }

  void Advance(Ticks delta) { now_ += delta; }

  // Moves the clock forward to `t`; never moves it backwards.
  void AdvanceTo(Ticks t) {
    if (t > now_) {
      now_ = t;
    }
  }

 private:
  Ticks now_ = 0;
};

// Pending deferred work, ordered by virtual deadline, then by post order.
// Callbacks run in kernel context on the idle path; they may wake threads
// and post further events but must not block.
//
// Posting and running an event allocate nothing once the queue has reached
// its high-water mark. Each action lives inline in a slot of a slab (a
// fixed kActionBytes capture budget, move-only, no heap fallback: a larger
// capture is a compile error), and the binary heap orders only small POD
// keys {when, seq, slot} that point into the slab, so a sift moves 24-byte
// keys, never actions. Freed slots are reused LIFO, so the slab never grows
// past the most events ever pending at once.
class EventQueue {
 public:
  // Capture budget of one action: the packet-delivery event (network,
  // destination, link, wire buffer) is the largest poster.
  static constexpr std::size_t kActionBytes = 48;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  template <typename F>
  void Post(Ticks when, F&& action) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].Emplace(std::forward<F>(action));
    heap_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  Ticks NextDeadline() const { return heap_.front().when; }

  // Slots ever carved: the high-water mark of pending events.
  std::size_t SlabSlots() const { return slots_.size(); }

  // Pops the earliest event, advances the clock to its deadline, and runs
  // it. The action is moved out and its slot freed first, so the action may
  // post into this queue (even into its own slot) while it runs.
  // Precondition: !Empty().
  void RunNext(VirtualClock& clock) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    clock.AdvanceTo(key.when);
    slots_[key.slot].TakeAndRun(free_, key.slot);
  }

 private:
  // A move-only callable stored inline. Empty when ops_ is null.
  class Action {
   public:
    Action() = default;
    Action(Action&& other) noexcept : ops_(other.ops_) {
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    Action& operator=(Action&&) = delete;
    ~Action() {
      if (ops_ != nullptr) {
        ops_->destroy(storage_);
      }
    }

    template <typename F>
    void Emplace(F&& f) {
      using Fn = std::decay_t<F>;
      static_assert(sizeof(Fn) <= kActionBytes,
                    "event capture exceeds EventQueue::kActionBytes");
      static_assert(alignof(Fn) <= alignof(std::max_align_t),
                    "event capture is over-aligned");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "event capture must be nothrow-movable");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn>;
    }

    // Moves the callable out (leaving this slot empty), hands `slot` back to
    // `free_slots`, then runs it: one indirect call per event.
    void TakeAndRun(std::vector<std::uint32_t>& free_slots, std::uint32_t slot) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->take_and_run(storage_, free_slots, slot);
    }

   private:
    struct Ops {
      void (*take_and_run)(void* fn, std::vector<std::uint32_t>& free_slots,
                           std::uint32_t slot);
      void (*relocate)(void* dst, void* src);  // Move-construct, destroy src.
      void (*destroy)(void* fn);
    };

    template <typename Fn>
    static void TakeAndRunFn(void* stored, std::vector<std::uint32_t>& free_slots,
                             std::uint32_t slot) {
      Fn* from = static_cast<Fn*>(stored);
      Fn fn(std::move(*from));
      from->~Fn();
      free_slots.push_back(slot);
      fn();
    }
    template <typename Fn>
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    template <typename Fn>
    static void Destroy(void* fn) {
      static_cast<Fn*>(fn)->~Fn();
    }
    template <typename Fn>
    static constexpr Ops kOps = {&TakeAndRunFn<Fn>, &Relocate<Fn>, &Destroy<Fn>};

    alignas(std::max_align_t) unsigned char storage_[kActionBytes];
    const Ops* ops_ = nullptr;
  };

  struct Key {
    Ticks when;
    std::uint64_t seq;  // Tie-break so same-deadline events run in post order.
    std::uint32_t slot;
  };

  // Heap order for a min-heap on (when, seq).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Action> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_BASE_VCLOCK_H_
