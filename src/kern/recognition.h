// The recognition table: continuation recognition (§2.4) as a first-class
// dispatch mechanism instead of a hard-coded pointer compare.
//
// The paper's MK40 recognizes exactly one continuation — mach_msg_continue —
// at the RPC handoff site. This table generalizes that: a continuation may
// register an optional *specialized resume handler*, and the control-transfer
// paths consult the table before falling back to a full continuation call (or
// a scheduler wakeup). Two handler kinds exist, matched to the two moments a
// blocked thread can be short-circuited:
//
//   on_handoff(kernel, resumed) — consulted after a stack handoff, running
//     *as* the resumed thread in the donor's still-live frame (the classic
//     §2.4 site), and on the scheduler's handoff path in ThreadBlock. The
//     handler finishes the resume in place (ThreadSyscallReturn /
//     ThreadExceptionReturn / a fresh block) and never returns, or returns
//     false to decline — the caller then calls the full continuation.
//
//   on_wakeup(kernel, waiter) — consulted where a direct delivery would
//     otherwise make `waiter` runnable (ThreadSetrun). Runs in the *waker's*
//     context (possibly a virtual-time event, so it must never block). On
//     success the handler absorbs the wakeup — does the thread's work inline,
//     re-parks it in a fresh wait, returns true, and the waiter is never
//     scheduled at all. Returns false to decline (normal wakeup follows).
//
// Handler contract (see docs/INTERNALS.md "Recognition table"):
//   * A handler may read/write only the blocked thread's 28-byte scratch
//     area, the kernel state its continuation would itself touch, and the
//     recognition counters. It must leave the thread in a state its general
//     continuation could still handle — declining must be free of side
//     effects.
//   * An on_wakeup handler must be non-blocking (event context): kmsg
//     allocation via TryAllocKmsg only, declining on exhaustion.
//   * Registration is construction-time data; Find costs a short linear scan
//     over a handful of entries, modeled by kCycRecognitionCheck at the
//     consult sites.
//
// Ablation contract (CI-gated):
//   * --no-recognition: every consult declines before touching the table;
//     nothing is recognized anywhere.
//   * An empty table (nothing registered): every Find misses, nothing is
//     recognized anywhere — like recognition off, except that the mach_msg
//     and exception sites still pay their unconditional check charge.
#ifndef MACHCONT_SRC_KERN_RECOGNITION_H_
#define MACHCONT_SRC_KERN_RECOGNITION_H_

#include <cstdint>
#include <vector>

#include "src/kern/thread.h"

namespace mkc {

class Kernel;

// Specialized resume handlers. Both return false to decline, leaving the
// thread untouched for the general path. A successful on_handoff handler
// never returns; a successful on_wakeup handler re-parks the waiter and
// returns true.
using RecognitionHandoffHandler = bool (*)(Kernel& kernel, Thread* resumed);
using RecognitionWakeupHandler = bool (*)(Kernel& kernel, Thread* waiter);

struct RecognitionEntry {
  Continuation fn = nullptr;
  RecognitionHandoffHandler on_handoff = nullptr;
  RecognitionWakeupHandler on_wakeup = nullptr;

  // Accounting (reset by Kernel::ResetStats).
  std::uint64_t handoff_hits = 0;  // Specialized post-handoff resumes.
  std::uint64_t wakeup_hits = 0;   // Wakeups absorbed without a dispatch.
  std::uint64_t declines = 0;      // Handler consulted but fell back.
};

class RecognitionTable {
 public:
  // Registers a specialization for `fn`. At least one handler must be
  // non-null. Panics on a duplicate registration: two subsystems claiming
  // one continuation is a construction-order bug, not a race to tolerate.
  void Register(Continuation fn, RecognitionHandoffHandler on_handoff,
                RecognitionWakeupHandler on_wakeup);

  // Removes `fn`'s entry (late-constructed subsystems — netipc — unregister
  // in their destructor). Unknown pointers are ignored.
  void Unregister(Continuation fn);

  // The consult: the entry for `fn`, or null when none is registered. The
  // const overload is the report-side view.
  RecognitionEntry* Find(Continuation fn) {
    if (fn == nullptr) {
      return nullptr;
    }
    for (auto& e : entries_) {
      if (e.fn == fn) {
        return &e;
      }
    }
    return nullptr;
  }
  const RecognitionEntry* Find(Continuation fn) const {
    return const_cast<RecognitionTable*>(this)->Find(fn);
  }

  const std::vector<RecognitionEntry>& entries() const { return entries_; }

  void ResetCounts();

 private:
  std::vector<RecognitionEntry> entries_;
};

// Per-subsystem registration hooks, implemented next to the handlers they
// install (the handlers touch file-private state). Called once from the
// Kernel constructor, in hotness order — the mach_msg receive fast path is
// literally the first table entry.
void RegisterIpcRecognition(RecognitionTable& table);        // ipc/mach_msg.cc
void RegisterExceptionRecognition(RecognitionTable& table);  // exc/exception.cc

}  // namespace mkc

#endif  // MACHCONT_SRC_KERN_RECOGNITION_H_
