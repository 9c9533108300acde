// Stall watchdog: automatic detection of threads and requests that stopped
// making progress.
//
// A lost wakeup in a continuation-based kernel is unusually silent: the
// stuck thread is a stackless entry in a wait bucket, indistinguishable at a
// glance from every healthy blocked server. The watchdog rides the
// observability tick (Kernel::ObsTick) and, at most once per check interval,
// scans the thread table for three kinds of suspect:
//
//  * lost-wakeup — a non-internal thread blocked longer than the threshold
//    (waiters whose waker never came);
//  * starved-runnable — a thread that has sat runnable, never dispatched,
//    longer than the threshold;
//  * stuck-span — a causal span (src/obs/span.h) with no progress stamp for
//    longer than the threshold (requires tracing, which is what activates
//    spans).
//
// Each suspect is flagged once (deduplicated by kind and thread), emits a
// kStallWarn trace event when the trace ring is enabled, and lands in the
// end-of-run stall report that machcont_sim prints. Like the profiler, the
// watchdog is a pure observer: it charges no cycles and never perturbs the
// simulation.
//
// Internal kernel threads (netipc protocol threads, the pager, the reaper)
// legitimately block forever between work items and are exempt from the
// lost-wakeup scan.
#ifndef MACHCONT_SRC_OBS_WATCHDOG_H_
#define MACHCONT_SRC_OBS_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/types.h"

namespace mkc {

class Kernel;

enum class StallKind : std::uint8_t {
  kLostWakeup = 1,      // Waiting past the threshold with no wakeup.
  kStarvedRunnable = 2, // Runnable past the threshold, never run.
  kStuckSpan = 3,       // Causal span with no progress past the threshold.
};

const char* StallKindName(StallKind kind);

struct StallRecord {
  StallKind kind;
  ThreadId thread = 0;
  std::uint32_t span = 0;     // Span id for kStuckSpan; the thread's span otherwise.
  Ticks age = 0;              // How stale the suspect was when first flagged.
  Ticks flagged_at = 0;       // Virtual time of the flagging check.
  std::string description;    // DescribeThread at flag time.
};

class StallWatchdog {
 public:
  explicit StallWatchdog(Ticks threshold);

  // Called from Kernel::ObsTick; scans at most once per check interval
  // (half the threshold, so a stall is flagged within 1.5x its threshold).
  void Tick(Kernel& kernel);

  // Runs one scan immediately (end-of-run final sweep).
  void Scan(Kernel& kernel);

  Ticks threshold() const { return threshold_; }
  const std::vector<StallRecord>& stalls() const { return stalls_; }

  // Human-readable end-of-run report; "" when nothing was flagged.
  std::string Report() const;

  void Reset();

 private:
  bool AlreadyFlagged(StallKind kind, std::uint64_t key) const;

  Ticks threshold_;
  Ticks check_interval_;
  Ticks next_check_;
  std::vector<StallRecord> stalls_;
  std::vector<std::pair<StallKind, std::uint64_t>> flagged_;  // Dedup keys.
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_WATCHDOG_H_
