// Continuation introspection: the observability layer's answer to the
// paper's central trade-off. Discarding a blocked thread's kernel stack
// (§3.4) also discards the context a debugger or profiler would walk — an
// MK40 thread at rest is a function pointer plus 28 bytes of scratch. This
// module reconstructs the logical state the stack no longer holds:
//
//  * ContinuationRegistry maps continuation function pointers to stable
//    names and keeps per-continuation block/resume/recognition counts, so a
//    profiler sample of a stackless thread can say *what* it is waiting in
//    ("mach_msg_continue") instead of printing a code address. The counts
//    double as per-continuation recognition rates (Table 2 per site).
//  * FoldedStack builds a deterministic logical "stack" for a thread from
//    {name, scheduling state, block reason, continuation, wait object} — the
//    frames a flamegraph shows for a thread that has no frames.
//  * DescribeThread renders the same reconstruction as one human-readable
//    line (watchdog stall reports).
//
// Registration happens at construction time (kernel and subsystem ctors) and
// costs nothing at runtime; the Note* accounting hooks are called behind the
// kernel's single cont_accounting_ branch so a run without a profiler stays
// byte-identical and pays one predictable test per block.
#ifndef MACHCONT_SRC_OBS_INTROSPECT_H_
#define MACHCONT_SRC_OBS_INTROSPECT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kern/thread.h"

namespace mkc {

class Kernel;
class RecognitionTable;

// One registered continuation and its accounting.
struct ContinuationInfo {
  Continuation fn = nullptr;
  std::string name;
  std::uint64_t blocks = 0;        // Threads that blocked holding this continuation.
  std::uint64_t resumes = 0;       // Times it was actually called to resume.
  std::uint64_t recognitions = 0;  // Times recognition elided the call (§2.4).

  // Recognition rate at this continuation: of the resumptions that could
  // have called it, how many were recognized and specialized away instead.
  double RecognitionRate() const {
    std::uint64_t total = resumes + recognitions;
    return total == 0 ? 0.0
                      : static_cast<double>(recognitions) / static_cast<double>(total);
  }
};

class ContinuationRegistry {
 public:
  // Registers `fn` under `name`. Idempotent: re-registering a pointer keeps
  // the first name (subsystems may race only in registration order, which is
  // fixed by construction order, so the mapping is deterministic).
  void Register(Continuation fn, std::string name);

  const ContinuationInfo* Find(Continuation fn) const;

  // Stable display name: the registered name, "<none>" for null (a
  // process-model block that kept its stack), or "<unregistered>".
  const char* Name(Continuation fn) const;

  // Accounting. Callers gate these behind the kernel's profiling switch;
  // unregistered pointers fall into a catch-all bucket instead of vanishing.
  void NoteBlock(Continuation fn);
  void NoteResume(Continuation fn);
  void NoteRecognition(Continuation fn);

  const std::vector<ContinuationInfo>& entries() const { return entries_; }
  std::uint64_t unregistered_blocks() const { return unregistered_blocks_; }
  std::uint64_t unregistered_resumes() const { return unregistered_resumes_; }

  void ResetCounts();

  // Human-readable per-continuation accounting table, hottest first (sorted
  // by total resumptions = resumes + recognitions, descending; registration
  // order breaks ties; zero rows skipped): name, blocks, resumes,
  // recognitions, rate. When `specializations` is given, rows whose
  // continuation has a specialized resume handler registered in the
  // recognition table are flagged with a trailing '*'.
  std::string ReportTable(const RecognitionTable* specializations = nullptr) const;

 private:
  ContinuationInfo* FindMutable(Continuation fn);

  std::vector<ContinuationInfo> entries_;
  std::uint64_t unregistered_blocks_ = 0;
  std::uint64_t unregistered_resumes_ = 0;
};

// Deterministic folded-stack frames for one thread, root first, joined with
// ';' (the flamegraph folded format). Examples:
//   "cc1;blocked:message-receive;mach_msg_continue;port5"
//   "netipc-engine;blocked:internal;netipc_ack_continue;port3"
//   "dos;runnable"
// No raw pointers ever appear: every frame is derived from registered names
// and virtual-machine state, so profiles are byte-identical across runs.
std::string FoldedStack(const Kernel& kernel, const Thread& thread);

// One-line human rendering of the same reconstruction, with the span chain
// and ages that the folded form aggregates away. `now` is the caller's
// virtual-time frontier (for ages).
std::string DescribeThread(const Kernel& kernel, const Thread& thread, Ticks now);

// Registration hooks for continuations that live in anonymous namespaces
// (implemented next to the functions they name).
void RegisterSyscallContinuations(ContinuationRegistry& registry);  // task/syscalls.cc
void RegisterTrapContinuations(ContinuationRegistry& registry);     // machine/trap.cc

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_INTROSPECT_H_
