// MakeContext frame construction for the x86-64 assembly backend.
#include "src/machine/context.h"

#include <cstdint>

#include "src/base/attributes.h"
#include "src/base/panic.h"

// Under AddressSanitizer every stack switch must be announced, or ASan keeps
// poisoning/unpoisoning against the host thread's stack bounds while we run
// on heap-allocated guest stacks (its __asan_handle_no_return then scribbles
// outside the real stack). The protocol: the suspending side calls
// __sanitizer_start_switch_fiber with the *target* stack's bounds, and the
// first code to run on the other side calls __sanitizer_finish_switch_fiber,
// which also reports the bounds of the stack just departed — we record those
// into the suspended Context so a later resumer can announce them.
#if defined(__SANITIZE_ADDRESS__)
#define MKC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MKC_ASAN_FIBERS 1
#endif
#endif

#if defined(MKC_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
void* mkc_context_switch_asm(void** save_sp, void* to_sp, void* pass);
[[noreturn]] void mkc_context_jump_asm(void* to_sp, void* pass);
void* mkc_context_switch_fresh_asm(void** save_sp, void* stack_top, mkc::ContextEntry entry,
                                   void* arg, void* pass);
[[noreturn]] void mkc_context_jump_fresh_asm(void* stack_top, mkc::ContextEntry entry, void* arg,
                                             void* pass);
void mkc_context_trampoline_asm();
}

namespace mkc {

#if defined(MKC_ASAN_FIBERS)
namespace {

// The context whose stack bounds the next landing flow should record. The
// simulation is single-host-threaded, so one slot suffices.
Context* g_pending_bounds = nullptr;

// Completes the fiber switch on the landing side. `own_fake` is the fake
// stack handle saved when this flow suspended (null for fresh contexts).
void FinishSwitchFiber(void* own_fake) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(own_fake, &bottom, &size);
  if (g_pending_bounds != nullptr) {
    g_pending_bounds->asan_stack_bottom = bottom;
    g_pending_bounds->asan_stack_size = size;
    g_pending_bounds = nullptr;
  }
}

// Fresh contexts run through this shim so FinishSwitchFiber runs before the
// real entry. Its record lives at the low end of the stack region, far below
// any frame the context will push.
struct EntryRecord {
  ContextEntry entry;
  void* arg;
};

void SanitizerEntryShim(void* pass, void* varg) {
  FinishSwitchFiber(nullptr);
  auto* rec = static_cast<EntryRecord*>(varg);
  rec->entry(pass, rec->arg);
}

}  // namespace
#endif  // MKC_ASAN_FIBERS

const int kContextSwitchSavedWords = 6;  // rbx, rbp, r12-r15.
const char* const kContextBackendName = "x86_64-asm";

namespace {

// Highest 16-byte aligned address within the stack.
std::uintptr_t StackTop(void* stack_base, std::size_t stack_size) {
  MKC_ASSERT(stack_base != nullptr);
  MKC_ASSERT(stack_size >= 512);
  return (reinterpret_cast<std::uintptr_t>(stack_base) + stack_size) & ~std::uintptr_t{15};
}

}  // namespace

MKC_TRANSFER_PATH Context MakeContext(void* stack_base, std::size_t stack_size, ContextEntry entry,
                                      void* arg) {
  std::uintptr_t top = StackTop(stack_base, stack_size);

  // Frame, from high to low: two scratch slots, the trampoline as return
  // address, then six callee-saved slots. After the resuming switch pops the
  // registers and returns into the trampoline, rsp % 16 == 0 — so the
  // trampoline's `call entry` leaves rsp % 16 == 8 at entry, the System V
  // alignment every function (including SSE-using library calls) expects.
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 9;
  frame[8] = 0;  // Scratch.
  frame[7] = 0;  // Scratch.
  frame[6] = reinterpret_cast<std::uint64_t>(&mkc_context_trampoline_asm);
  frame[5] = 0;                                        // rbp
  frame[4] = reinterpret_cast<std::uint64_t>(entry);   // rbx
  frame[3] = reinterpret_cast<std::uint64_t>(arg);     // r12
  frame[2] = 0;                                        // r13
  frame[1] = 0;                                        // r14
  frame[0] = 0;                                        // r15

#if defined(MKC_ASAN_FIBERS)
  // A fresh context often reuses a stack whose previous flow was abandoned by
  // ContextJump mid-frame (continuation stack reset, LRPC override, cached
  // stacks); that flow's redzone poison was never unwound by epilogues, so
  // clear the whole region before the new flow lands on it.
  __asan_unpoison_memory_region(stack_base, stack_size);

  // Interpose the shim so FinishSwitchFiber runs before the real entry. The
  // record lives in the two scratch slots, which sit above the context's
  // initial stack pointer and are never overwritten by its frames. (The low
  // end of the region is off limits — KernelStack keeps its overflow canary
  // there.)
  auto* rec = reinterpret_cast<EntryRecord*>(&frame[7]);
  rec->entry = entry;
  rec->arg = arg;
  frame[4] = reinterpret_cast<std::uint64_t>(&SanitizerEntryShim);  // rbx
  frame[3] = reinterpret_cast<std::uint64_t>(rec);                  // r12
#endif

  Context ctx{frame};
  ctx.asan_stack_bottom = stack_base;
  ctx.asan_stack_size = stack_size;
  return ctx;
}

MKC_TRANSFER_PATH void* ContextSwitch(Context* save, Context to, void* pass) {
  MKC_ASSERT(save != nullptr);
  MKC_ASSERT(to.valid());
#if defined(MKC_ASAN_FIBERS)
  g_pending_bounds = save;  // The landing flow records our stack bounds.
  __sanitizer_start_switch_fiber(&save->asan_fake_stack, to.asan_stack_bottom,
                                 to.asan_stack_size);
  void* ret = mkc_context_switch_asm(&save->sp, to.sp, pass);
  // Resumed: complete the switch back onto our stack.
  FinishSwitchFiber(save->asan_fake_stack);
  return ret;
#else
  return mkc_context_switch_asm(&save->sp, to.sp, pass);
#endif
}

MKC_TRANSFER_PATH [[noreturn]] void ContextJump(Context to, void* pass) {
  MKC_ASSERT(to.valid());
#if defined(MKC_ASAN_FIBERS)
  // The current flow is abandoned: null fake-stack handle releases its fake
  // frames, and no suspended Context needs our bounds recorded.
  g_pending_bounds = nullptr;
  __sanitizer_start_switch_fiber(nullptr, to.asan_stack_bottom, to.asan_stack_size);
#endif
  mkc_context_jump_asm(to.sp, pass);
}

// Under ASan a fresh entry is a MakeContext frame resumed the ordinary way,
// so the shim announces the landing exactly as for any other fresh context.
MKC_TRANSFER_PATH void* ContextSwitchFresh(Context* save, void* stack_base, std::size_t stack_size,
                                           ContextEntry entry, void* arg, void* pass) {
#if defined(MKC_ASAN_FIBERS)
  return ContextSwitch(save, MakeContext(stack_base, stack_size, entry, arg), pass);
#else
  MKC_ASSERT(save != nullptr);
  return mkc_context_switch_fresh_asm(&save->sp,
                                      reinterpret_cast<void*>(StackTop(stack_base, stack_size)),
                                      entry, arg, pass);
#endif
}

MKC_TRANSFER_PATH [[noreturn]] void ContextJumpFresh(void* stack_base, std::size_t stack_size,
                                                     ContextEntry entry, void* arg, void* pass) {
#if defined(MKC_ASAN_FIBERS)
  ContextJump(MakeContext(stack_base, stack_size, entry, arg), pass);
#else
  mkc_context_jump_fresh_asm(reinterpret_cast<void*>(StackTop(stack_base, stack_size)), entry,
                             arg, pass);
#endif
}

}  // namespace mkc
