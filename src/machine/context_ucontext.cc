// Portable ucontext(3) backend for the context primitives.
//
// A Context's sp points at a ucontext_t: for fresh contexts it lives at the
// top of the supplied stack; for suspended flows it lives in the suspending
// ContextSwitch frame, which stays alive exactly as long as the suspension.
#include "src/machine/context.h"

#include <ucontext.h>

#include <cstdint>

#include "src/base/attributes.h"
#include "src/base/panic.h"

namespace mkc {
namespace {

// Value in flight across a switch. The simulation is single-host-threaded
// (see DESIGN.md), so a single slot suffices.
void* g_pass = nullptr;

void Trampoline(unsigned int entry_hi, unsigned int entry_lo, unsigned int arg_hi,
                unsigned int arg_lo) {
  auto entry = reinterpret_cast<ContextEntry>(
      (static_cast<std::uintptr_t>(entry_hi) << 32) | entry_lo);
  void* arg = reinterpret_cast<void*>((static_cast<std::uintptr_t>(arg_hi) << 32) | arg_lo);
  entry(g_pass, arg);
  Panic("context entry function returned");
}

ucontext_t* AsUcp(Context ctx) { return static_cast<ucontext_t*>(ctx.sp); }

}  // namespace

const int kContextSwitchSavedWords = static_cast<int>(sizeof(ucontext_t) / sizeof(void*));
const char* const kContextBackendName = "ucontext";

MKC_TRANSFER_PATH Context MakeContext(void* stack_base, std::size_t stack_size, ContextEntry entry,
                                      void* arg) {
  MKC_ASSERT(stack_base != nullptr);
  MKC_ASSERT(stack_size >= sizeof(ucontext_t) + 2048);

  // Reserve the (aligned) top of the stack region for the ucontext_t itself.
  auto top = reinterpret_cast<std::uintptr_t>(stack_base) + stack_size;
  top = (top - sizeof(ucontext_t)) & ~std::uintptr_t{15};
  auto* ucp = reinterpret_cast<ucontext_t*>(top);

  MKC_ASSERT(getcontext(ucp) == 0);
  ucp->uc_stack.ss_sp = stack_base;
  ucp->uc_stack.ss_size = top - reinterpret_cast<std::uintptr_t>(stack_base);
  ucp->uc_link = nullptr;

  auto entry_bits = reinterpret_cast<std::uintptr_t>(entry);
  auto arg_bits = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(ucp, reinterpret_cast<void (*)()>(&Trampoline), 4,
              static_cast<unsigned int>(entry_bits >> 32),
              static_cast<unsigned int>(entry_bits & 0xffffffffu),
              static_cast<unsigned int>(arg_bits >> 32),
              static_cast<unsigned int>(arg_bits & 0xffffffffu));
  return Context{ucp};
}

MKC_TRANSFER_PATH void* ContextSwitch(Context* save, Context to, void* pass) {
  MKC_ASSERT(save != nullptr);
  MKC_ASSERT(to.valid());
  ucontext_t self;
  save->sp = &self;
  g_pass = pass;
  MKC_ASSERT(swapcontext(&self, AsUcp(to)) == 0);
  return g_pass;
}

MKC_TRANSFER_PATH [[noreturn]] void ContextJump(Context to, void* pass) {
  MKC_ASSERT(to.valid());
  g_pass = pass;
  setcontext(AsUcp(to));
  Panic("setcontext returned");
}

MKC_TRANSFER_PATH void* ContextSwitchFresh(Context* save, void* stack_base, std::size_t stack_size,
                                           ContextEntry entry, void* arg, void* pass) {
  return ContextSwitch(save, MakeContext(stack_base, stack_size, entry, arg), pass);
}

MKC_TRANSFER_PATH [[noreturn]] void ContextJumpFresh(void* stack_base, std::size_t stack_size,
                                                     ContextEntry entry, void* arg, void* pass) {
  ContextJump(MakeContext(stack_base, stack_size, entry, arg), pass);
}

}  // namespace mkc
