// Raw execution contexts — the machine-dependent bedrock of the kernel.
//
// A Context designates a suspended flow of control on some stack. Five
// primitives manipulate contexts, mirroring what a real kernel's low-level
// switch code does:
//
//   MakeContext       prepare a fresh context that will run entry(pass, arg)
//                     on a caller-provided stack, to be resumed later.
//   ContextSwitch     save the current flow into *save, resume another
//                     context (the process-model path: full callee-saved
//                     register save/restore).
//   ContextJump       resume another context WITHOUT saving the current one
//                     (the continuation path: the current stack contents are
//                     abandoned, which is exactly what lets the kernel
//                     discard or reuse a blocked thread's stack).
//   ContextSwitchFresh  save the current flow into *save and call
//                     entry(pass, arg) at the base of a stack (kernel entry
//                     on a trap).
//   ContextJumpFresh  call entry(pass, arg) at the base of a stack without
//                     saving the current flow — the paper's call_continuation,
//                     which "resets the stack pointer to the base of the
//                     stack and calls the continuation".
//
// The asymmetry between the saving and the non-saving primitives is the
// machine-level fact the whole paper builds on. The two *Fresh primitives
// do what MakeContext followed by ContextSwitch/ContextJump would do, but
// on x86-64 they build no frame and return into no trampoline: they set the
// stack pointer and `call` the entry, so the host's return predictor is not
// thrown off on every kernel entry and continuation call. Use MakeContext
// only when the new flow must be resumed later (StackAttach).
//
// Two implementations are provided: hand-written x86-64 assembly (default on
// x86-64) and a portable ucontext(3) version (-DMACHCONT_USE_UCONTEXT=ON).
#ifndef MACHCONT_SRC_MACHINE_CONTEXT_H_
#define MACHCONT_SRC_MACHINE_CONTEXT_H_

#include <cstddef>

namespace mkc {

// Opaque handle to a suspended context. Trivially copyable; the underlying
// frame lives on the context's stack.
struct Context {
  void* sp = nullptr;

  // AddressSanitizer fiber bookkeeping (see context_asm.cc): the bounds of
  // the stack this context runs on, and the ASan fake-stack handle of the
  // suspended flow. Present in every build so the layout doesn't depend on
  // compile flags; only sanitizer builds read them. reset() deliberately
  // leaves them alone — a suspended flow reads its own fake-stack handle
  // through the saved Context after the resumer has reset() the sp.
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
  void* asan_fake_stack = nullptr;

  bool valid() const { return sp != nullptr; }
  void reset() { sp = nullptr; }
};

// Entry function for a fresh context. `pass` is the value handed over by the
// ContextSwitch/ContextJump that first resumes this context; `arg` is the
// value captured at MakeContext time. Entries never return: kernel control
// paths always end in another switch or jump.
using ContextEntry = void (*)(void* pass, void* arg);

// Builds a context that will execute entry(pass, arg) on [stack_base,
// stack_base + stack_size). The stack region must stay alive until the
// context has been abandoned or has jumped elsewhere.
Context MakeContext(void* stack_base, std::size_t stack_size, ContextEntry entry, void* arg);

// Suspends the current flow into *save and resumes `to`, handing it `pass`.
// Returns — once something later resumes *save — the value that resumer
// passed. Number of callee-saved registers moved by one switch is
// kContextSwitchSavedWords each way (used by the Table 4 cost accounting).
void* ContextSwitch(Context* save, Context to, void* pass);

// Resumes `to`, handing it `pass`, without saving the current flow. The
// current stack's contents above the target frame become dead. Never returns.
[[noreturn]] void ContextJump(Context to, void* pass);

// Suspends the current flow into *save and runs entry(pass, arg) on a fresh
// flow at the base of [stack_base, stack_base + stack_size). Returns, like
// ContextSwitch, the value passed by whoever later resumes *save. The stack
// must not be the one the current flow runs on.
void* ContextSwitchFresh(Context* save, void* stack_base, std::size_t stack_size,
                         ContextEntry entry, void* arg, void* pass);

// Runs entry(pass, arg) on a fresh flow at the base of [stack_base,
// stack_base + stack_size) without saving the current flow. The stack may
// be the one the current flow runs on: every frame on it becomes dead.
// Never returns.
[[noreturn]] void ContextJumpFresh(void* stack_base, std::size_t stack_size, ContextEntry entry,
                                   void* arg, void* pass);

// Callee-saved register slots moved per switch direction by this machine
// layer (6 on x86-64: rbx, rbp, r12-r15; ucontext saves a full mcontext and
// reports its word count).
extern const int kContextSwitchSavedWords;

// Name of the active implementation ("x86_64-asm" or "ucontext").
extern const char* const kContextBackendName;

}  // namespace mkc

#endif  // MACHCONT_SRC_MACHINE_CONTEXT_H_
