// Function attributes shared by the kernel's subsystems.
#ifndef MACHCONT_SRC_BASE_ATTRIBUTES_H_
#define MACHCONT_SRC_BASE_ATTRIBUTES_H_

// Marks a function on the control-transfer path: trap entry, syscall and
// message dispatch, block, handoff, switch, the continuations themselves and
// the return to user level. Nearly every such path ends in a [[noreturn]]
// transfer (ThreadSyscallReturn, CallContinuation, HandleMachMsg, ...), and
// GCC predicts every path that ends in a noreturn call as never executed,
// so it optimizes them for size (the §3.3 callee-saved copy in
// ThreadSyscallReturn becomes a microcoded `rep movs`). In a continuation
// kernel the never-returning transfer is the common case; this says so.
#define MKC_TRANSFER_PATH [[gnu::hot]]

#endif  // MACHCONT_SRC_BASE_ATTRIBUTES_H_
