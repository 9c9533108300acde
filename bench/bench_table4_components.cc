// Reproduces Table 4: "Component Costs" — the per-primitive cost of kernel
// entry/exit, stack handoff and context switch.
//
// Two modeled signals replace the paper's MIPS instruction counts (DESIGN.md):
//   * simulated machine cycles per operation (cycle model), and
//   * the machine layer's modeled word loads/stores (real memory traffic it
//     performs for each primitive).
// Pinned, calibrated host ns for the same operations come from perfbench's
// `transfer` workload (EXPERIMENTS.md).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/machine/context.h"
#include "src/machine/cost_model.h"
#include "src/machine/cycle_model.h"
#include "src/task/task.h"
#include "src/task/usermode.h"

namespace mkc {
namespace {

struct Probe {
  double cycles_per_op = 0.0;  // Simulated machine cycles (cycle model).
  CostCounters entry;
  CostCounters exit;
  CostCounters handoff;
  CostCounters context_switch;
};

struct LoopState {
  int iterations = 0;
};

void NullSyscallLoop(void* arg) {
  auto* st = static_cast<LoopState*>(arg);
  for (int i = 0; i < st->iterations; ++i) {
    UserNullSyscall();
  }
}

void YieldLoop(void* arg) {
  auto* st = static_cast<LoopState*>(arg);
  for (int i = 0; i < st->iterations; ++i) {
    UserYield();
  }
}

// Cycles per null system call (entry + exit pair).
Probe MeasureNullSyscall(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  LoopState st{iterations};
  kernel.CreateUserThread(task, &NullSyscallLoop, &st);
  kernel.ResetStats();
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Probe probe;
  probe.cycles_per_op =
      static_cast<double>(kernel.clock().Now() - t0) / static_cast<double>(iterations);
  probe.entry = kernel.cost_model().Get(CostOp::kSyscallEntry);
  probe.exit = kernel.cost_model().Get(CostOp::kSyscallExit);
  return probe;
}

// Cycles per thread-to-thread transfer: two yielding threads ping-pong the
// processor. Under MK40 each transfer is a stack handoff; under MK32 it is a
// full context switch — isolating exactly the pair Table 4 compares.
Probe MeasureTransfer(ControlTransferModel model, int iterations) {
  KernelConfig config;
  config.model = model;
  Kernel kernel(config);
  Task* task = kernel.CreateTask("t");
  LoopState st{iterations};
  kernel.CreateUserThread(task, &YieldLoop, &st);
  kernel.CreateUserThread(task, &YieldLoop, &st);
  kernel.ResetStats();
  Ticks t0 = kernel.clock().Now();
  kernel.Run();
  Probe probe;
  // Two threads x iterations transfers (approximately).
  probe.cycles_per_op =
      static_cast<double>(kernel.clock().Now() - t0) / (2.0 * iterations);
  probe.handoff = kernel.cost_model().Get(CostOp::kStackHandoff);
  probe.context_switch = kernel.cost_model().Get(CostOp::kContextSwitch);
  return probe;
}

void PrintModeled(const char* label, const CostCounters& c) {
  if (c.calls == 0) {
    std::printf("  %-20s (not used)\n", label);
    return;
  }
  std::printf("  %-20s %10llu calls, %5.1f word-loads, %5.1f word-stores per call\n", label,
              static_cast<unsigned long long>(c.calls),
              static_cast<double>(c.word_loads) / static_cast<double>(c.calls),
              static_cast<double>(c.word_stores) / static_cast<double>(c.calls));
}

int Main(int argc, char** argv) {
  int iterations = 200000 * ScaleFromArgs(argc, argv, 1);

  Probe mk40_syscall = MeasureNullSyscall(ControlTransferModel::kMK40, iterations);
  Probe mk32_syscall = MeasureNullSyscall(ControlTransferModel::kMK32, iterations);
  Probe mk40_transfer = MeasureTransfer(ControlTransferModel::kMK40, iterations / 2);
  Probe mk32_transfer = MeasureTransfer(ControlTransferModel::kMK32, iterations / 2);

  std::printf("Table 4: Component Costs\n");
  std::printf("Paper (DS3100): instrs/loads/stores. Measured: modeled cycles + words.\n\n");

  std::printf("Simulated machine cycles per end-to-end operation (cycle model):\n");
  std::printf("%-28s %10s %10s   paper MK40      paper MK32\n", "", "MK40", "MK32");
  std::printf("%-28s %7.0f cyc %7.0f cyc   entry 64i/7l/25s  67i/8l/20s\n",
              "null syscall (entry+exit)", mk40_syscall.cycles_per_op,
              mk32_syscall.cycles_per_op);
  std::printf("%-28s %7.0f cyc %7.0f cyc   83i/22l/18s       250i/52l/27s\n",
              "yield transfer (handoff/switch)", mk40_transfer.cycles_per_op,
              mk32_transfer.cycles_per_op);

  std::printf("\nModeled machine-layer traffic (MK40 run):\n");
  PrintModeled("system call entry", mk40_syscall.entry);
  PrintModeled("system call exit", mk40_syscall.exit);
  PrintModeled("stack handoff", mk40_transfer.handoff);
  PrintModeled("context switch", mk40_transfer.context_switch);
  std::printf("Modeled machine-layer traffic (MK32 run):\n");
  PrintModeled("system call entry", mk32_syscall.entry);
  PrintModeled("system call exit", mk32_syscall.exit);
  PrintModeled("context switch", mk32_transfer.context_switch);

  std::printf("\nShape checks (paper in brackets):\n");
  std::printf("  switch-path / handoff-path cycles per transfer: %.2fx "
              "[250/83 = 3.0x on the bare primitive]\n",
              mk32_transfer.cycles_per_op / mk40_transfer.cycles_per_op);
  std::printf("  bare primitive cycle model: handoff %llu, context switch %llu\n",
              static_cast<unsigned long long>(kCycStackHandoff),
              static_cast<unsigned long long>(kCycContextSwitch));
  std::printf("  MK40 entry stores > MK32 entry stores: %s [paper: 25 vs 20]\n",
              mk40_syscall.entry.word_stores * mk32_syscall.entry.calls >
                      mk32_syscall.entry.word_stores * mk40_syscall.entry.calls
                  ? "yes"
                  : "no");
  std::printf("  context backend: %s (%d callee-saved words per raw switch)\n",
              kContextBackendName, kContextSwitchSavedWords);

  BenchJsonBuilder("table4_components")
      .Config("iterations", iterations)
      .Metric("mk40_syscall_cycles", mk40_syscall.cycles_per_op)
      .Metric("mk32_syscall_cycles", mk32_syscall.cycles_per_op)
      .Metric("mk40_transfer_cycles", mk40_transfer.cycles_per_op)
      .Metric("mk32_transfer_cycles", mk32_transfer.cycles_per_op)
      .Metric("switch_over_handoff",
              mk32_transfer.cycles_per_op / mk40_transfer.cycles_per_op)
      .Metric("handoff_cycles", static_cast<unsigned long long>(kCycStackHandoff))
      .Metric("context_switch_cycles",
              static_cast<unsigned long long>(kCycContextSwitch))
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
