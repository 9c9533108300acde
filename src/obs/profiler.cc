#include "src/obs/profiler.h"

#include "src/kern/kernel.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"

namespace mkc {

Profiler::Profiler(Ticks sample_interval)
    : sample_interval_(sample_interval), next_sample_(sample_interval) {}

void Profiler::Tick(Kernel& kernel) {
  Ticks now = kernel.VirtualTime();
  if (now >= next_sample_) {
    // The frontier may have jumped several intervals past the last safe
    // point (a long user burst, an idle skip to a distant event). Each
    // elapsed interval is attributed to the *current* machine state — the
    // best deterministic estimate of where that time went — in one walk.
    std::uint64_t n = (now - next_sample_) / sample_interval_ + 1;
    TakeSample(kernel, n * sample_interval_);
    samples_ += n;
    next_sample_ += n * sample_interval_;
  }
}

void Profiler::TakeSample(Kernel& kernel, std::uint64_t cycles) {
  // Threads in creation order (ids are allocation-order deterministic).
  // Idle threads are skipped here and accounted per-processor below, so the
  // machine's idle time shows as one bucket instead of N fake threads.
  for (const auto& t : kernel.threads()) {
    if (t->is_idle) {
      continue;
    }
    switch (t->state) {
      case ThreadState::kRunning:
      case ThreadState::kRunnable:
      case ThreadState::kWaiting:
        break;
      default:
        continue;  // Embryos and halted threads hold no machine time.
    }
    folded_[FoldedStack(kernel, *t)] += cycles;
    total_cycles_ += cycles;
  }
  for (int i = 0; i < kernel.ncpu(); ++i) {
    const Processor& cpu = kernel.cpu(i);
    if (cpu.active_thread != nullptr && cpu.active_thread->is_idle) {
      folded_["idle"] += cycles;
      total_cycles_ += cycles;
    }
  }
}

std::string Profiler::FoldedString(const std::string& prefix) const {
  std::string out;
  for (const auto& [key, cycles] : folded_) {
    out += prefix;
    out += key;
    out += ' ';
    AppendU64(&out, cycles);
    out += '\n';
  }
  return out;
}

void Profiler::Reset() {
  // The sampling schedule is left alone: it tracks the virtual-time
  // frontier, which a stats reset does not rewind.
  folded_.clear();
  total_cycles_ = 0;
  samples_ = 0;
}

}  // namespace mkc
