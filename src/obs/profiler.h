// Deterministic virtual-cycle sampling profiler.
//
// A conventional sampling profiler interrupts the CPU and walks the stack.
// Neither half of that works here: the simulation has no asynchronous
// interrupts (determinism forbids them) and blocked MK40 threads have no
// stacks to walk. Both substitutions fall out of the machine model:
//
//  * Sampling fires on the *virtual-time frontier*. The kernel's safe points
//    (UserWork's clock advance, the idle loop's event-queue drain) call
//    Kernel::ObsTick(); whenever the frontier has crossed the next multiple
//    of the sampling interval the profiler attributes one interval's worth
//    of virtual cycles to every live thread's current logical position. The
//    schedule depends only on virtual time, so a fixed (config, seed,
//    interval) produces a byte-identical profile.
//  * Attribution uses FoldedStack (src/obs/introspect.h): a blocked thread
//    samples as its registered continuation + wait object, a runnable thread
//    as time spent starved in a queue, a running thread as on-CPU work, and
//    idle processors as the machine's idle bucket. The folded output is
//    flamegraph.pl's input format; per-key cycle totals always sum to
//    total_cycles().
//
// The counter deltas and histogram quantiles over virtual time that used to
// ride this tick are the snapshot stream's local sink (src/obs/snapshot.h).
//
// The profiler is a pure observer — it never charges cycles or touches
// kernel state — so turning it on changes no simulated outcome, only adds
// output.
#ifndef MACHCONT_SRC_OBS_PROFILER_H_
#define MACHCONT_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/base/types.h"

namespace mkc {

class Kernel;

class Profiler {
 public:
  explicit Profiler(Ticks sample_interval);

  // Called from the kernel's observability safe points (Kernel::ObsTick).
  // Cheap when nothing is due: one VirtualTime() read and one compare.
  void Tick(Kernel& kernel);

  // Folded-stack profile, one "frames cycles" line per key, sorted by key.
  // `prefix` is prepended to every key (cluster drivers root each node's
  // stacks under "nodeN;").
  std::string FoldedString(const std::string& prefix = std::string()) const;

  const std::map<std::string, std::uint64_t>& folded() const { return folded_; }

  // Invariant: the per-key cycle totals in folded() sum to exactly this.
  std::uint64_t total_cycles() const { return total_cycles_; }
  std::uint64_t samples() const { return samples_; }

  Ticks sample_interval() const { return sample_interval_; }

  void Reset();

 private:
  void TakeSample(Kernel& kernel, std::uint64_t cycles);

  Ticks sample_interval_;
  Ticks next_sample_;

  std::map<std::string, std::uint64_t> folded_;
  std::uint64_t total_cycles_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace mkc

#endif  // MACHCONT_SRC_OBS_PROFILER_H_
