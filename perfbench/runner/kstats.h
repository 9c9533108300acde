// Model-side readings taken from a kernel through its public getters.
#ifndef PERFBENCH_RUNNER_KSTATS_H_
#define PERFBENCH_RUNNER_KSTATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "src/exc/exc_stats.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/kern/zone.h"
#include "src/vm/vm_system.h"

namespace perfbench {

// Every registered counter, the stack high-water and the virtual clock: the
// fingerprint two runs of the same work must agree on exactly.
inline std::vector<std::uint64_t> ModelSnapshot(mkc::Kernel& k) {
  std::vector<std::uint64_t> out;
  k.metrics().ForEachCounter(
      [&](const std::string& /*name*/, std::uint64_t v) { out.push_back(v); });
  out.push_back(k.stack_pool().stats().max_in_use);
  out.push_back(k.VirtualTime());
  out.push_back(k.machine_cycles());
  return out;
}

// Summed layer counters over one or more kernels (the MK40 side of a
// workload, or every node of a cluster).
struct LayerCounters {
  mkc::TransferStats xfer;
  std::uint64_t discards = 0;
  mkc::StackPoolStats stacks;
  std::uint64_t stack_bytes = 0;  // High-water bytes in use, summed.
  mkc::IpcStats ipc;
  mkc::VmStats vm;
  mkc::ExcStats exc;
  std::uint64_t zone_ops = 0;
  std::uint64_t zone_magazine_hits = 0;

  void Add(mkc::Kernel& k) {
    const mkc::TransferStats& t = k.transfer_stats();
    xfer.total_blocks += t.total_blocks;
    xfer.stack_handoffs += t.stack_handoffs;
    xfer.recognitions += t.recognitions;
    discards += t.TotalDiscards();
    const mkc::StackPoolStats& s = k.stack_pool().stats();
    stacks.allocs += s.allocs;
    stacks.cache_hits += s.cache_hits;
    stacks.max_in_use += s.max_in_use;
    stack_bytes += s.max_in_use * k.stack_pool().stack_bytes();
    const mkc::IpcStats& i = k.ipc().stats();
    ipc.messages_sent += i.messages_sent;
    ipc.fast_rpc_handoffs += i.fast_rpc_handoffs;
    ipc.queued_sends += i.queued_sends;
    const mkc::VmStats& v = k.vm().stats();
    vm.pageins += v.pageins;
    vm.pageouts += v.pageouts;
    vm.fault_blocks += v.fault_blocks;
    const mkc::ExcStats& e = k.exc_stats();
    exc.raised += e.raised;
    exc.fast_deliveries += e.fast_deliveries;
    for (const mkc::Zone* z : {&k.ipc().kmsg_small_zone(), &k.ipc().kmsg_full_zone()}) {
      zone_ops += z->stats().allocs + z->stats().frees;
      zone_magazine_hits += z->stats().magazine_hits;
    }
  }
};

// The counter-derived per-layer metrics every workload reports.
inline void AddLayerMetrics(const LayerCounters& c, Result& res) {
  const std::uint64_t blocks = c.xfer.total_blocks;
  res.Add("kern.handoff_per_transfer", Ratio(c.xfer.stack_handoffs, blocks), "ratio");
  res.Add("kern.recognition_pct", Pct(c.xfer.recognitions, blocks), "%");
  res.Add("kern.discard_pct", Pct(c.discards, blocks), "%");
  res.Add("kern.stack.cache_hit_pct", Pct(c.stacks.cache_hits, c.stacks.allocs), "%");
  res.Add("kern.stack.max_in_use", static_cast<double>(c.stacks.max_in_use), "count");
  res.Add("kern.zone.magazine_hit_pct", Pct(c.zone_magazine_hits, c.zone_ops), "%");
  res.Add("ipc.fast_rpc_pct", Pct(c.ipc.fast_rpc_handoffs, c.ipc.messages_sent), "%");
  res.Add("ipc.queued_send_pct", Pct(c.ipc.queued_sends, c.ipc.messages_sent), "%");
  res.Add("exc.fast_delivery_pct", Pct(c.exc.fast_deliveries, c.exc.raised), "%");
  res.Add("vm.pageins_per_kblock", 1000.0 * Ratio(c.vm.pageins, blocks), "count");
  res.Add("vm.pageouts_per_kblock", 1000.0 * Ratio(c.vm.pageouts, blocks), "count");
  res.Add("vm.fault_blocks_per_kblock", 1000.0 * Ratio(c.vm.fault_blocks, blocks), "count");
}

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_KSTATS_H_
