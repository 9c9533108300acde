// Allocation-free IPC: what the per-CPU kmsg magazines buy on the queued
// message path.
//
// The server-farm workload runs under Mach 2.5 — the process model with no
// handoff fast path, so every one of its 64-byte RPCs materializes a kmsg
// (the paper's §3.4 point: hot-path kernel objects want per-processor
// caching, not a shared freelist). Each CPU point runs two legs:
//
//   magazines off — kmsg_magazine_depth = 0, so every kmsg alloc/free pays
//     the bare depot price (kCycKmsgAlloc / kCycKmsgFree per element);
//   magazines on  — the common case hits the CPU-local magazine
//     (kCycKmsgMagazineHit); only refills/flushes pay the zone lock.
//
// Headline metric: modeled allocation cycles per queued message
// (ZoneStats.alloc_cycles summed over both size classes, divided by
// queued_sends), plus the magazine hit rate and end-to-end virtual time.
// Both legs run the same (config, seed, scale), so the per-point reduction
// is bit-deterministic; the `perf_gate` ctest checks it against the gates in
// bench/baselines/ipc_alloc.json (tools/check_perf_regression.py
// --baseline-dir bench/baselines BENCH.json).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/ipc/ipc_space.h"
#include "src/kern/kernel.h"
#include "src/kern/zone.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

// Zone counters captured by the post-run hook while the workload's kernel
// is still alive.
struct ZoneCapture {
  ZoneStats small;
  ZoneStats full;
};

void CaptureZones(Kernel& kernel, void* arg) {
  auto* c = static_cast<ZoneCapture*>(arg);
  c->small = kernel.ipc().kmsg_small_zone().stats();
  c->full = kernel.ipc().kmsg_full_zone().stats();
}

struct Leg {
  std::uint64_t queued_sends = 0;
  std::uint64_t alloc_cycles = 0;
  std::uint64_t magazine_hits = 0;
  std::uint64_t alloc_ops = 0;  // allocs + frees across both zones.
  std::uint64_t refills = 0;
  std::uint64_t flushes = 0;
  Ticks virtual_time = 0;
  double alloc_cycles_per_msg = 0.0;
  double hit_rate = 0.0;
  double ns_per_msg = 0.0;
};

Leg RunLeg(int cpus, bool magazines, int scale) {
  KernelConfig config;
  config.model = ControlTransferModel::kMach25;
  config.ncpu = cpus;
  if (!magazines) {
    config.kmsg_magazine_depth = 0;
  }

  ZoneCapture zones;
  WorkloadParams params;
  params.scale = scale;
  params.post_run = &CaptureZones;
  params.post_run_arg = &zones;

  WallTimer timer;
  WorkloadReport r = RunServerFarmWorkload(config, params);
  double wall = timer.Seconds();

  Leg leg;
  leg.queued_sends = r.ipc.queued_sends;
  leg.alloc_cycles = zones.small.alloc_cycles + zones.full.alloc_cycles;
  leg.magazine_hits = zones.small.magazine_hits + zones.full.magazine_hits;
  leg.alloc_ops =
      zones.small.allocs + zones.small.frees + zones.full.allocs + zones.full.frees;
  leg.refills = zones.small.refills + zones.full.refills;
  leg.flushes = zones.small.flushes + zones.full.flushes;
  leg.virtual_time = r.virtual_time;
  leg.alloc_cycles_per_msg =
      leg.queued_sends > 0 ? static_cast<double>(leg.alloc_cycles) /
                                 static_cast<double>(leg.queued_sends)
                           : 0.0;
  leg.hit_rate = leg.alloc_ops > 0 ? static_cast<double>(leg.magazine_hits) /
                                         static_cast<double>(leg.alloc_ops)
                                   : 0.0;
  leg.ns_per_msg = leg.queued_sends > 0
                       ? wall * 1e9 / static_cast<double>(leg.queued_sends)
                       : 0.0;
  return leg;
}

std::string LegJson(const Leg& leg) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"queued_sends\":%llu,\"alloc_cycles\":%llu,"
                "\"alloc_cycles_per_msg\":%.4f,\"magazine_hits\":%llu,"
                "\"hit_rate\":%.4f,\"refills\":%llu,\"flushes\":%llu,"
                "\"virtual_time\":%llu}",
                static_cast<unsigned long long>(leg.queued_sends),
                static_cast<unsigned long long>(leg.alloc_cycles),
                leg.alloc_cycles_per_msg,
                static_cast<unsigned long long>(leg.magazine_hits), leg.hit_rate,
                static_cast<unsigned long long>(leg.refills),
                static_cast<unsigned long long>(leg.flushes),
                static_cast<unsigned long long>(leg.virtual_time));
  return buf;
}

int Main(int argc, char** argv) {
  int scale = ScaleFromArgs(argc, argv, 10);
  constexpr int kCpuPoints[] = {1, 4, 8};

  RunLeg(1, true, scale > 4 ? scale / 4 : 1);  // Warm the host allocator.

  std::printf("IPC allocation: kmsg magazines on the Mach 2.5 queued-RPC path "
              "(farm workload, scale %d)\n\n",
              scale);
  std::printf("%5s %12s | %15s %15s %10s | %10s %12s\n", "cpus", "msgs",
              "cyc/msg (off)", "cyc/msg (on)", "reduction", "hit rate",
              "vtime ratio");

  std::string point_json = "[";
  for (int cpus : kCpuPoints) {
    Leg off = RunLeg(cpus, false, scale);
    Leg on = RunLeg(cpus, true, scale);
    double reduction = off.alloc_cycles_per_msg > 0.0
                           ? 100.0 * (off.alloc_cycles_per_msg - on.alloc_cycles_per_msg) /
                                 off.alloc_cycles_per_msg
                           : 0.0;
    double vtime_ratio = off.virtual_time > 0
                             ? static_cast<double>(on.virtual_time) /
                                   static_cast<double>(off.virtual_time)
                             : 0.0;
    std::printf("%5d %12llu | %15.2f %15.2f %9.1f%% | %9.1f%% %12.4f\n", cpus,
                static_cast<unsigned long long>(on.queued_sends),
                off.alloc_cycles_per_msg, on.alloc_cycles_per_msg, reduction,
                100.0 * on.hit_rate, vtime_ratio);

    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s{\"cpus\":%d,\"reduction_pct\":%.4f,",
                  point_json.size() > 1 ? "," : "", cpus, reduction);
    point_json += buf;
    point_json += "\"magazines_off\":" + LegJson(off);
    point_json += ",\"magazines_on\":" + LegJson(on) + "}";
  }
  point_json += "]";

  BenchJsonBuilder("ipc_alloc")
      .Config("workload", "farm")
      .Config("model", "mach25")
      .Config("scale", scale)
      .MetricJson("points", point_json)
      .Write();
  return 0;
}

}  // namespace
}  // namespace mkc

int main(int argc, char** argv) { return mkc::Main(argc, argv); }
