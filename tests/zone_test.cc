// Unit tests for the zone allocator and the kmsg zones behind IpcSpace:
// cycle-charging exactness (magazines off costs exactly the plain freelist),
// magazine behavior, size-class routing, and cross-run determinism.
#include <gtest/gtest.h>

#include <set>

#include "src/ipc/ipc_space.h"
#include "src/ipc/message.h"
#include "src/kern/kernel.h"
#include "src/kern/zone.h"
#include "src/machine/cycle_model.h"
#include "src/workload/workload.h"

namespace mkc {
namespace {

TEST(ZoneTest, DepthZeroChargesExactlyTheLegacyFreelistCost) {
  KernelConfig config;
  Kernel kernel(config);
  Zone zone(kernel, "test", 64, /*magazine_depth=*/0, kCycKmsgAlloc, kCycKmsgFree);

  constexpr int kOps = 100;
  void* elems[kOps];
  for (int i = 0; i < kOps; ++i) {
    elems[i] = zone.Alloc();
  }
  for (int i = 0; i < kOps; ++i) {
    zone.Free(elems[i]);
  }

  const ZoneStats& zs = zone.stats();
  EXPECT_EQ(zs.allocs, kOps);
  EXPECT_EQ(zs.frees, kOps);
  EXPECT_EQ(zs.alloc_cycles, kOps * (kCycKmsgAlloc + kCycKmsgFree));
  EXPECT_EQ(zs.magazine_hits, 0u);
  EXPECT_EQ(zs.refills, 0u);
  EXPECT_EQ(zs.flushes, 0u);
  EXPECT_EQ(zs.in_use, 0u);
  EXPECT_EQ(zs.high_water, kOps);
}

TEST(ZoneTest, MagazinesAmortizeDepotCostOnSteadyChurn) {
  KernelConfig config;
  Kernel kernel(config);
  Zone cached(kernel, "cached", 64, /*magazine_depth=*/8, kCycKmsgAlloc, kCycKmsgFree);
  Zone bare(kernel, "bare", 64, /*magazine_depth=*/0, kCycKmsgAlloc, kCycKmsgFree);

  // The IPC steady state: alloc one, free one, repeat.
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) {
    cached.Free(cached.Alloc());
    bare.Free(bare.Alloc());
  }

  // After the first refill every operation is a magazine hit.
  EXPECT_GE(cached.stats().MagazineHitRate(), 0.99);
  EXPECT_LT(cached.stats().alloc_cycles, bare.stats().alloc_cycles / 2);
  EXPECT_EQ(cached.stats().allocs, bare.stats().allocs);
}

TEST(ZoneTest, MagazineIsLifoSoTheWarmElementComesBackFirst) {
  KernelConfig config;
  Kernel kernel(config);
  Zone zone(kernel, "lifo", 64, /*magazine_depth=*/4, kCycKmsgAlloc, kCycKmsgFree);

  void* a = zone.Alloc();
  zone.Free(a);
  EXPECT_EQ(zone.Alloc(), a);
  zone.Free(a);
}

TEST(ZoneTest, ResetStatsPreservesLiveElementsAndFootprint) {
  KernelConfig config;
  Kernel kernel(config);
  Zone zone(kernel, "reset", 64, /*magazine_depth=*/4, kCycKmsgAlloc, kCycKmsgFree);

  void* held = zone.Alloc();
  void* freed = zone.Alloc();
  zone.Free(freed);
  std::uint64_t created = zone.stats().created;
  ASSERT_GT(created, 0u);

  zone.ResetStats();
  EXPECT_EQ(zone.stats().allocs, 0u);
  EXPECT_EQ(zone.stats().alloc_cycles, 0u);
  EXPECT_EQ(zone.stats().in_use, 1u);       // `held` is still out.
  EXPECT_EQ(zone.stats().high_water, 1u);
  EXPECT_EQ(zone.stats().created, created);  // Heap footprint survives.
  zone.Free(held);
}

TEST(ZoneTest, KmsgAllocRoutesBySizeClass) {
  KernelConfig config;
  Kernel kernel(config);
  IpcSpace& ipc = kernel.ipc();

  KMessage* small = ipc.AllocKmsg(64);
  EXPECT_EQ(ipc.kmsg_small_zone().stats().in_use, 1u);
  EXPECT_EQ(ipc.kmsg_full_zone().stats().in_use, 0u);

  KMessage* full = ipc.AllocKmsg(kSmallKmsgBytes + 1);
  EXPECT_EQ(ipc.kmsg_full_zone().stats().in_use, 1u);

  // FreeKmsg routes each back to the zone it came from.
  ipc.FreeKmsg(small);
  ipc.FreeKmsg(full);
  EXPECT_EQ(ipc.kmsg_small_zone().stats().in_use, 0u);
  EXPECT_EQ(ipc.kmsg_full_zone().stats().in_use, 0u);
}

TEST(ZoneTest, DepthZeroKmsgPathChargesThePlainCostExactly) {
  KernelConfig config;
  config.kmsg_magazine_depth = 0;
  Kernel kernel(config);
  IpcSpace& ipc = kernel.ipc();

  constexpr int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    ipc.FreeKmsg(ipc.AllocKmsg(64));
  }

  // Without magazines every kmsg pays the bare depot's per-element price —
  // the "magazines off" leg of bench_ipc_alloc relies on exactly this.
  const ZoneStats& small = ipc.kmsg_small_zone().stats();
  const ZoneStats& full = ipc.kmsg_full_zone().stats();
  EXPECT_EQ(small.magazine_hits + full.magazine_hits, 0u);
  EXPECT_EQ(small.alloc_cycles + full.alloc_cycles,
            kOps * (kCycKmsgAlloc + kCycKmsgFree));
}

struct FarmZoneCapture {
  std::uint64_t small_allocs = 0;
  std::uint64_t full_allocs = 0;
  std::uint64_t magazine_hits = 0;
  std::uint64_t alloc_cycles = 0;

  static void Capture(Kernel& kernel, void* arg) {
    auto* cap = static_cast<FarmZoneCapture*>(arg);
    for (const Zone* zone :
         {&kernel.ipc().kmsg_small_zone(), &kernel.ipc().kmsg_full_zone()}) {
      const ZoneStats& zs = zone->stats();
      cap->magazine_hits += zs.magazine_hits;
      cap->alloc_cycles += zs.alloc_cycles;
    }
    cap->small_allocs = kernel.ipc().kmsg_small_zone().stats().allocs;
    cap->full_allocs = kernel.ipc().kmsg_full_zone().stats().allocs;
  }
};

TEST(ZoneTest, FarmWorkloadZoneAccountingIsDeterministic) {
  KernelConfig config;
  config.model = ControlTransferModel::kMach25;  // Every RPC queues a kmsg.
  config.ncpu = 4;

  FarmZoneCapture a, b;
  WorkloadParams params;
  params.scale = 1;
  params.seed = 7;
  params.post_run = &FarmZoneCapture::Capture;
  params.post_run_arg = &a;
  RunServerFarmWorkload(config, params);
  params.post_run_arg = &b;
  RunServerFarmWorkload(config, params);

  ASSERT_GT(a.small_allocs, 0u);
  EXPECT_EQ(a.small_allocs, b.small_allocs);
  EXPECT_EQ(a.full_allocs, b.full_allocs);
  EXPECT_EQ(a.magazine_hits, b.magazine_hits);
  EXPECT_EQ(a.alloc_cycles, b.alloc_cycles);
}

}  // namespace
}  // namespace mkc
