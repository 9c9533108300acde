#include "src/vm/vm_system.h"

#include "src/base/attributes.h"
#include "src/base/panic.h"
#include "src/core/control.h"
#include "src/dev/device.h"
#include "src/exc/exception.h"
#include "src/kern/kernel.h"
#include "src/machine/cycle_model.h"
#include "src/machine/machdep.h"
#include "src/net/netipc.h"
#include "src/task/task.h"
#include "src/vm/object.h"

namespace mkc {
namespace {

// Completes the page-fault service-time measurement begun in FaultInternal
// (first, non-retry entry). Called just before the fault path returns to
// user level, whichever resolution it took.
MKC_TRANSFER_PATH void RecordFaultService(Thread* thread) {
  if (thread->fault_start == 0) {
    return;
  }
  Kernel& k = ActiveKernel();
  k.lat().fault_service->Record(k.LatencyNow() - thread->fault_start);
  thread->fault_start = 0;
  k.SpanEnd(SpanKind::kFault);
}

}  // namespace

VmSystem::VmSystem(Kernel& kernel, std::uint32_t physical_pages, Ticks disk_latency)
    : kernel_(kernel),
      pool_(physical_pages),
      disk_latency_(disk_latency),
      free_target_(physical_pages / 8 + 2) {}

MKC_TRANSFER_PATH bool VmSystem::TranslateForAccess(Task* task, VmAddress va, bool write) {
  MKC_ASSERT(task != nullptr);
  const Pmap::Translation* tr = task->pmap.Lookup(va);
  if (tr == nullptr || (write && !tr->writable)) {
    return false;  // The access traps.
  }
  PhysicalPage* page = pool_.PageFor(tr->frame);
  if (write) {
    page->dirty = true;
  }
  return true;
}

MKC_TRANSFER_PATH [[noreturn]] void VmSystem::HandleUserFault(Thread* thread, VmAddress addr,
                                                              bool write) {
  FaultInternal(thread, addr, write, /*is_retry=*/false);
}

MKC_TRANSFER_PATH void VmSystem::VmFaultRetryContinue() {
  Thread* thread = CurrentThread();
  auto st = thread->Scratch<VmFaultState>();  // Copy: FaultInternal reuses scratch.
  ActiveKernel().vm().FaultInternal(thread, st.addr, st.write != 0, /*is_retry=*/true);
}

MKC_TRANSFER_PATH void VmSystem::VmFaultMapContinue() {
  // The pagein completed while we were stackless; the mapping step is the
  // same re-walk of the fault path (the page is now resident, so it
  // completes without blocking).
  VmFaultRetryContinue();
}

MKC_TRANSFER_PATH bool VmSystem::FaultResumeRecognized(Kernel& kernel, Thread* thread) {
  VmSystem& vm = kernel.vm();
  auto st = thread->Scratch<VmFaultState>();  // Copy, as the continuations do.
  Task* task = thread->task;
  if (task == nullptr) {
    return false;
  }
  const bool write = st.write != 0;
  VmRegion* region = task->map.Lookup(st.addr);
  if (region == nullptr || (write && region->prot != VmProt::kReadWrite)) {
    return false;  // Escalates to an exception: run the full fault path.
  }
  VmObject* object = region->object.get();
  auto& slot = object->Slot(region->OffsetOf(st.addr));
  if (slot.frame == kInvalidPageFrame) {
    return false;  // Still needs a physical page (or disk): general path.
  }
  PhysicalPage* page = vm.pool_.PageFor(slot.frame);
  if (page->busy || slot.pagein_busy) {
    return false;  // Someone's pagein/pageout owns it: general path waits.
  }
  // The woken fault can complete with a resident mapping — the common case
  // after both a free-page wait and a pagein. This is exactly FaultInternal's
  // resident arm, minus the kCycFaultBase re-walk (the lookups above stand in
  // for it) and minus the continuation call.
  Kernel& k = kernel;
  ++k.transfer_stats().recognitions;
  k.NoteContRecognition(thread->continuation);
  k.TracePoint(TraceEvent::kRecognition, 5);
  TakeContinuation(thread);
  k.ChargeCycles(kCycPmapEnter);
  task->pmap.Enter(st.addr, slot.frame, write || region->prot == VmProt::kReadWrite);
  page->mapped_task = task;
  page->mapped_va = PageTrunc(st.addr);
  if (write) {
    page->dirty = true;
  }
  ++vm.stats_.fast_faults;
  RecordFaultService(thread);
  ThreadExceptionReturn();
}

void VmSystem::RegisterRecognition(RecognitionTable& table) {
  // Both fault continuations resume through the same resident-map fast arm.
  table.Register(&VmSystem::VmFaultRetryContinue, &VmSystem::FaultResumeRecognized, nullptr);
  table.Register(&VmSystem::VmFaultMapContinue, &VmSystem::FaultResumeRecognized, nullptr);
}

MKC_TRANSFER_PATH [[noreturn]] void VmSystem::FaultInternal(Thread* thread, VmAddress addr,
                                                            bool write, bool is_retry) {
  Kernel& k = kernel_;
  k.ChargeCycles(kCycFaultBase);
  if (!is_retry) {
    ++stats_.user_faults;
    thread->fault_start = k.LatencyNow();
    k.SpanBegin(SpanKind::kFault);
  }
  for (;;) {
    Task* task = thread->task;
    MKC_ASSERT(task != nullptr);
    VmRegion* region = task->map.Lookup(addr);
    if (region == nullptr || (write && region->prot != VmProt::kReadWrite)) {
      ++stats_.protection_exceptions;
      // The fault is not serviced — it escalates. Close its measurement and
      // span here; otherwise the stale fault_start would inflate the *next*
      // legitimate fault's service latency.
      if (thread->fault_start != 0) {
        thread->fault_start = 0;
        k.SpanEnd(SpanKind::kFault);
      }
      HandleException(thread, MakeBadAccessCode(addr));
      // NOTREACHED
    }
    VmObject* object = region->object.get();
    VmOffset offset = region->OffsetOf(addr);

    if (k.netipc() != nullptr && object->remote_pull != RemotePull::kNone) {
      // NORMA lazy-pull gate (net/netipc.h): this object was imported over
      // the wire without its bytes. First touch issues an OOL_PULL and
      // blocks with the fault-retry continuation until the OOL_DATA train
      // lands (the object then pages in normally); a failed pull escalates
      // like a protection fault — dead-name semantics for memory.
      switch (k.netipc()->OolFaultPrepare(object)) {
        case NetIpc::OolGate::kReady:
          break;
        case NetIpc::OolGate::kWait: {
          ++stats_.fault_blocks;
          auto& st = thread->Scratch<VmFaultState>();
          st.addr = addr;
          st.write = write ? 1 : 0;
          st.retry = 1;
          k.AssertWait(object);
          ThreadBlock(k.UsesContinuations() ? VmFaultRetryContinue : nullptr,
                      BlockReason::kPageFault);
          continue;  // Process-model kernels retry here after the wakeup.
        }
        case NetIpc::OolGate::kFailed:
          ++stats_.protection_exceptions;
          if (thread->fault_start != 0) {
            thread->fault_start = 0;
            k.SpanEnd(SpanKind::kFault);
          }
          HandleException(thread, MakeBadAccessCode(addr));
          // NOTREACHED
      }
    }

    auto& slot = object->Slot(offset);

    if (slot.frame != kInvalidPageFrame) {
      PhysicalPage* page = pool_.PageFor(slot.frame);
      if (page->busy || slot.pagein_busy) {
        // Another thread's pagein/pageout owns the page: wait like a lock
        // (process model; §3.2's non-continuation rows).
        ++stats_.busy_waits;
        k.AssertWait(&slot);
        ThreadBlock(nullptr, BlockReason::kLockWait);
        continue;
      }
      k.ChargeCycles(kCycPmapEnter);
      task->pmap.Enter(addr, slot.frame, write || region->prot == VmProt::kReadWrite);
      page->mapped_task = task;
      page->mapped_va = PageTrunc(addr);
      if (write) {
        page->dirty = true;
      }
      ++stats_.fast_faults;
      RecordFaultService(thread);
      ThreadExceptionReturn();
    }

    // Need a physical page.
    PhysicalPage* page = pool_.Allocate();
    if (pool_.FreeCount() < free_target_) {
      RequestPageout();
    }
    if (page == nullptr) {
      // No free memory: block with a continuation until the pager frees
      // some, then retry the whole fault.
      ++stats_.fault_blocks;
      auto& st = thread->Scratch<VmFaultState>();
      st.addr = addr;
      st.write = write ? 1 : 0;
      st.retry = 1;
      k.AssertWait(&free_page_event_);
      ThreadBlock(k.UsesContinuations() ? VmFaultRetryContinue : nullptr,
                  BlockReason::kPageFault);
      continue;  // Process-model kernels retry here.
    }

    page->object = object;
    page->offset = offset;
    slot.frame = page->frame;

    if (object->backing() == VmBacking::kZeroFill && !slot.on_disk) {
      // Fresh anonymous memory: no disk involved, map and go.
      ++stats_.zero_fills;
      k.ChargeCycles(kCycPmapEnter);
      task->pmap.Enter(addr, page->frame, region->prot == VmProt::kReadWrite);
      page->mapped_task = task;
      page->mapped_va = PageTrunc(addr);
      page->dirty = write;
      RecordFaultService(thread);
      ThreadExceptionReturn();
    }

    // Pagein from backing store: post the disk completion and block with a
    // continuation (§2.5: "blocks the thread with a continuation that maps
    // the new page and resumes the thread at user level").
    ++stats_.pageins;
    slot.pagein_busy = true;
    page->busy = true;
    VmObject* object_c = object;
    VmOffset offset_c = offset;
    k.devices().disk().Submit([this, object_c, offset_c] {
      auto& s = object_c->Slot(offset_c);
      s.pagein_busy = false;
      s.on_disk = true;  // Contents now also on backing store (clean copy).
      if (s.frame != kInvalidPageFrame) {
        pool_.PageFor(s.frame)->busy = false;
      }
      kernel_.ThreadWakeupAll(&s);
    });
    auto& st = thread->Scratch<VmFaultState>();
    st.addr = addr;
    st.write = write ? 1 : 0;
    st.retry = 1;
    k.AssertWait(&slot);
    ThreadBlock(k.UsesContinuations() ? VmFaultMapContinue : nullptr, BlockReason::kPageFault);
    // Process-model kernels resume here and loop: the page is resident and
    // idle now, so the next pass maps it.
  }
}

KernReturn VmSystem::DeallocateRegion(Task* task, VmAddress addr) {
  MKC_ASSERT(task != nullptr);
  VmRegion* region = task->map.Lookup(addr);
  if (region == nullptr || region->start != addr) {
    return KernReturn::kInvalidAddress;
  }
  VmAddress start = region->start;
  bool freed_any = false;
  region->object->ForEachResident([&](VmOffset off, VmObject::PageSlot& slot) {
    task->pmap.Remove(start + off);
    PhysicalPage* page = pool_.PageFor(slot.frame);
    if (!page->busy) {
      pool_.UnlinkActive(page);
      pool_.Free(page);
      slot.frame = kInvalidPageFrame;
      freed_any = true;
    }
    // Busy pages (pagein/pageout in flight) finish their I/O against the
    // orphaned object, which stays alive until the kmsg/event consumes it —
    // we keep the object owned below until all slots settle.
  });
  VmSize size = 0;
  std::unique_ptr<VmObject> object = task->map.Remove(start, &size);
  MKC_ASSERT(object != nullptr);
  kernel_.ChargeCycles(size / kPageSize * 4);
  if (freed_any) {
    kernel_.ThreadWakeupAll(&free_page_event_);
  }
  // Keep objects with in-flight I/O alive until shutdown; plain ones die now.
  bool busy = false;
  object->ForEachResident([&](VmOffset, VmObject::PageSlot& slot) {
    if (pool_.PageFor(slot.frame)->busy) {
      busy = true;
    }
  });
  if (busy) {
    orphaned_objects_.push_back(std::move(object));
  }
  return KernReturn::kSuccess;
}

KernReturn VmSystem::ProtectRegion(Task* task, VmAddress addr, bool writable) {
  MKC_ASSERT(task != nullptr);
  VmRegion* region = task->map.Lookup(addr);
  if (region == nullptr) {
    return KernReturn::kInvalidAddress;
  }
  region->prot = writable ? VmProt::kReadWrite : VmProt::kRead;
  // Invalidate hardware translations for the region's resident pages; the
  // next access takes a fault and is re-validated against the new
  // protection.
  VmAddress start = region->start;
  region->object->ForEachResident([&](VmOffset off, VmObject::PageSlot& slot) {
    (void)slot;
    task->pmap.Remove(start + off);
  });
  kernel_.ChargeCycles(kCycPmapEnter * 2);
  return KernReturn::kSuccess;
}

void VmSystem::KernelBufferTouch(std::uint64_t key) {
  int slot = static_cast<int>(key % kKernelBufferSlots);
  while (!kernel_buffer_resident_[slot]) {
    ++stats_.kernel_faults;
    bool* flag = &kernel_buffer_resident_[slot];
    kernel_.devices().disk().Submit([this, flag] {
      *flag = true;
      kernel_.ThreadWakeupAll(flag);
    });
    kernel_.AssertWait(flag);
    // Kernel-mode fault: the process model is the only option here — the
    // thread's stack holds live kernel frames we cannot summarize.
    ThreadBlock(nullptr, BlockReason::kKernelFault);
  }
}

void VmSystem::RequestPageout() {
  pageout_needed_ = true;
  kernel_.ThreadWakeupOne(&pageout_event_);
}

void VmSystem::Evict(PhysicalPage* page) {
  ++stats_.pageouts;
  MKC_ASSERT(page->object != nullptr);
  auto& slot = page->object->Slot(page->offset);
  if (page->mapped_task != nullptr) {
    page->mapped_task->pmap.Remove(page->mapped_va);
  }
  slot.frame = kInvalidPageFrame;
  slot.on_disk = true;
  if (page->dirty) {
    // Dirty pages ride the paging disk before becoming free.
    page->busy = true;
    kernel_.devices().disk().Submit([this, page] {
      pool_.Free(page);
      kernel_.ThreadWakeupAll(&free_page_event_);
    });
  } else {
    pool_.Free(page);
    kernel_.ThreadWakeupAll(&free_page_event_);
  }
  // Memory pressure also claims a slot of the pageable kernel buffer now
  // and then, keeping kernel-mode faults alive under load.
  if (stats_.pageouts % 64 == 0) {
    kernel_buffer_resident_[kernel_buffer_evict_cursor_] = false;
    kernel_buffer_evict_cursor_ = (kernel_buffer_evict_cursor_ + 1) % kKernelBufferSlots;
  }
}

void VmSystem::PagerStep() {
  Kernel& k = ActiveKernel();
  VmSystem& vm = k.vm();
  if (vm.pageout_needed_) {
    int batch = 8;
    while (vm.pool_.FreeCount() < vm.free_target_ && batch-- > 0) {
      PhysicalPage* page = vm.pool_.PopEvictionCandidate();
      if (page == nullptr) {
        break;
      }
      vm.Evict(page);
    }
    if (vm.pool_.FreeCount() >= vm.free_target_) {
      vm.pageout_needed_ = false;
    }
  }
  k.AssertWait(&vm.pageout_event_);
  ThreadBlock(k.UsesContinuations() ? PagerStep : nullptr, BlockReason::kInternal);
  // Under the process-model kernels the block returns and the kernel-thread
  // runner loops back into PagerStep.
}

}  // namespace mkc
